"""Atomic file replacement for every artifact the pipeline writes.

A reader sees either the previous file or the complete new one, never a
partial write: the data goes to a temporary file in the target's directory
and ``os.replace`` swaps it in once it is closed. A failed write removes the
temporary file and leaves the previous file as it was.
"""

from __future__ import annotations

import os
import secrets
from pathlib import Path
from typing import IO


class AtomicFile:
    """``with AtomicFile(path, "w", encoding="utf-8") as fh:`` writes ``path`` atomically.

    ``mode`` is a write mode (``"w"`` or ``"wb"``); ``kwargs`` go to ``open``.
    The temporary file gets ``open``'s usual permissions.
    """

    def __init__(self, path: str | Path, mode: str = "w", **kwargs) -> None:
        self.path = Path(path)
        self.tmp = self.path.with_name(f".{self.path.name}.{secrets.token_hex(4)}.tmp")
        self.mode = mode.replace("w", "x")
        self.kwargs = kwargs

    def __enter__(self) -> IO:
        self.fh = open(self.tmp, self.mode, **self.kwargs)
        return self.fh

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.fh.close()
            if exc_type is None:
                os.replace(self.tmp, self.path)
        finally:
            self.tmp.unlink(missing_ok=True)


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Replace ``path`` atomically with ``data``; text is written as UTF-8."""
    with AtomicFile(path, "wb") as fh:
        fh.write(data.encode("utf-8") if isinstance(data, str) else data)
