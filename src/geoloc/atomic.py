"""Atomic file replacement and the one JSON layout of every artifact.

A reader sees either the previous file or the complete new one, never a
partial write: the data goes to a temporary file in the target's directory
and ``os.replace`` swaps it in once it is closed. A failed write removes the
temporary file and leaves the previous file as it was. An output that cannot
be opened or replaced raises ``OutputError`` naming the target.

Every JSON artifact is written by ``dump_json`` (sorted keys, no spaces,
exact float repr, one trailing newline) and read back by ``read_json``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO

from .errors import OutputError, ToolError


class AtomicFile:
    """``with AtomicFile(path, "w", encoding="utf-8") as fh:`` writes ``path`` atomically.

    ``mode`` is a write mode (``"w"`` or ``"wb"``); ``kwargs`` go to ``open``.
    The temporary file gets ``open``'s usual permissions.
    """

    def __init__(self, path: str | Path, mode: str = "w", **kwargs) -> None:
        self.path = Path(path)
        # What secrets.token_hex(4) returns, without importing hashlib and OpenSSL with secrets.
        self.tmp = self.path.with_name(f".{self.path.name}.{os.urandom(4).hex()}.tmp")
        self.mode = mode.replace("w", "x")
        self.kwargs = kwargs

    def __enter__(self) -> IO:
        if self.path.is_dir():  # found now, not by os.replace once the data is written
            raise OutputError(f"cannot write {self.path}: it is a directory")
        try:
            self.fh = open(self.tmp, self.mode, **self.kwargs)
        except OSError as exc:
            raise OutputError(f"cannot write {self.path}: {exc.strerror or exc}") from exc
        return self.fh

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.fh.close()
            if exc_type is None:
                os.replace(self.tmp, self.path)
        except OSError as err:
            raise OutputError(f"cannot write {self.path}: {err.strerror or err}") from err
        finally:
            self.tmp.unlink(missing_ok=True)


def make_dir(path: str | Path) -> Path:
    """Create the output directory ``path`` and its parents unless they exist."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot create directory {path}: {exc.strerror or exc}") from exc
    return Path(path)


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Replace ``path`` atomically with ``data``; text is written as UTF-8."""
    with AtomicFile(path, "wb") as fh:
        fh.write(data.encode("utf-8") if isinstance(data, str) else data)


def dump_json(doc: object) -> str:
    """The serialized form of a JSON artifact or value; equal documents give equal text."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def read_json(path: str | Path, error: type[ToolError], what: str) -> dict:
    """The JSON object stored in ``path``.

    A file that cannot be read, is not UTF-8, is not JSON or does not hold
    an object raises ``error``, with ``what`` naming the artifact.
    """
    try:
        doc = json.loads(Path(path).read_bytes().decode("utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError covers decode and JSON errors
        raise error(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{what} {path} does not hold a JSON object")
    return doc


def check_header(doc: object, fmt: str, version: int, error: type[ToolError], what: str) -> None:
    """Require ``doc`` to be a JSON object of format ``fmt`` at version ``version``."""
    if not isinstance(doc, dict):
        raise error(f"a {what} is a JSON object, got {type(doc).__name__}")
    if doc.get("format") != fmt:
        raise error(f"not a {what}: format={doc.get('format')!r}")
    if doc.get("version") != version:
        raise error(f"unsupported {what} version {doc.get('version')!r}")
