"""One benchmark step in a fresh process: a workload's set-up or one command.

Usage: ``python3 bench/worker.py REQUEST.json``. The request names the step;
the worker writes its result (wall time, exit code, peak RSS and, when
traced, the span summary) to the path the request gives. Running every timed
command in its own process is what makes ``peak_rss_mb`` the memory of that
command alone, and it is how a user runs ``geoloc``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]


def _files(root: Path) -> dict[str, tuple[int, int]]:
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            st = os.stat(os.path.join(dirpath, name))
            out[os.path.join(dirpath, name)] = (st.st_size, st.st_mtime_ns)
    return out


def _bytes_written(before: dict, after: dict) -> int:
    return sum(size for path, (size, mtime) in after.items() if before.get(path) != (size, mtime))


def _dump_search(captured: dict, argv: list[str], path: str) -> None:
    """Save the eval search's descriptors, with poses read from its manifests.

    The descriptors are taken as the search received them: the index's
    ``matrix`` (or the index itself, if it is an array) and the queries as
    an array or as (descriptor, pose) pairs. Poses come from the manifests
    the command was given, through ``ingest.load_manifest``.
    """
    import numpy as np

    from geoloc import ingest

    if not captured:
        raise LookupError("recall_at_n was never called")
    index, queries = captured["index"], captured["queries"]
    db = np.asarray(getattr(index, "matrix", index))
    queries = queries if isinstance(queries, np.ndarray) else np.stack([np.asarray(q[0]) for q in queries])

    def poses(flag: str) -> np.ndarray:
        records = ingest.load_manifest(argv[argv.index(flag) + 1])
        return np.array([[r.pose.east, r.pose.north] for r in records], dtype=float).reshape(-1, 2)

    db_poses, query_poses = poses("--db"), poses("--queries")
    if db.shape[0] != len(db_poses) or queries.shape[0] != len(query_poses):
        raise ValueError(
            f"search saw {db.shape[0]} x {queries.shape[0]} rows, manifests hold {len(db_poses)} x {len(query_poses)}"
        )
    np.savez(path, db=db, db_poses=db_poses, queries=queries, query_poses=query_poses)


def run(request: dict) -> dict:
    from geoloc import cli, retrieval

    import tracing
    import workloads

    tracer = tracing.Tracer() if request["trace"] else None
    watch = Path(request["watch"]) if request.get("watch") else None
    before = _files(watch) if tracer and watch else {}
    if tracer:
        tracer.install()
    # Keep the arguments of ``geoloc eval``'s search for the oracle gate,
    # under every name the search function is imported as.
    search = retrieval.recall_at_n
    captured: dict = {}

    @functools.wraps(search)
    def keep_search(index, queries, *args, **kwargs):
        captured["index"], captured["queries"] = index, queries
        return search(index, queries, *args, **kwargs)

    patches = tracing.patch({id(search): keep_search}) if request.get("dump") else []
    try:
        start = time.perf_counter()
        if request["kind"] == "setup":
            with tracer.span("bench.setup") if tracer else contextlib.nullcontext():
                workloads.setup(request["workload"], Path(request["config"]), Path(request["inputs"]))
            rc = 0
        else:
            rc = cli.main(request["argv"])
        wall = time.perf_counter() - start
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        tracing.unpatch(patches)
        if tracer:
            tracer.restore()
    result = {"rc": rc, "wall_s": wall, "maxrss_kb": maxrss_kb}
    if tracer:
        result["summary"] = tracer.summary()
        if watch:
            result["bytes_written"] = _bytes_written(before, _files(watch))
    if request.get("dump") and rc == 0:
        # A failed capture is the benchmark's error, not the command's: it is
        # reported as such and the command's result stands.
        try:
            _dump_search(captured, request["argv"], request["dump"])
        except Exception as exc:  # noqa: BLE001
            result["capture_error"] = f"{type(exc).__name__}: {exc}"
    return result


def main(argv: list[str]) -> int:
    request = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    result = run(request)
    Path(request["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0 if result["rc"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
