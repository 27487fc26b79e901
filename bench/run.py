"""geoloc benchmark: real ``geoloc`` commands on generated files, gated for correctness.

Usage (from the repository root)::

    python3 bench/run.py --workload desk_train --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 7          # every workload

``--trace 0`` sets the workload up several times, then runs ``geoloc train``
and ``geoloc eval`` in turn, each in a fresh process, for ``--seconds``, and
reports the end-to-end metrics. ``--trace 1`` runs train + eval pairs
untraced, traced, traced, untraced, with every geoloc function wrapped in the
traced ones, and reports the per-layer metrics and the tracing overhead.
Metric names and units come from ``BENCHMARK.json``. Every output is
checked; the last line printed is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, and the exit code is 1 when any
check fails. See ``bench/README.md`` for the metrics and workloads.
"""

from __future__ import annotations

import os

# The program's documented mode is single-threaded; pin BLAS before numpy
# loads, here and (through the environment) in every worker.
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3
# A run must end within 180 s; no step may start a timeout past this.
DEADLINE_S = 170.0


def spec() -> dict:
    """``BENCHMARK.json``: the workloads and the metrics, with units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class StepFailed(RuntimeError):
    pass


class Runner:
    """Starts each step as a worker process and waits for it to end."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.steps = 0

    def step(self, request: dict) -> dict:
        self.steps += 1
        req = self.work / f"step{self.steps}.json"
        out = self.work / f"step{self.steps}.result.json"
        request = dict(request, result=str(out))
        req.write_text(json.dumps(request), encoding="utf-8")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise StepFailed("out of time before the step started")
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(req)],
                cwd=ROOT,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=remaining,
                text=True,
            )
        except subprocess.TimeoutExpired as exc:
            raise StepFailed(f"{request['kind']} step overran the run's deadline") from exc
        result = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {"rc": proc.returncode or 1}
        if result["rc"] != 0:
            result["error"] = proc.stderr.strip()[-2000:]
        return result


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "--work-tree", str(ROOT), *args],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def provenance(workload: str, seed: int, trace: bool) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREAD_PIN,
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "src_sha256": digest.hexdigest(),
    }


class Session:
    """One workload's files, the commands run on them, and their gates.

    Each ``geoloc train`` or ``geoloc eval`` run is one operation; a failed
    check marks the operation that produced the output as failed.
    """

    def __init__(self, workload: str, seed: int, work: Path, runner: Runner) -> None:
        import workloads

        self.workload = workload
        self.runner = runner
        self.config_path = work / "config.json"
        self.cfg = workloads.write_config(workload, seed, self.config_path)
        self.inputs = work / "inputs"
        self.run_dir = work / "run"
        self.dump = work / "search.npz"
        self.cmds = workloads.commands(workload, self.config_path, self.inputs, self.run_dir)
        self.images = workloads.images_per_train(self.cfg)
        self.ops: list[dict] = []
        self.references: dict | None = None

    def setup(self, trace: bool) -> dict:
        shutil.rmtree(self.inputs, ignore_errors=True)
        shutil.rmtree(self.run_dir, ignore_errors=True)
        result = self.runner.step(
            {"kind": "setup", "workload": self.workload, "config": str(self.config_path),
             "inputs": str(self.inputs), "trace": trace}
        )
        if result["rc"] != 0:
            raise StepFailed(f"set-up failed: {result.get('error', '')}")
        return result

    def run(self, kind: str, trace: bool) -> dict:
        """Run ``geoloc train`` or ``geoloc eval`` once and read its outputs.

        The first successful eval also saves its search inputs for the oracle.
        """
        import checks

        self.run_dir.mkdir(parents=True, exist_ok=True)
        request = {"kind": kind, "argv": self.cmds[kind], "trace": trace, "watch": str(self.run_dir)}
        if kind == "eval" and not self.dump.exists():
            request["dump"] = str(self.dump)
        op = {"kind": kind, "trace": trace, "errors": []}
        op["result"] = self.runner.step(request)
        if op["result"]["rc"] != 0:
            op["errors"].append(f"geoloc {kind} exited {op['result']['rc']}: {op['result'].get('error', '')}")
        elif kind == "train":
            op["history"] = checks.history(self.run_dir / "history.csv")
            op["errors"] += checks.train_errors(op["history"], self.cfg["train"]["total_epochs"])
        else:
            report = json.loads((self.run_dir / "report.json").read_text(encoding="utf-8"))
            op["report"] = {k: report[k] for k in ("num_queries", "recall_at", "first_correct_rank")}
            if "capture_error" in op["result"]:
                op["errors"].append(f"benchmark error: the oracle's search inputs were not captured: "
                                    f"{op['result']['capture_error']}")
        self.ops.append(op)
        return op

    def ok(self, kind: str) -> list[dict]:
        return [op for op in self.ops if op["kind"] == kind and op["result"]["rc"] == 0]

    def check(self) -> None:
        """Apply every gate to every operation."""
        import checks

        from geoloc.config import load_run_config

        oracle = None
        if self.dump.exists():
            evaluation = load_run_config(self.config_path).eval
            oracle = checks.ranks_from_dump(self.dump, max(evaluation.ks), evaluation.threshold_m)
        if self.workload == "desk_train" and self.ok("train"):
            baseline, best_possible = checks.desk_references(self.config_path, self.inputs / "world")
            self.references = {"random_init_recall_at_1": baseline, "oracle_recall_at_1": best_possible}
        last_train = None
        for op in self.ops:
            if op["kind"] == "train":
                last_train = op
                if "history" in op and self.references:
                    best = max(row["recall_at_1"] for row in op["history"])
                    op["errors"] += checks.floor_errors(best, *self.references.values())
                continue
            if "report" not in op:
                continue
            if oracle is None:
                op["errors"].append("no search was captured for the oracle")
            else:
                op["errors"] += checks.report_errors(op["report"], oracle)
            # The eval runs the train workloads' validation split, so the
            # exported model must reproduce the history's best R@1.
            if self.workload != "eval_large" and last_train and "history" in last_train:
                best = max(row["recall_at_1"] for row in last_train["history"])
                got = op["report"]["recall_at"]["1"]
                if got != best:
                    last_train["errors"].append(
                        f"exported model gives R@1 {got} on the validation split, history's best is {best}"
                    )

    def counts(self) -> tuple[int, int, list[str]]:
        errors = [e for op in self.ops for e in op["errors"]]
        return len(self.ops), sum(bool(op["errors"]) for op in self.ops), errors


def measure(session: Session, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics of one closed-loop caller.

    After the set-ups, the caller runs ``geoloc train`` and then ``geoloc
    eval`` of the model it exported, pair after pair. It starts another pair
    only if the last pair's time still fits in ``seconds``; at least one pair
    runs. A throughput is the run's total work over the total wall time of
    its commands: on a machine whose speed swings from one command to the
    next, that mean rate varies less from run to run than a median of the
    run's three to five samples.
    """
    setup_s = [session.setup(trace=False)["wall_s"] for _ in range(SETUP_REPEATS)]
    start = time.monotonic()
    pair_s = 0.0
    while not session.ops or time.monotonic() - start + pair_s <= seconds:
        pair_start = time.monotonic()
        for kind in ("train", "eval"):
            session.run(kind, trace=False)
        pair_s = time.monotonic() - pair_start
    session.check()
    trains, evals = session.ok("train"), session.ok("eval")
    samples = {
        "setup_s": setup_s,
        "train_wall_s": [op["result"]["wall_s"] for op in trains],
        "eval_wall_s": [op["result"]["wall_s"] for op in evals],
        "train_peak_rss_mb": [op["result"]["maxrss_kb"] / 1024.0 for op in trains],
        "eval_peak_rss_mb": [op["result"]["maxrss_kb"] / 1024.0 for op in evals],
    }
    queries = sum(op["report"]["num_queries"] for op in evals)
    values = {
        "setup_s": _median(setup_s),
        "train_images_per_s": _ratio(session.images * len(trains), sum(samples["train_wall_s"])),
        "eval_queries_per_s": _ratio(queries, sum(samples["eval_wall_s"])),
        "recall_at_1": _median([op["report"]["recall_at"]["1"] for op in evals]),
        "peak_rss_mb": max(_median(samples["train_peak_rss_mb"]), _median(samples["eval_peak_rss_mb"])),
    }
    return values, samples


def trace(session: Session) -> tuple[dict, dict]:
    """Per-layer metrics from one traced set-up and train + eval pair.

    Four train + eval pairs run in the order untraced, traced, traced,
    untraced, so a steady drift in the machine's speed cancels out of the
    tracing overhead: the mean traced pair minus the mean untraced pair.
    The layer metrics come from the set-up and the first traced pair.
    """
    setup = session.setup(trace=True)
    pairs = [(traced, [session.run(kind, trace=traced)["result"] for kind in ("train", "eval")])
             for traced in (False, True, True, False)]
    session.check()
    walls = {False: [], True: []}
    for traced, results in pairs:
        walls[traced].append(sum(r.get("wall_s", 0.0) for r in results))
    first_traced = pairs[1][1]
    untraced_s, traced_s = statistics.fmean(walls[False]), statistics.fmean(walls[True])
    values = layer_values([setup] + first_traced, traced_s - untraced_s, untraced_s)
    return values, {"untraced_s": walls[False], "traced_s": walls[True]}


def layer_values(traced: list[dict], overhead_s: float, untraced_s: float) -> dict:
    """Per-layer metric values from traced worker results (set-up and commands)."""
    import tracing

    merged = tracing.merge([r["summary"] for r in traced if r["rc"] == 0])
    values = tracing.layer_metrics(merged)
    for command in ("synth", "partition", "train", "eval"):
        values[f"cli.{command}_s"] = merged["by_name"].get(f"cli.cmd_{command}", [0, 0.0, 0.0])[1]
    values["cli.bytes_written"] = sum(r.get("bytes_written", 0) for r in traced)
    values["trace.overhead_s"] = overhead_s
    values["trace.overhead_ratio"] = _ratio(overhead_s, untraced_s)
    return values


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    work = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        session = Session(workload, seed, work, Runner(work, time.monotonic() + DEADLINE_S))
        values, samples = trace(session) if traced else measure(session, seconds)
        metrics = spec()["per_layer" if traced else "end_to_end"]
        attempted, failed, errors = session.counts()
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
            "errors": errors,
            "samples": samples,
            "references": session.references,
            "provenance": provenance(workload, seed, traced),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _print_result(workload: str, result: dict) -> None:
    better = {m["name"]: m["better"] for m in spec()["end_to_end"] + spec()["per_layer"]}
    print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:16.6f} {m['unit']:8s} ({better[name]} is better)")
    for error in result["errors"]:
        print(f"  FAILED: {error}")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="desk_train, eval_large or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0, help="how long the timed commands run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so the running worker is killed and
    # waited for and the work files are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "geoloc" / "cli.py").is_file():
        print(f"error: no geoloc sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")

    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except StepFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        _print_result(name, results[name])
        out = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(results[name], indent=1, sort_keys=True) + "\n", encoding="utf-8")

    if len(results) == 1:
        final = next(iter(results.values()))
        metrics = final["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    line = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
