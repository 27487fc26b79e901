"""The benchmark's own tests: tracing, self-time arithmetic, gates, contract.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_wrappers_patch_imported_names_and_restore_originals():
    from geoloc.geodesy import LatLon

    point = LatLon(37.7, -122.4)
    before = {(m.__name__, k): v for m in tracing.namespaces() for k, v in vars(m).items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from geoloc import cli, geodesy, ingest, loss, partition, retrieval, train

        for module, attr in (
            (train, "margin_cosine_grads"),
            (loss, "margin_cosine_grads"),
            (train, "build_index"),
            (retrieval, "build_index"),
            (ingest, "latlon_to_utm"),
            (geodesy, "latlon_to_utm"),
            (cli, "build_partition"),
            (partition, "build_partition"),
        ):
            assert tracing.is_wrapped(getattr(module, attr)), f"{module.__name__}.{attr}"
        ingest.latlon_to_utm(point)
        assert [s[0] for s in tracer.spans if s[3] < 0] == ["geodesy.latlon_to_utm"]
    finally:
        tracer.restore()
    after = {(m.__name__, k): v for m in tracing.namespaces() for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(tracing.is_wrapped(v) for v in after.values())


def test_search_capture_reaches_every_alias_and_reports_a_miss(tmp_path):
    import worker

    from geoloc import retrieval, train

    original = retrieval.recall_at_n
    patches = tracing.patch({id(original): "stand-in"})
    try:
        assert retrieval.recall_at_n == "stand-in" and train.recall_at_n == "stand-in"
    finally:
        tracing.unpatch(patches)
    assert retrieval.recall_at_n is original and train.recall_at_n is original
    with pytest.raises(LookupError):
        worker._dump_search({}, [], str(tmp_path / "search.npz"))


def test_self_time_on_hand_built_span_tree():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["train.run_training", 1.0, 8.0, 0],
        ["train.sample_batch", 1.5, 2.0, 1],
        ["embed.forward_batch", 2.0, 3.5, 1],
        ["embed.pool", 2.5, 3.0, 3],
        ["embed.pool", 4.0, 4.5, 1],
        ["train._validate", 5.0, 7.0, 1],
        ["embed.pool", 5.5, 6.0, 6],
        ["embed.checkpoint_bytes", 7.0, 7.5, 1],
        ["ingest.load_manifest", 9.0, 9.25, 0],
    ]
    assert tracing.self_times(spans) == [
        10.0 - 7.0 - 0.25,
        7.0 - 0.5 - 1.5 - 0.5 - 2.0 - 0.5,
        0.5,
        1.5 - 0.5,
        0.5,
        0.5,
        2.0 - 0.5,
        0.5,
        0.5,
        0.25,
    ]
    summary = tracing.summarize(spans)
    assert summary["by_name"]["embed.pool"] == [3, 1.5, 1.5]
    assert summary["roots_s"] == 10.0
    assert summary["training"] == {
        "run_training_s": 7.0,
        "iterations": 1,
        "pool_calls": 2,
        "validation_s": 2.0,
        "checkpoint_s": 0.5,
    }
    metrics = tracing.layer_metrics(tracing.merge([summary]))
    assert metrics["train.iteration_ms"] == pytest.approx(1e3 * (7.0 - 2.0 - 0.5))
    assert metrics["embed.pool.calls_per_iteration"] == 2
    layers = sum(metrics[f"{m}.self_s"] for m in tracing.MODULES + ("bench",))
    assert layers == pytest.approx(metrics["trace.wall_s"])


def _search_case(seed: int):
    rng = np.random.default_rng(seed)
    db = rng.standard_normal((300, 8))
    db[150:] = db[:150]  # every row has an exact twin: ties everywhere
    db /= np.linalg.norm(db, axis=1, keepdims=True)
    queries = db[rng.integers(0, 300, size=40)] + 0.05 * rng.standard_normal((40, 8))
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    db_poses = rng.uniform(0.0, 200.0, size=(300, 2))
    query_poses = rng.uniform(0.0, 200.0, size=(40, 2))
    return db, db_poses, queries, query_poses


def test_oracle_gate_accepts_the_program_and_rejects_one_perturbed_rank():
    from geoloc.partition import GeoPose
    from geoloc.retrieval import build_index, recall_at_n

    db, db_poses, queries, query_poses = _search_case(3)
    pose = [GeoPose(east=e, north=n, heading=0.0) for e, n in db_poses]
    index = build_index(db, [f"r{i}" for i in range(len(db))], pose)
    qs = [(q, GeoPose(east=e, north=n, heading=0.0)) for q, (e, n) in zip(queries, query_poses)]
    report = recall_at_n(index, qs, ks=(1, 5, 10, 20), threshold_m=25.0).to_dict()

    oracle = checks.oracle_ranks(db, db_poses, queries, query_poses, 20, 25.0)
    assert checks.report_errors(report, oracle) == []

    i = next(i for i, r in enumerate(report["first_correct_rank"]) if r is not None)
    report["first_correct_rank"][i] += 1
    assert checks.report_errors(report, oracle)


def test_floor_and_history_gates():
    assert checks.floor_errors(0.80, 0.07, 0.84) == []
    assert checks.floor_errors(0.30, 0.07, 0.84)
    rows = [{"epoch": 0.0, "mean_loss": 1.0}, {"epoch": 1.0, "mean_loss": float("nan")}]
    assert checks.train_errors(rows, 2) == ["mean loss is not finite in epochs [1]"]
    assert checks.train_errors(rows[:1], 2)


def test_every_per_layer_metric_is_produced():
    spec = run.spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    result = {"rc": 0, "summary": tracing.Tracer().summary()}
    produced = run.layer_values([result], overhead_s=0.0, untraced_s=1.0)
    assert {m["name"] for m in spec["per_layer"]} <= produced.keys()


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk_train", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_second_seed_passes_every_gate():
    result = run.run_workload("desk_train", seed=2, seconds=0.0, traced=False)
    assert result["errors"] == []
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    refs = result["references"]
    assert result["metrics"]["recall_at_1"]["value"] >= refs["random_init_recall_at_1"] + 0.30
