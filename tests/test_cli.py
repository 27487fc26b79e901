import dataclasses
import io
import json
import os
import struct
import zipfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from geoloc import cli, ingest, partition
from geoloc.cli import main
from geoloc.config import load_run_config
from geoloc.errors import TrainingError
from geoloc.partition import PartitionConfig, build_partition, partition_to_dict
from geoloc.train import used_groups
from oracles import oracle_pairwise_check

CONFIG = {
    "seed": 5,
    "partition": {
        "cell_size_m": 10.0,
        "heading_bin_deg": 30.0,
        "cell_stride": 2,
        "heading_stride": 2,
        "min_images_per_class": 2,
    },
    "split": {"fraction": 0.15},
    "train": {
        "groups_used": 2,
        "iterations_per_epoch": 10,
        "total_epochs": 2,
        "batch_size": 8,
        "learning_rate": 0.01,
        "model": {"output_dim": 16, "pooling": "gem", "gem_p": 3.0},
        "seed": 5,
    },
    "city": {
        "extent_m": 200.0,
        "place_spacing_m": 50.0,
        "headings_per_place": 4,
        "images_per_place_heading": 8,
        "latent_dim": 8,
        "feature_map_shape": [16, 2, 2],
        "noise_sigma": 0.05,
        "domain_shift_sigma": 0.05,
        "nuisance_dim": 2,
        "nuisance_sigma": 1.5,
        "seed": 5,
    },
    "eval": {"threshold_m": 25.0, "ks": [1, 5, 10, 20]},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(CONFIG), encoding="utf-8")
    world_dir = root / "world"
    assert main(["synth", "--config", str(cfg_path), "--out-dir", str(world_dir)]) == 0
    return root, cfg_path, world_dir


def test_synth_outputs(workspace):
    _, _, world_dir = workspace
    for name in ("manifest.csv", "features.npz", "query_features.npz", "latents.npz",
                 "db.csv", "queries.csv", "world.json"):
        assert (world_dir / name).exists()
    doc = json.loads((world_dir / "world.json").read_text())
    assert doc["records"] == 16 * 4 * 8
    assert doc["config"]["city"]["seed"] == 5  # config echo


def test_convert_is_idempotent(workspace, tmp_path):
    _, _, world_dir = workspace
    once = tmp_path / "once.csv"
    twice = tmp_path / "twice.csv"
    assert main(["convert", "--input", str(world_dir / "manifest.csv"), "--output", str(once)]) == 0
    assert main(["convert", "--input", str(once), "--output", str(twice)]) == 0
    assert once.read_bytes() == twice.read_bytes()


def test_convert_enriches_latlon_manifest(tmp_path):
    src = tmp_path / "latlon.csv"
    src.write_text("id,lat,lon,heading\na,37.7749,-122.4194,10\nb,37.7751,-122.4192,20\n")
    out = tmp_path / "utm.csv"
    assert main(["convert", "--input", str(src), "--output", str(out)]) == 0
    header = out.read_text().splitlines()[0].split(",")
    assert "east" in header and "north" in header and "lat" in header


def test_partition_stats_and_checksum(workspace, capsys, tmp_path):
    _, cfg_path, world_dir = workspace
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    args = ["partition", "--config", str(cfg_path), "--manifest", str(world_dir / "manifest.csv")]
    assert main(args + ["--output", str(out_a)]) == 0
    stats = capsys.readouterr().out
    assert "groups              8" in stats
    assert main(args + ["--output", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


@pytest.mark.parametrize("landed, message", [("equal JSON, a space more", "does not hold"), ("nothing", "cannot read")])
def test_partition_rejects_a_write_back_that_differs(workspace, capsys, tmp_path, monkeypatch, landed, message):
    # The file must hold the very bytes the command serialized; a write that landed otherwise is one error line.
    _, cfg_path, world_dir = workspace

    def write(path, data):
        if landed != "nothing":
            Path(path).write_bytes(data.replace(b'"members":', b'"members" :', 1))

    monkeypatch.setattr(partition, "write_atomic", write)
    capsys.readouterr()
    code = main(["partition", "--config", str(cfg_path), "--manifest", str(world_dir / "manifest.csv"),
                 "--output", str(tmp_path / "p.json")])
    assert code == 1
    err = capsys.readouterr().err
    _single_error_line(err, "partition")
    assert message in err


def test_partition_with_default_strides_reports_50_groups(workspace, capsys, tmp_path):
    _, cfg_path, world_dir = workspace
    out = tmp_path / "p50.json"
    assert main([
        "partition", "--config", str(cfg_path),
        "--set", "partition.cell_stride=5",
        "--set", "partition.min_images_per_class=0",
        "--manifest", str(world_dir / "manifest.csv"),
        "--output", str(out),
    ]) == 0
    stats = capsys.readouterr().out
    assert "groups              50" in stats
    assert "discarded classes   0" in stats  # filter disabled


def test_train_and_eval_pipeline(workspace, tmp_path, capsys):
    root, cfg_path, world_dir = workspace
    part_path = tmp_path / "partition.json"
    assert main(["partition", "--config", str(cfg_path),
                 "--manifest", str(world_dir / "manifest.csv"), "--output", str(part_path)]) == 0
    out_dir = tmp_path / "run"
    assert main([
        "train", "--config", str(cfg_path),
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(world_dir / "features.npz"),
        "--query-features", str(world_dir / "query_features.npz"),
        "--partition", str(part_path),
        "--out-dir", str(out_dir),
    ]) == 0
    capsys.readouterr()
    assert {p.name for p in out_dir.iterdir()} == {"model_best.json", "history.csv"}
    history = (out_dir / "history.csv").read_text().splitlines()
    assert history[0].startswith("epoch,group,mean_loss")
    assert len(history) == 1 + CONFIG["train"]["total_epochs"]

    report_path = tmp_path / "report.json"
    assert main([
        "eval", "--config", str(cfg_path),
        "--checkpoint", str(out_dir / "model_best.json"),
        "--db", str(world_dir / "db.csv"),
        "--db-features", str(world_dir / "features.npz"),
        "--queries", str(world_dir / "queries.csv"),
        "--query-features", str(world_dir / "query_features.npz"),
        "--output", str(report_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "R@1" in out and "R@20" in out
    doc = json.loads(report_path.read_text())
    assert set(doc["recall_at"]) == {"1", "5", "10", "20"}
    assert doc["config"]["train"]["groups_used"] == 2
    # Validation and eval score the same split by the same path, so eval
    # reproduces the best validation R@1 of the exported model exactly.
    best_r1 = max(float(line.split(",")[3]) for line in history[1:])
    assert doc["recall_at"]["1"] == best_r1

    # Reproducibility: a second identical train run writes identical history.
    out_dir2 = tmp_path / "run2"
    assert main([
        "train", "--config", str(cfg_path),
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(world_dir / "features.npz"),
        "--query-features", str(world_dir / "query_features.npz"),
        "--partition", str(part_path),
        "--out-dir", str(out_dir2),
    ]) == 0
    assert (out_dir / "history.csv").read_bytes() == (out_dir2 / "history.csv").read_bytes()
    assert (out_dir / "model_best.json").read_bytes() == (out_dir2 / "model_best.json").read_bytes()


def test_eval_oracle_mode_reaches_full_recall(workspace, tmp_path, capsys):
    _, cfg_path, world_dir = workspace
    # Database = every record, so each query's own entry is retrievable.
    assert main([
        "eval", "--config", str(cfg_path),
        "--oracle-latents", str(world_dir / "latents.npz"),
        "--db", str(world_dir / "manifest.csv"),
        "--db-features", str(world_dir / "features.npz"),
        "--queries", str(world_dir / "queries.csv"),
        "--query-features", str(world_dir / "query_features.npz"),
    ]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1].split()[0] == "100.0"


def test_eval_oracle_mode_index_adopts_the_database_latents(workspace, monkeypatch):
    # The database descriptors are held once: the index is the array eval built, not a copy of it.
    _, cfg_path, world_dir = workspace
    seen = {}
    real_evaluate, real_build_index = cli.retrieval.evaluate, cli.retrieval.build_index

    def evaluate(db_vecs, *args, **kwargs):
        seen["db_vecs"] = db_vecs
        return real_evaluate(db_vecs, *args, **kwargs)

    def build_index(*args, **kwargs):
        seen["index"] = real_build_index(*args, **kwargs)
        return seen["index"]

    monkeypatch.setattr(cli.retrieval, "evaluate", evaluate)
    monkeypatch.setattr(cli.retrieval, "build_index", build_index)
    assert main([
        "eval", "--config", str(cfg_path), "--oracle-latents", str(world_dir / "latents.npz"),
        "--db", str(world_dir / "manifest.csv"), "--queries", str(world_dir / "queries.csv"),
    ]) == 0
    assert np.shares_memory(seen["index"].matrix, seen["db_vecs"])


def test_eval_index_adopts_the_loaded_database_descriptors(workspace, tiny_model, monkeypatch):
    # The loader projects each chunk as it reads it, and its Fortran-ordered block is the index's matrix.
    _, cfg_path, world_dir = workspace
    stores, seen = [], {}
    real_load, real_build_index = cli.synth.load_features, cli.retrieval.build_index

    def load_features(*args, **kwargs):
        stores.append(real_load(*args, **kwargs))
        return stores[-1]

    def build_index(*args, **kwargs):
        seen["index"] = real_build_index(*args, **kwargs)
        return seen["index"]

    monkeypatch.setattr(cli.synth, "load_features", load_features)
    monkeypatch.setattr(cli.retrieval, "build_index", build_index)
    assert main([
        "eval", "--config", str(cfg_path), "--checkpoint", str(tiny_model),
        "--db", str(world_dir / "db.csv"), "--db-features", str(world_dir / "features.npz"),
        "--queries", str(world_dir / "queries.csv"),
    ]) == 0
    db_store, query_store = stores
    assert db_store.block.flags.f_contiguous and db_store.block.shape[1] == CONFIG["train"]["model"]["output_dim"]
    assert np.shares_memory(seen["index"].matrix, db_store.block)
    assert len(query_store) == len(ingest.load_manifest(world_dir / "queries.csv"))


def test_eval_report_is_the_same_when_query_features_name_the_database_store(workspace, tiny_model, tmp_path):
    _, cfg_path, world_dir = workspace
    argv = [
        "eval", "--config", str(cfg_path), "--checkpoint", str(tiny_model),
        "--db", str(world_dir / "db.csv"), "--db-features", str(world_dir / "features.npz"),
        "--queries", str(world_dir / "queries.csv"),
    ]
    assert main([*argv, "--output", str(tmp_path / "omitted.json")]) == 0
    named = ["--query-features", str(world_dir / "features.npz"), "--output", str(tmp_path / "named.json")]
    assert main([*argv, *named]) == 0
    assert (tmp_path / "omitted.json").read_bytes() == (tmp_path / "named.json").read_bytes()


def _oracle_eval_on(world_dir, cfg_path, tmp_path, convert) -> int:
    """Oracle eval of every record against the queries, on latents passed through ``convert``."""
    store = tmp_path / "latents.npz"
    with np.load(world_dir / "latents.npz") as full:
        np.savez(store, **convert({rid: full[rid] for rid in full.files}))
    return main([
        "eval", "--config", str(cfg_path), "--oracle-latents", str(store),
        "--db", str(world_dir / "manifest.csv"), "--queries", str(world_dir / "queries.csv"),
    ])


def test_eval_oracle_mode_reads_integer_latents(workspace, tmp_path, capsys):
    _, cfg_path, world_dir = workspace

    def as_int(latents):
        return {rid: np.rint(v * 1000).astype(np.int64) for rid, v in latents.items()}

    capsys.readouterr()
    assert _oracle_eval_on(world_dir, cfg_path, tmp_path, as_int) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1].split()[0] == "100.0"


def test_eval_oracle_mode_names_a_zero_latent(workspace, tmp_path, capsys):
    _, cfg_path, world_dir = workspace
    zero = ingest.load_manifest(world_dir / "manifest.csv")[3].id
    capsys.readouterr()
    assert _oracle_eval_on(world_dir, cfg_path, tmp_path, lambda latents: {**latents, zero: 0 * latents[zero]}) == 1
    err = capsys.readouterr().err
    _single_error_line(err, "domain")
    assert repr(zero) in err


def test_eval_untrained_baseline_row(workspace, tmp_path, capsys):
    # A zero-learning-rate run exports the untrained initialization, which
    # gives the random-init baseline row for comparison tables.
    _, cfg_path, world_dir = workspace
    out_dir = tmp_path / "inert"
    assert main([
        "train", "--config", str(cfg_path),
        "--set", "train.learning_rate=0.0",
        "--set", "train.total_epochs=1",
        "--set", "train.iterations_per_epoch=2",
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(world_dir / "features.npz"),
        "--out-dir", str(out_dir),
    ]) == 0
    report = tmp_path / "baseline.json"
    assert main([
        "eval", "--config", str(cfg_path),
        "--checkpoint", str(out_dir / "model_best.json"),
        "--db", str(world_dir / "db.csv"),
        "--db-features", str(world_dir / "features.npz"),
        "--queries", str(world_dir / "queries.csv"),
        "--query-features", str(world_dir / "query_features.npz"),
        "--output", str(report),
    ]) == 0
    capsys.readouterr()
    doc = json.loads(report.read_text())
    assert 0.0 <= doc["recall_at"]["1"] <= 1.0


def test_eval_threshold_monotonicity(workspace, tmp_path, capsys):
    _, cfg_path, world_dir = workspace
    recalls = {}
    for threshold in (5.0, 60.0):
        assert main([
            "eval", "--config", str(cfg_path),
            "--set", f"eval.threshold_m={threshold}",
            "--oracle-latents", str(world_dir / "latents.npz"),
            "--db", str(world_dir / "db.csv"),
            "--db-features", str(world_dir / "features.npz"),
            "--queries", str(world_dir / "queries.csv"),
            "--query-features", str(world_dir / "query_features.npz"),
        ]) == 0
        recalls[threshold] = float(capsys.readouterr().out.strip().splitlines()[-1].split()[0])
    assert recalls[60.0] >= recalls[5.0]


def test_train_single_group_logs_degenerate_mode(workspace, tmp_path, capsys):
    _, cfg_path, world_dir = workspace
    out_dir = tmp_path / "g1"
    assert main([
        "train", "--config", str(cfg_path),
        "--set", "train.groups_used=1",
        "--set", "train.total_epochs=1",
        "--set", "train.iterations_per_epoch=5",
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(world_dir / "features.npz"),
        "--out-dir", str(out_dir),
        "--verbose",
    ]) == 0
    assert "cosFace" in capsys.readouterr().err


def test_sweep_over_groups_used(workspace, tmp_path, capsys):
    _, cfg_path, world_dir = workspace
    out = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--config", str(cfg_path),
        "--set", "train.total_epochs=1",
        "--set", "train.iterations_per_epoch=5",
        "--param", "train.groups_used", "--values", "1,2",
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(world_dir / "features.npz"),
        "--query-features", str(world_dir / "query_features.npz"),
        "--output", str(out),
    ]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("param,value,recall_at_1")
    assert [line.split(",")[:2] for line in lines[1:]] == [["train.groups_used", "1"], ["train.groups_used", "2"]]
    assert not out.with_suffix(".meta.json").exists()


def test_sweep_row_reproducible_from_its_own_train_run(workspace, tmp_path, capsys):
    # The db.csv/queries.csv split written by synth comes from the same seed
    # and fraction, so a direct train + eval reproduces the sweep row.
    _, cfg_path, world_dir = workspace
    overrides = ["--set", "train.total_epochs=1", "--set", "train.iterations_per_epoch=5"]
    sweep_out = tmp_path / "one.csv"
    assert main([
        "sweep", "--config", str(cfg_path), *overrides,
        "--param", "train.groups_used", "--values", "2",
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(world_dir / "features.npz"),
        "--query-features", str(world_dir / "query_features.npz"),
        "--output", str(sweep_out),
    ]) == 0
    capsys.readouterr()
    header, row = sweep_out.read_text().strip().splitlines()
    sweep_r1 = float(row.split(",")[header.split(",").index("recall_at_1")])

    out_dir = tmp_path / "direct"
    assert main([
        "train", "--config", str(cfg_path), *overrides,
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(world_dir / "features.npz"),
        "--query-features", str(world_dir / "query_features.npz"),
        "--out-dir", str(out_dir),
    ]) == 0
    report_path = tmp_path / "direct.json"
    assert main([
        "eval", "--config", str(cfg_path),
        "--checkpoint", str(out_dir / "model_best.json"),
        "--db", str(world_dir / "db.csv"),
        "--db-features", str(world_dir / "features.npz"),
        "--queries", str(world_dir / "queries.csv"),
        "--query-features", str(world_dir / "query_features.npz"),
        "--output", str(report_path),
    ]) == 0
    capsys.readouterr()
    direct_r1 = json.loads(report_path.read_text())["recall_at"]["1"]
    assert direct_r1 == pytest.approx(sweep_r1, abs=1e-12)


def test_int_and_float_spellings_sweep_to_the_same_row(workspace, tmp_path, capsys):
    # A row's value is the value as the run's config stores it, so both
    # spellings of one float are one run and one row.
    _, cfg_path, world_dir = workspace
    out = tmp_path / "cells.csv"
    assert main([*_sweep_argv(cfg_path, world_dir, "10,10.0", out, "partition.cell_size_m"),
                 "--set", "train.total_epochs=1", "--set", "train.iterations_per_epoch=5"]) == 0
    capsys.readouterr()
    _, first, second = out.read_bytes().splitlines()
    assert first == second
    assert first.split(b",")[:2] == [b"partition.cell_size_m", b"10.0"]


def test_sweep_over_eval_ks_leaves_the_other_recall_cells_empty(workspace, tmp_path, capsys):
    _, cfg_path, world_dir = workspace
    out = tmp_path / "ks.csv"
    assert main([*_sweep_argv(cfg_path, world_dir, "[1],[5]", out, "eval.ks"),
                 "--set", "train.total_epochs=1", "--set", "train.iterations_per_epoch=2"]) == 0
    capsys.readouterr()
    header, first, second = (line.split(",") for line in out.read_text().splitlines())
    assert header == ["param", "value", "recall_at_1", "recall_at_5"]
    assert first[:2] == ["eval.ks", "[1]"] and first[3] == "" and float(first[2]) >= 0
    assert second[:3] == ["eval.ks", "[5]", ""] and float(second[3]) >= 0


@pytest.mark.parametrize("override", ["eval.threshold_m=NaN", "eval.threshold_m=-Infinity", "train.learning_rate=Infinity"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_non_finite_config_float_rejected_before_any_output(workspace, tmp_path, capsys, command, override):
    _, cfg_path, world_dir = workspace
    out = tmp_path / "out"
    args = {
        "train": ["--manifest", str(world_dir / "manifest.csv"), "--features", str(world_dir / "features.npz"),
                  "--out-dir", str(out)],
        "eval": ["--oracle-latents", str(world_dir / "latents.npz"), "--db", str(world_dir / "db.csv"),
                 "--queries", str(world_dir / "queries.csv"), "--output", str(out)],
    }[command]
    capsys.readouterr()
    assert main([command, "--config", str(cfg_path), "--set", override, *args]) == 1
    err = capsys.readouterr().err
    _single_error_line(err, "config")
    assert f"{override.split('=')[0]} must be float and finite" in err
    assert os.listdir(tmp_path) == []


def test_console_script_entrypoint():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "geoloc.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "convert" in proc.stdout and "sweep" in proc.stdout


def test_importing_the_cli_loads_neither_openssl_nor_pyyaml():
    # Eval draws no random numbers and reads a JSON config, so it needs neither (4.8 MiB of RSS together).
    import subprocess
    import sys

    probe = "import sys, geoloc.cli; print(sorted({'_hashlib', 'yaml'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("source", ["checkpoint", "oracle-latents"])
def test_eval_never_imports_numpy_random(workspace, tiny_model, source):
    # Eval draws no random numbers, and importing numpy.random costs about 5 MiB of peak RSS, which
    # would be eval's own peak. The probe runs the whole command in a fresh interpreter.
    import subprocess
    import sys

    _, cfg_path, world_dir = workspace
    argv = ["eval", "--config", str(cfg_path),
            "--db", str(world_dir / "db.csv"), "--queries", str(world_dir / "queries.csv")]
    if source == "checkpoint":
        argv += ["--checkpoint", str(tiny_model), "--db-features", str(world_dir / "features.npz"),
                 "--query-features", str(world_dir / "query_features.npz")]
    else:
        argv += ["--oracle-latents", str(world_dir / "latents.npz")]
    probe = f"import sys, geoloc.cli; code = geoloc.cli.main({argv!r}); print(code, 'numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 False"


def test_sweep_rejects_empty_values(workspace, tmp_path, capsys):
    _, cfg_path, world_dir = workspace
    code = main([
        "sweep", "--config", str(cfg_path),
        "--param", "train.groups_used", "--values", ",",
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(world_dir / "features.npz"),
        "--output", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    assert "error[config]" in capsys.readouterr().err


def test_error_line_is_machine_parseable(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,lat,lon,heading\na,37.77,-122.42,10\nb,35.68,139.69,10\n")
    code = main(["convert", "--input", str(bad), "--output", str(tmp_path / "out.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error[manifest]: ")
    assert "zone" in err


def test_unknown_config_key_rejected(workspace, tmp_path, capsys):
    _, cfg_path, world_dir = workspace
    code = main([
        "partition", "--config", str(cfg_path),
        "--set", "partition.cell_sizee_m=12",
        "--manifest", str(world_dir / "manifest.csv"),
        "--output", str(tmp_path / "p.json"),
    ])
    assert code == 1
    assert "error[config]" in capsys.readouterr().err


def test_mismatched_partition_provenance_rejected(workspace, tmp_path, capsys):
    _, cfg_path, world_dir = workspace
    part_path = tmp_path / "p.json"
    assert main(["partition", "--config", str(cfg_path),
                 "--manifest", str(world_dir / "manifest.csv"), "--output", str(part_path)]) == 0
    code = main([
        "train", "--config", str(cfg_path), "--seed", "6",
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(world_dir / "features.npz"),
        "--partition", str(part_path),
        "--out-dir", str(tmp_path / "run"),
    ])
    assert code == 1
    assert "error[config]" in capsys.readouterr().err


def _single_error_line(err: str, code: str) -> None:
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error[{code}]: "), err


NO_CLASSES = {
    "format": "geo-partition", "version": 2, "config": CONFIG["partition"],
    "discarded_classes": 0, "discarded_images": 0,
}


def _partition_doc(version: int = 2, **entry) -> str:
    """A partition file holding one class; ``entry`` overrides the class's fields."""
    classes = [{"cell": [0, 0, 0], "members": ["x"], **entry}]
    return json.dumps({**NO_CLASSES, "version": version, "classes": classes})


def _train_on_partition_file(world_dir, cfg_path, tmp_path, content: str) -> int:
    part_path = tmp_path / "partition.json"
    part_path.write_text(content, encoding="utf-8")
    return main([
        "train", "--config", str(cfg_path),
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(world_dir / "features.npz"),
        "--partition", str(part_path),
        "--out-dir", str(tmp_path / "run"),
    ])


@pytest.mark.parametrize(
    "content",
    ['{"format": "partition", "classes": [', "[1, 2]", pytest.param(json.dumps(NO_CLASSES), id="no-classes")],
)
def test_train_rejects_corrupt_partition_file(workspace, tmp_path, capsys, content):
    _, cfg_path, world_dir = workspace
    assert _train_on_partition_file(world_dir, cfg_path, tmp_path, content) == 1
    _single_error_line(capsys.readouterr().err, "partition")


def _written_partition(cfg_path, world_dir, tmp_path) -> dict:
    """The document that ``geoloc partition`` writes for the workspace manifest."""
    part_path = tmp_path / "p.json"
    assert main(["partition", "--config", str(cfg_path),
                 "--manifest", str(world_dir / "manifest.csv"), "--output", str(part_path)]) == 0
    return json.loads(part_path.read_text())


def _bool_heading_bin(classes):
    entry = next(c for c in classes if c["cell"][2] in (0, 1))
    entry["cell"][2] = bool(entry["cell"][2])


def _float_cell(classes):
    classes[0]["cell"] = [float(v) for v in classes[0]["cell"]]


def _string_cell(classes):
    classes[0]["cell"][0] = str(classes[0]["cell"][0])


def _string_members(classes):
    classes[0]["members"] = "".join(classes[0]["members"])


@pytest.mark.parametrize(
    "mutate", [_bool_heading_bin, _float_cell, _string_cell, _string_members],
    ids=["bool-cell", "float-cell", "string-cell", "string-members"],
)
def test_train_rejects_malformed_partition_class(workspace, tmp_path, capsys, mutate):
    # The file's class holds the built partition's values as other JSON types; 1.0 and true equal 1 in Python.
    _, cfg_path, world_dir = workspace
    doc = _written_partition(cfg_path, world_dir, tmp_path)
    mutate(doc["classes"])
    capsys.readouterr()
    assert _train_on_partition_file(world_dir, cfg_path, tmp_path, json.dumps(doc)) == 1
    err = capsys.readouterr().err
    _single_error_line(err, "config")
    assert "(class [" in err


@pytest.mark.parametrize("count", [False, 0.0, "0", None], ids=["bool", "float", "string", "null"])
def test_train_rejects_discarded_count_of_another_json_type(workspace, tmp_path, capsys, count):
    _, cfg_path, world_dir = workspace
    doc = _written_partition(cfg_path, world_dir, tmp_path)
    assert doc["discarded_images"] == 0
    doc["discarded_images"] = count
    capsys.readouterr()
    assert _train_on_partition_file(world_dir, cfg_path, tmp_path, json.dumps(doc)) == 1
    err = capsys.readouterr().err
    _single_error_line(err, "config")
    assert "(discarded_images)" in err


def test_train_rejects_version_1_partition_file(workspace, tmp_path, capsys):
    # Version 1 stored each class's group beside its cell; version 2 derives it.
    _, cfg_path, world_dir = workspace
    assert _train_on_partition_file(world_dir, cfg_path, tmp_path, _partition_doc(version=1, group=[0, 0, 0])) == 1
    err = capsys.readouterr().err
    _single_error_line(err, "partition")
    assert "unsupported" in err and "version 1" in err


def test_train_checks_groups_used_before_reading_a_store(workspace, tmp_path, capsys):
    _, cfg_path, world_dir = workspace
    code = main([
        "train", "--config", str(cfg_path), "--set", "train.groups_used=51",
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(tmp_path / "missing.npz"),
        "--out-dir", str(tmp_path / "run"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    _single_error_line(err, "training")
    assert "groups_used=51" in err


@pytest.mark.parametrize("empty_side", ["--db", "--queries"])
def test_eval_rejects_empty_manifest(workspace, tmp_path, capsys, empty_side):
    _, cfg_path, world_dir = workspace
    empty = tmp_path / "empty.csv"
    empty.write_text("id,east,north,heading\n", encoding="utf-8")
    manifests = {"--db": str(world_dir / "db.csv"), "--queries": str(world_dir / "queries.csv")}
    manifests[empty_side] = str(empty)
    code = main([
        "eval", "--config", str(cfg_path),
        "--oracle-latents", str(world_dir / "latents.npz"),
        "--db", manifests["--db"], "--db-features", str(world_dir / "features.npz"),
        "--queries", manifests["--queries"],
    ])
    assert code == 1
    err = capsys.readouterr().err
    _single_error_line(err, "manifest")
    assert str(empty) in err


def test_sweep_rejects_query_zone_mismatch(workspace, tmp_path, capsys, monkeypatch):
    # One manifest holds one zone, so the mismatch is planted in the split,
    # before training validates against it.
    _, cfg_path, world_dir = workspace
    real = cli.ingest.split_validation

    def queries_in_next_zone(*args):
        *out, val_queries = real(*args)
        return (*out, dataclasses.replace(val_queries, zone_number=val_queries.zone_number + 1))

    monkeypatch.setattr(cli.ingest, "split_validation", queries_in_next_zone)
    code = main([
        "sweep", "--config", str(cfg_path),
        "--param", "train.groups_used", "--values", "1",
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(world_dir / "features.npz"),
        "--output", str(tmp_path / "sweep.csv"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    _single_error_line(err, "domain")
    assert "zone" in err


def test_partition_train_and_sweep_build_no_records(workspace, tmp_path, monkeypatch):
    # Partitioning, training and sweeping run on manifest columns: none builds an ImageRecord per row.
    _, cfg_path, world_dir = workspace

    def no_records(self):
        raise AssertionError("ManifestColumns.records was called")

    monkeypatch.setattr(ingest.ManifestColumns, "records", no_records)
    run = ["--config", str(cfg_path), "--manifest", str(world_dir / "manifest.csv")]
    part_path = tmp_path / "partition.json"
    assert main(["partition", *run, "--output", str(part_path)]) == 0
    for name, extra in (("shared", []), ("shifted", ["--query-features", str(world_dir / "query_features.npz")])):
        assert main(["train", *run, "--features", str(world_dir / "features.npz"), *extra,
                     "--partition", str(part_path), "--out-dir", str(tmp_path / name)]) == 0
    assert main(_sweep_argv(cfg_path, world_dir, "1,2", tmp_path / "sweep.csv")) == 0


@pytest.mark.parametrize("learn_p", [False, True])
def test_sweep_row_is_the_best_epoch_validation(workspace, tmp_path, monkeypatch, learn_p):
    # The sweep searches only inside training: each row is its run's best
    # epoch's validation, and that equals a fresh embed and search of the
    # split with the exported model at every eval k.
    _, cfg_path, world_dir = workspace
    real_evaluate, real_run = cli.train.evaluate, cli.train.run_training
    evaluations, runs = [], []

    def count_evaluate(*args, **kwargs):
        evaluations.append(1)
        return real_evaluate(*args, **kwargs)

    def keep_run(*args):
        state = real_run(*args)
        runs.append((args, state))
        return state

    monkeypatch.setattr(cli.train, "evaluate", count_evaluate)
    monkeypatch.setattr(cli.retrieval, "evaluate", count_evaluate)
    monkeypatch.setattr(cli.train, "run_training", keep_run)
    ks = CONFIG["eval"]["ks"]
    for param, values in (("train.groups_used", "1,2"), ("train.model.output_dim", "8,16")):
        evaluations.clear()
        runs.clear()
        output = tmp_path / f"{param}.csv"
        assert main([*_sweep_argv(cfg_path, world_dir, values, output, param),
                     "--query-features", str(world_dir / "query_features.npz"),
                     "--set", f"train.model.learn_gem_p={json.dumps(learn_p)}"]) == 0
        assert len(evaluations) == CONFIG["train"]["total_epochs"] * 2

        lines = output.read_text().splitlines()
        assert lines[0] == "param,value," + ",".join(f"recall_at_{k}" for k in ks)
        assert len(lines) == 1 + len(runs) == 3
        for line, value, ((_, store, train_cfg, val_db, val_queries, query_store), state) in zip(
            lines[1:], values.split(","), runs
        ):
            assert line.split(",")[:2] == [param, value]
            assert train_cfg.model.learn_gem_p == learn_p
            if param == "train.groups_used":
                assert train_cfg.groups_used == int(value)
            else:
                assert train_cfg.model.output_dim == state.best_model.output_dim == int(value)
            best = state.history[state.best_epoch].recall_at
            assert line.split(",")[2:] == [repr(best[k]) for k in ks]
            model, batch = state.best_model, train_cfg.batch_size
            fresh = real_evaluate(
                cli.train.embed_records(model, val_db.records(), store, batch), val_db,
                cli.train.embed_records(model, val_queries.records(), query_store, batch), val_queries,
                ks, CONFIG["eval"]["threshold_m"],
            )
            assert [best[k] for k in ks] == [fresh.recall_at[k] for k in ks]


def _sweep_argv(cfg_path, world_dir, values, output, param="train.groups_used"):
    return [
        "sweep", "--config", str(cfg_path),
        "--param", param, "--values", values,
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(world_dir / "features.npz"),
        "--output", str(output),
    ]


def _diverge(*args, **kwargs):
    raise TrainingError("loss diverged")


# A sweep that trained before rejecting its arguments ends in error[training].
@pytest.mark.parametrize("param, values, named", [
    pytest.param("train.groups_used", "1,abc", "'abc'", id="1,abc-'abc'"),
    pytest.param("train.groups_used", '1,"two"', "two", id='1,"two"-two'),
    ("groups_used", "1,2", "unknown config key(s): groups_used"),
    ("train.val_ks", "1", "unknown config key(s): train.val_ks"),
    ("train.model", '{"output_dim":16}', "train.model names a config section"),
    ("eval.threshold_m", "25,NaN", "eval.threshold_m must be float and finite, got nan"),
])
def test_sweep_rejects_bad_value_before_training(workspace, tmp_path, capsys, monkeypatch, param, values, named):
    _, cfg_path, world_dir = workspace
    monkeypatch.setattr(cli.train, "run_training", _diverge)
    capsys.readouterr()
    assert main(_sweep_argv(cfg_path, world_dir, values, tmp_path / "s.csv", param)) == 1
    err = capsys.readouterr().err
    _single_error_line(err, "config")
    assert named in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("name", ["missing_dir/s.csv", "a_dir"])
def test_sweep_rejects_unwritable_output_before_training(workspace, tmp_path, capsys, monkeypatch, name):
    _, cfg_path, world_dir = workspace
    (tmp_path / "a_dir").mkdir()
    output = tmp_path / name
    monkeypatch.setattr(cli.train, "run_training", _diverge)
    capsys.readouterr()
    assert main(_sweep_argv(cfg_path, world_dir, "1,2", output)) == 1
    err = capsys.readouterr().err
    _single_error_line(err, "output")
    assert str(output) in err


def test_failed_sweep_keeps_the_previous_output(workspace, tmp_path, capsys, monkeypatch):
    _, cfg_path, world_dir = workspace
    output = tmp_path / "s.csv"
    output.write_text("previous\n")
    monkeypatch.setattr(cli.train, "run_training", _diverge)
    capsys.readouterr()
    assert main(_sweep_argv(cfg_path, world_dir, "1", output)) == 1
    _single_error_line(capsys.readouterr().err, "training")
    assert output.read_text() == "previous\n"
    assert os.listdir(tmp_path) == ["s.csv"]


@pytest.fixture(scope="module")
def tiny_model(workspace):
    root, cfg_path, world_dir = workspace
    out_dir = root / "tiny"
    assert main([
        "train", "--config", str(cfg_path),
        "--set", "train.total_epochs=1", "--set", "train.iterations_per_epoch=2",
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(world_dir / "features.npz"),
        "--out-dir", str(out_dir),
    ]) == 0
    return out_dir / "model_best.json"


def test_eval_rejects_checkpoint_without_projection(workspace, tiny_model, tmp_path, capsys):
    _, cfg_path, world_dir = workspace
    doc = json.loads(tiny_model.read_text())
    del doc["projection"]
    checkpoint = tmp_path / "model_best.json"
    checkpoint.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main([
        "eval", "--config", str(cfg_path), "--checkpoint", str(checkpoint),
        "--db", str(world_dir / "db.csv"), "--db-features", str(world_dir / "features.npz"),
        "--queries", str(world_dir / "queries.csv"),
    ])
    assert code == 1
    _single_error_line(capsys.readouterr().err, "checkpoint")


def test_eval_rejects_checkpoint_of_another_channel_count(workspace, tiny_model, tmp_path, capsys):
    _, cfg_path, world_dir = workspace
    doc = json.loads(tiny_model.read_text())
    doc["projection"] = [row[:-1] for row in doc["projection"]]
    doc["channels"] -= 1
    checkpoint = tmp_path / "model_best.json"
    checkpoint.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main([
        "eval", "--config", str(cfg_path), "--checkpoint", str(checkpoint),
        "--db", str(world_dir / "db.csv"), "--db-features", str(world_dir / "features.npz"),
        "--queries", str(world_dir / "queries.csv"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    _single_error_line(err, "domain")
    assert f"feature maps have {doc['channels'] + 1} channels, model expects {doc['channels']}" in err


def test_eval_reports_a_bad_checkpoint_before_a_bad_store(workspace, tiny_model, tmp_path, capsys):
    # The checkpoint loads before the stores, whose maps are pooled with it as they are read.
    _, cfg_path, world_dir = workspace
    broken = tmp_path / "model_best.json"
    broken.write_text("{not json", encoding="utf-8")
    store = tmp_path / "features.npz"
    store.write_bytes(b"not a zip file")
    for checkpoint, code in ((broken, "checkpoint"), (tiny_model, "domain")):
        capsys.readouterr()
        assert main([
            "eval", "--config", str(cfg_path), "--checkpoint", str(checkpoint),
            "--db", str(world_dir / "db.csv"), "--db-features", str(store),
            "--queries", str(world_dir / "queries.csv"),
        ]) == 1
        err = capsys.readouterr().err
        _single_error_line(err, code)
        assert (str(store) in err) == (code == "domain")


@pytest.mark.parametrize("given", ["both", "neither"])
def test_eval_needs_exactly_one_of_checkpoint_and_oracle_latents(workspace, tiny_model, tmp_path, capsys, given):
    _, cfg_path, world_dir = workspace
    sources = {
        "both": ["--checkpoint", str(tiny_model), "--oracle-latents", str(world_dir / "latents.npz")],
        "neither": [],
    }[given]
    capsys.readouterr()
    code = main([
        "eval", "--config", str(cfg_path), *sources, "--db-features", str(world_dir / "features.npz"),
        "--db", str(world_dir / "db.csv"), "--queries", str(world_dir / "queries.csv"),
        "--output", str(tmp_path / "report.json"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    _single_error_line(err, "config")
    assert "exactly one of --checkpoint or --oracle-latents is required" in err
    assert os.listdir(tmp_path) == []


def test_eval_checkpoint_needs_db_features(workspace, tiny_model, capsys):
    _, cfg_path, world_dir = workspace
    code = main([
        "eval", "--config", str(cfg_path), "--checkpoint", str(tiny_model),
        "--db", str(world_dir / "db.csv"), "--queries", str(world_dir / "queries.csv"),
    ])
    assert code == 1
    _single_error_line(capsys.readouterr().err, "config")


def test_eval_rejects_db_id_missing_from_store(workspace, tiny_model, tmp_path, capsys):
    _, cfg_path, world_dir = workspace
    records = ingest.load_manifest(world_dir / "db.csv")
    db = tmp_path / "db.csv"
    ingest.save_manifest(records + [dataclasses.replace(records[0], id="ghost")], db)
    capsys.readouterr()
    code = main([
        "eval", "--config", str(cfg_path), "--checkpoint", str(tiny_model),
        "--db", str(db), "--db-features", str(world_dir / "features.npz"),
        "--queries", str(world_dir / "queries.csv"),
        "--query-features", str(world_dir / "query_features.npz"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    _single_error_line(err, "manifest")
    assert "'ghost'" in err and str(world_dir / "features.npz") in err


def _built_partition(cfg_path, world_dir):
    """The partition that ``geoloc train`` builds from the workspace manifest under ``cfg_path``."""
    cfg = load_run_config(cfg_path)
    rows = ingest.load_manifest_columns(world_dir / "manifest.csv")
    train_rows, _, _ = ingest.split_validation(rows, cfg.split.fraction, cfg.seed)
    return build_partition(train_rows, cfg.partition)


def test_train_rejects_partition_member_missing_from_store(workspace, tmp_path, capsys):
    _, cfg_path, world_dir = workspace
    part_path = tmp_path / "partition.json"
    assert main(["partition", "--config", str(cfg_path),
                 "--manifest", str(world_dir / "manifest.csv"), "--output", str(part_path)]) == 0
    part = _built_partition(cfg_path, world_dir)
    groups = used_groups(part, load_run_config(cfg_path).train)
    missing = next(part.class_members[cid][0] for g in groups for cid in part.group_classes[g])
    store = tmp_path / "features.npz"
    with np.load(world_dir / "features.npz") as full:
        np.savez(store, **{rid: full[rid] for rid in full.files if rid != missing})
    capsys.readouterr()
    code = main([
        "train", "--config", str(cfg_path),
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(store),
        "--partition", str(part_path),
        "--out-dir", str(tmp_path / "run"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    _single_error_line(err, "manifest")
    assert repr(missing) in err and str(store) in err


def test_train_names_the_record_whose_map_is_not_finite(workspace, tmp_path, capsys):
    # Epoch 0 of a one-epoch run trains group 0 only, so no step reads the
    # group-2 member; the map is still one that the run loads and pools.
    _, cfg_path, world_dir = workspace
    schedule = ["--set", "train.groups_used=4", "--set", "train.total_epochs=1"]
    part = _built_partition(cfg_path, world_dir)
    group = used_groups(part, dataclasses.replace(load_run_config(cfg_path).train, groups_used=4))[2]
    bad = part.class_members[part.group_classes[group][0]][0]
    store = tmp_path / "features.npz"
    with np.load(world_dir / "features.npz") as full:
        arrays = {rid: full[rid] for rid in full.files}
    arrays[bad][0, 0, 0] = np.nan
    np.savez(store, **arrays)
    capsys.readouterr()
    code = main([
        "train", "--config", str(cfg_path), *schedule,
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(store),
        "--out-dir", str(tmp_path / "run"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    _single_error_line(err, "domain")
    assert repr(bad) in err
    assert not (tmp_path / "run" / "model_best.json").exists()


def test_train_with_learned_p_names_the_record_whose_map_is_not_finite(workspace, tmp_path, capsys):
    # As above, with a learned exponent: no step pools the group-2 member,
    # so only the store's own check can find it.
    _, cfg_path, world_dir = workspace
    schedule = ["--set", "train.groups_used=4", "--set", "train.total_epochs=1",
                "--set", "train.model.learn_gem_p=true"]
    part = _built_partition(cfg_path, world_dir)
    group = used_groups(part, dataclasses.replace(load_run_config(cfg_path).train, groups_used=4))[2]
    bad = part.class_members[part.group_classes[group][0]][0]
    store = tmp_path / "features.npz"
    with np.load(world_dir / "features.npz") as full:
        arrays = {rid: full[rid] for rid in full.files}
    arrays[bad][0, 0, 0] = np.nan
    np.savez(store, **arrays)
    capsys.readouterr()
    code = main([
        "train", "--config", str(cfg_path), *schedule,
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(store),
        "--out-dir", str(tmp_path / "run"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    _single_error_line(err, "domain")
    assert repr(bad) in err and str(store) in err
    assert not (tmp_path / "run" / "model_best.json").exists()


_NOT_CHW = {"C,H": lambda m: m[:, :, 0], "1,C,H,W": lambda m: m[None], "C,0,0": lambda m: m[:, :0, :0]}


@pytest.mark.parametrize(
    "shape, learn_p",
    # A learned exponent loads the maps unpooled, so run_training's own store check must name the member shape.
    [(shape, learn_p) for learn_p in (False, True) for shape in _NOT_CHW],
    ids=[shape + ("-learned-p" if learn_p else "") for learn_p in (False, True) for shape in _NOT_CHW],
)
def test_train_rejects_a_store_of_maps_that_are_not_chw(workspace, tmp_path, capsys, shape, learn_p):
    _, cfg_path, world_dir = workspace
    store = tmp_path / "features.npz"
    with np.load(world_dir / "features.npz") as full:
        np.savez(store, **{rid: _NOT_CHW[shape](full[rid]) for rid in full.files})
    capsys.readouterr()
    code = main([
        "train", "--config", str(cfg_path),
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(store),
        "--out-dir", str(tmp_path / "run"),
        "--set", f"train.model.learn_gem_p={str(learn_p).lower()}",
    ])
    assert code == 1
    err = capsys.readouterr().err
    _single_error_line(err, "domain")
    assert "(C, H, W)" in err
    with np.load(store) as stored:
        assert f"got shape {stored[stored.files[0]].shape}" in err
    assert not (tmp_path / "run" / "model_best.json").exists()


@pytest.mark.parametrize(
    "reshape", [lambda m: m[:, :, 0], lambda m: m[None], lambda m: m[:, :0, :0]], ids=["C,H", "1,C,H,W", "C,0,0"]
)
def test_eval_rejects_a_store_of_maps_that_are_not_chw(workspace, tiny_model, tmp_path, capsys, reshape):
    # Eval pools with the reduce train uses, so it names the member's shape, not the staging chunk's.
    _, cfg_path, world_dir = workspace
    store = tmp_path / "features.npz"
    with np.load(world_dir / "features.npz") as full:
        np.savez(store, **{rid: reshape(full[rid]) for rid in full.files})
    capsys.readouterr()
    code = main([
        "eval", "--config", str(cfg_path), "--checkpoint", str(tiny_model),
        "--db", str(world_dir / "db.csv"), "--db-features", str(store),
        "--queries", str(world_dir / "queries.csv"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    _single_error_line(err, "domain")
    assert "(C, H, W)" in err
    with np.load(store) as stored:
        assert f"got shape {stored[stored.files[0]].shape}" in err


def test_eval_reports_a_gem_exponent_that_overflows(workspace, tiny_model, tmp_path, capsys):
    # 1000th powers of the world's maps overflow float64; the exponent is at fault, not the finite maps.
    _, cfg_path, world_dir = workspace
    doc = json.loads(tiny_model.read_text())
    assert doc["pooling"] == "gem"
    doc["gem_p"] = 1000.0
    checkpoint = tmp_path / "model_best.json"
    checkpoint.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main([
        "eval", "--config", str(cfg_path), "--checkpoint", str(checkpoint),
        "--db", str(world_dir / "db.csv"), "--db-features", str(world_dir / "features.npz"),
        "--queries", str(world_dir / "queries.csv"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    _single_error_line(err, "domain")
    assert "gem exponent 1000.0 overflows float64" in err


def test_eval_reports_a_checkpoint_that_overflows_float64(workspace, tiny_model, tmp_path, capsys):
    # A finite but huge projection overflows the descriptor norms; the checkpoint is at fault, in one line.
    _, cfg_path, world_dir = workspace
    doc = json.loads(tiny_model.read_text())
    doc["projection"] = (np.array(doc["projection"]) * 1e300).tolist()
    checkpoint = tmp_path / "model_best.json"
    checkpoint.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main([
        "eval", "--config", str(cfg_path), "--checkpoint", str(checkpoint),
        "--db", str(world_dir / "db.csv"), "--db-features", str(world_dir / "features.npz"),
        "--queries", str(world_dir / "queries.csv"), "--output", str(tmp_path / "report.json"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    _single_error_line(err, "checkpoint")
    assert str(checkpoint) in err and "overflow" in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("learn_p", [False, True])
def test_train_reports_a_gem_exponent_that_overflows(workspace, tmp_path, capsys, learn_p):
    _, cfg_path, world_dir = workspace
    capsys.readouterr()
    code = main([
        "train", "--config", str(cfg_path),
        "--set", "train.model.gem_p=1000", "--set", f"train.model.learn_gem_p={str(learn_p).lower()}",
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(world_dir / "features.npz"),
        "--out-dir", str(tmp_path / "run"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    _single_error_line(err, "domain")
    assert "gem exponent 1000.0 overflows float64" in err
    assert not (tmp_path / "run" / "model_best.json").exists()


@pytest.mark.parametrize("rate", ["1e300", "1e308"])
def test_an_exploding_learning_rate_ends_training_with_one_error_line(workspace, tmp_path, capsys, rate):
    # 1e300 steps overflow the descriptor norms of the next forward, 1e308 overflows the Adam update itself.
    _, cfg_path, world_dir = workspace
    errstate = np.geterr()
    capsys.readouterr()
    code = main([
        "train", "--config", str(cfg_path), "--set", f"train.learning_rate={rate}",
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(world_dir / "features.npz"),
        "--out-dir", str(tmp_path / "run"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    _single_error_line(err, "training")
    assert "training diverged in epoch 0: overflow" in err
    assert not (tmp_path / "run" / "model_best.json").exists()
    assert np.geterr() == errstate


@pytest.mark.parametrize("learn_p", [False, True])
def test_train_rejects_query_maps_with_another_channel_count(workspace, tmp_path, capsys, learn_p):
    # 6 query channels against the database's 16; another H x W is accepted,
    # since pooling removes it.
    _, cfg_path, world_dir = workspace
    schedule = ["--set", f"train.model.learn_gem_p={str(learn_p).lower()}"]
    store = tmp_path / "query_features.npz"
    with np.load(world_dir / "query_features.npz") as full:
        np.savez(store, **{rid: full[rid][:6] for rid in full.files})
    capsys.readouterr()
    code = main([
        "train", "--config", str(cfg_path), *schedule,
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(world_dir / "features.npz"),
        "--query-features", str(store),
        "--out-dir", str(tmp_path / "run"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    _single_error_line(err, "domain")
    assert "6 channels" in err and "16" in err
    assert not (tmp_path / "run" / "model_best.json").exists()


def test_fixed_p_training_memory_does_not_grow_with_the_map_size(tmp_path, traced_peak):
    # Classification training keeps no per-image cache, and with a fixed
    # exponent a run reads pooled rows only, so it never holds the maps. Two
    # worlds equal but for H x W must peak alike, within what pooling one
    # staging chunk of the larger maps holds at once (GeM's float64 cast,
    # clamp and power) plus 1 MiB. The bound is fixed in advance, not fitted
    # to a reading. The run uses all 8 groups, so it reads every map: the
    # larger world's map block alone is 8 MiB.
    peaks = {}
    for side in (4, 16):
        raw = json.loads(json.dumps(CONFIG))
        raw["train"]["groups_used"] = 8
        raw["city"]["feature_map_shape"] = [16, side, side]
        cfg = cli.run_config_from_dict(raw)
        paths = cli.synth.write_world(cli.synth.generate_city(cfg.city), tmp_path / f"side{side}")
        state, peaks[side] = traced_peak(
            lambda: cli._run_training_from_files(cfg, str(paths["manifest"]), str(paths["features"]), None)
        )
        assert state.best_model is not None
    channels, side = 16, 16
    bound = 3 * cli.synth.REDUCE_CHUNK_ROWS * channels * side * side * 8 + (1 << 20)
    growth = peaks[16] - peaks[4]
    assert growth < bound, f"peak grew {growth / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"


def test_fixed_p_pooling_holds_one_float64_chunk(tmp_path, traced_peak):
    # The worlds and the growth reading of the test above, with the bound of one pooling buffer:
    # GeM casts and clamps a staged chunk into one float64 array and raises it to p in place, so
    # the larger maps add one float64 chunk, the float32 staging chunk and one chunk's read span,
    # plus 512 KiB. The bound was fixed before the first run.
    peaks = {}
    for side in (4, 16):
        raw = json.loads(json.dumps(CONFIG))
        raw["train"]["groups_used"] = 8
        raw["city"]["feature_map_shape"] = [16, side, side]
        cfg = cli.run_config_from_dict(raw)
        paths = cli.synth.write_world(cli.synth.generate_city(cfg.city), tmp_path / f"side{side}")
        state, peaks[side] = traced_peak(
            lambda: cli._run_training_from_files(cfg, str(paths["manifest"]), str(paths["features"]), None)
        )
        assert state.best_model is not None
    channels, side = 16, 16
    bound = cli.synth.REDUCE_CHUNK_ROWS * channels * side * side * (8 + 4 + 4) + (512 << 10)
    growth = peaks[16] - peaks[4]
    assert growth < bound, f"peak grew {growth / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"


def test_training_memory_per_training_image_is_about_one_pooled_row(tmp_path, traced_peak):
    # Classification training keeps no descriptor cache (the paper's "Train-time memory footprint"):
    # per training image it holds that image's pooled row, its id and its manifest cells. Runs at the
    # same 20 classes and the same 60 + 60 validation rows differ only in their training images; the
    # peak may grow by at most C * 8 + 512 B per added training image (640 B at C = 16, D = 64). The
    # bound was fixed before the first run, not fitted to a reading.
    channels, dim, slots, n_val = 16, 64, 20, 60
    raw = json.loads(json.dumps(CONFIG))
    raw["partition"].update(cell_stride=1, heading_stride=1)
    raw["train"].update(groups_used=1, model={"output_dim": dim, "pooling": "gem", "gem_p": 3.0})
    peaks = {}
    for n in (300, 600, 1800):  # the first run of a process also makes one-off allocations
        ids = [f"img{i:05d}" for i in range(n)]
        # Slot s lies in its own 10 m cell and 30-degree heading bin, so every size has the same classes.
        rows = [f"{rid},{10 * (i % slots % 5) + 5}.0,{10 * (i % slots // 5) + 5}.0,15.0" for i, rid in enumerate(ids)]
        manifest = tmp_path / f"manifest{n}.csv"
        manifest.write_text("id,east,north,heading\n" + "\n".join(rows) + "\n", encoding="utf-8")
        store = tmp_path / f"features{n}.npz"
        maps = np.random.default_rng(n).random((n, channels, 2, 2), dtype=np.float32)
        np.savez(store, **dict(zip(ids, maps)))
        raw["split"]["fraction"] = n_val / n
        cfg_path = tmp_path / f"run{n}.json"
        cfg_path.write_text(json.dumps(raw), encoding="utf-8")
        argv = ["train", "--config", str(cfg_path), "--manifest", str(manifest), "--features", str(store),
                "--out-dir", str(tmp_path / f"run{n}")]
        code, peaks[n] = traced_peak(lambda: main(argv))
        assert code == 0
    train_images = {n: n - 2 * n_val for n in peaks}
    slope = (peaks[1800] - peaks[600]) / (train_images[1800] - train_images[600])
    assert slope <= channels * 8 + 512, f"training's peak grew {slope:.0f} B per training image"


def test_train_accepts_query_maps_of_another_size(workspace, tmp_path):
    _, cfg_path, world_dir = workspace
    store = tmp_path / "query_features.npz"
    with np.load(world_dir / "query_features.npz") as full:
        np.savez(store, **{rid: np.repeat(full[rid], 2, axis=2) for rid in full.files})
    assert main([
        "train", "--config", str(cfg_path),
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(world_dir / "features.npz"),
        "--query-features", str(store),
        "--out-dir", str(tmp_path / "run"),
    ]) == 0
    assert (tmp_path / "run" / "model_best.json").exists()


def test_eval_rejects_a_store_member_with_a_mangled_npy_header(workspace, tiny_model, tmp_path, capsys):
    # numpy's header reader raises a tokenizer error on this dict (TokenError
    # or SyntaxError, by Python version); the loader must turn it into one line.
    _, cfg_path, world_dir = workspace
    db_ids = [r.id for r in ingest.load_manifest(world_dir / "db.csv")]
    store = tmp_path / "db_features.npz"
    with np.load(world_dir / "features.npz") as full:
        np.savez(store, **{rid: full[rid] for rid in db_ids})
    blob = store.read_bytes()
    at = blob.index(b"{", zipfile.ZipFile(io.BytesIO(blob)).getinfo(f"{db_ids[1]}.npy").header_offset)
    store.write_bytes(blob[:at] + b"z" + blob[at + 1 :])
    capsys.readouterr()
    rc = main([
        "eval", "--config", str(cfg_path), "--checkpoint", str(tiny_model),
        "--db", str(world_dir / "db.csv"), "--db-features", str(store),
        "--queries", str(world_dir / "queries.csv"),
        "--query-features", str(world_dir / "query_features.npz"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    _single_error_line(err, "domain")
    assert str(store) in err


def _flip_member_byte(blob: bytes, member: str) -> bytes:
    """Flip the last data byte of one stored zip member, leaving its CRC stale."""
    info = zipfile.ZipFile(io.BytesIO(blob)).getinfo(member)
    name_len, extra_len = struct.unpack_from("<HH", blob, info.header_offset + 26)
    last = info.header_offset + 30 + name_len + extra_len + info.compress_size - 1
    return blob[:last] + bytes([blob[last] ^ 0xFF]) + blob[last + 1 :]


def _bad_store(kind: str, world_dir, path) -> str:
    """A database store that ``geoloc eval`` must reject; returns the expected error code."""
    db_ids = [r.id for r in ingest.load_manifest(world_dir / "db.csv")]
    source = world_dir / "features.npz"
    if kind == "crc":
        path.write_bytes(_flip_member_byte(source.read_bytes(), f"{db_ids[3]}.npy"))
        return "domain"
    if kind == "truncated":
        blob = source.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        return "domain"
    with np.load(source) as store:
        arrays = {rid: store[rid] for rid in db_ids}
    if kind == "missing":
        del arrays[db_ids[5]]
        code = "manifest"
    elif kind == "object":
        arrays[db_ids[2]] = np.array([{"not": "a map"}], dtype=object)
        code = "domain"
    else:  # mixed shapes
        arrays[db_ids[2]] = arrays[db_ids[2]][:, :1]
        code = "domain"
    np.savez(path, **arrays)
    return code


@pytest.mark.parametrize("kind", ["missing", "crc", "truncated", "object", "mixed"])
def test_eval_rejects_bad_feature_store_with_one_line(workspace, tiny_model, tmp_path, capsys, kind):
    _, cfg_path, world_dir = workspace
    store = tmp_path / "bad.npz"
    code = _bad_store(kind, world_dir, store)
    capsys.readouterr()
    rc = main([
        "eval", "--config", str(cfg_path), "--checkpoint", str(tiny_model),
        "--db", str(world_dir / "db.csv"), "--db-features", str(store),
        "--queries", str(world_dir / "queries.csv"),
        "--query-features", str(world_dir / "query_features.npz"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    _single_error_line(err, code)
    assert str(store) in err


def test_train_rejects_partition_built_with_another_partition_config(workspace, tmp_path, capsys):
    _, cfg_path, world_dir = workspace
    part_path = tmp_path / "p.json"
    assert main(["partition", "--config", str(cfg_path), "--set", "partition.min_images_per_class=3",
                 "--manifest", str(world_dir / "manifest.csv"), "--output", str(part_path)]) == 0
    capsys.readouterr()
    code = main([
        "train", "--config", str(cfg_path),
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(world_dir / "features.npz"),
        "--partition", str(part_path),
        "--out-dir", str(tmp_path / "run"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    _single_error_line(err, "config")
    assert "min_images_per_class 3 vs 2" in err


def test_train_reads_the_partition_file_once(workspace, tmp_path, capsys, monkeypatch):
    _, cfg_path, world_dir = workspace
    part_path = tmp_path / "p.json"
    assert main(["partition", "--config", str(cfg_path),
                 "--manifest", str(world_dir / "manifest.csv"), "--output", str(part_path)]) == 0
    reads = []
    real_read_bytes = Path.read_bytes

    def counting_read_bytes(self):
        if self == part_path:
            reads.append(self)
        return real_read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
    monkeypatch.setattr(cli.train, "run_training", _diverge)
    capsys.readouterr()
    code = main([
        "train", "--config", str(cfg_path),
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(world_dir / "features.npz"),
        "--partition", str(part_path),
        "--out-dir", str(tmp_path / "run"),
    ])
    assert code == 1
    _single_error_line(capsys.readouterr().err, "training")
    assert len(reads) == 1


def _non_utf8(blob: bytes) -> bytes:
    return blob[:2] + b"\xff" + blob[2:]


@pytest.mark.parametrize("kind", ["config.yaml", "config.json", "manifest", "partition", "checkpoint"])
def test_non_utf8_input_gives_one_error_line(workspace, tiny_model, tmp_path, capsys, kind):
    _, cfg_path, world_dir = workspace
    manifest = str(world_dir / "manifest.csv")
    if kind.startswith("config"):
        bad = tmp_path / kind
        bad.write_bytes(_non_utf8(json.dumps(CONFIG).encode("utf-8")))
        argv, code = ["partition", "--config", str(bad), "--manifest", manifest,
                      "--output", str(tmp_path / "p.json")], "config"
    elif kind == "manifest":
        bad = tmp_path / "manifest.csv"
        bad.write_bytes(_non_utf8((world_dir / "manifest.csv").read_bytes()))
        argv, code = ["convert", "--input", str(bad), "--output", str(tmp_path / "out.csv")], "manifest"
    elif kind == "partition":
        bad = tmp_path / "partition.json"
        assert main(["partition", "--config", str(cfg_path), "--manifest", manifest, "--output", str(bad)]) == 0
        bad.write_bytes(_non_utf8(bad.read_bytes()))
        argv, code = ["train", "--config", str(cfg_path), "--manifest", manifest,
                      "--features", str(world_dir / "features.npz"), "--partition", str(bad),
                      "--out-dir", str(tmp_path / "run")], "partition"
    else:
        bad = tmp_path / "model_best.json"
        bad.write_bytes(_non_utf8(tiny_model.read_bytes()))
        argv, code = ["eval", "--config", str(cfg_path), "--checkpoint", str(bad),
                      "--db", str(world_dir / "db.csv"), "--db-features", str(world_dir / "features.npz"),
                      "--queries", str(world_dir / "queries.csv")], "checkpoint"
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    _single_error_line(err, code)
    assert str(bad) in err


@pytest.mark.parametrize("command", ["eval", "partition", "convert"])
def test_unwritable_output_gives_one_error_line(workspace, tmp_path, capsys, command):
    _, cfg_path, world_dir = workspace
    output = tmp_path / "missing_dir" / "out"
    argv = {
        "eval": ["eval", "--config", str(cfg_path), "--oracle-latents", str(world_dir / "latents.npz"),
                 "--db", str(world_dir / "db.csv"), "--queries", str(world_dir / "queries.csv")],
        "partition": ["partition", "--config", str(cfg_path), "--manifest", str(world_dir / "manifest.csv")],
        "convert": ["convert", "--input", str(world_dir / "db.csv")],
    }[command]
    capsys.readouterr()
    assert main(argv + ["--output", str(output)]) == 1
    err = capsys.readouterr().err
    _single_error_line(err, "output")
    assert str(output) in err
    assert not (tmp_path / "missing_dir").exists()


def test_removed_use_bias_key_rejected(workspace, tmp_path, capsys):
    _, cfg_path, world_dir = workspace
    code = main([
        "partition", "--config", str(cfg_path), "--set", "train.model.use_bias=false",
        "--manifest", str(world_dir / "manifest.csv"), "--output", str(tmp_path / "p.json"),
    ])
    assert code == 1
    assert capsys.readouterr().err == "error[config]: unknown config key(s): train.model.use_bias\n"


@pytest.mark.parametrize("command", ["train", "synth"])
def test_out_dir_that_is_a_file_gives_one_error_line(workspace, tmp_path, capsys, command):
    _, cfg_path, world_dir = workspace
    out_dir = tmp_path / "taken"
    out_dir.write_text("a file, not a directory\n")
    argv = ["synth", "--config", str(cfg_path)]
    if command == "train":
        argv = ["train", "--config", str(cfg_path), "--manifest", str(world_dir / "manifest.csv"),
                "--features", str(world_dir / "features.npz")]
    capsys.readouterr()
    assert main(argv + ["--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    _single_error_line(err, "output")
    assert str(out_dir) in err


def _patch_central_entry(blob: bytes, member: str, offset: int, value: int) -> bytes:
    """Overwrite one little-endian u16 field of a member's central directory entry."""
    name = member.encode("utf-8")
    at = blob.find(b"PK\x01\x02")
    while blob[at + 46 : at + 46 + struct.unpack_from("<H", blob, at + 28)[0]] != name:
        at = blob.find(b"PK\x01\x02", at + 4)
    return blob[: at + offset] + struct.pack("<H", value) + blob[at + offset + 2 :]


@pytest.mark.parametrize("field, offset, value", [("encrypted", 8, 1), ("compression", 10, 99), ("version", 6, 64)])
def test_eval_rejects_store_member_with_corrupt_header(workspace, tiny_model, tmp_path, capsys, field, offset, value):
    _, cfg_path, world_dir = workspace
    db_ids = [r.id for r in ingest.load_manifest(world_dir / "db.csv")]
    store = tmp_path / "bad.npz"
    store.write_bytes(_patch_central_entry((world_dir / "features.npz").read_bytes(), f"{db_ids[1]}.npy", offset, value))
    capsys.readouterr()
    rc = main([
        "eval", "--config", str(cfg_path), "--checkpoint", str(tiny_model),
        "--db", str(world_dir / "db.csv"), "--db-features", str(store),
        "--queries", str(world_dir / "queries.csv"),
        "--query-features", str(world_dir / "query_features.npz"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    _single_error_line(err, "domain")
    assert str(store) in err


def test_eval_rejects_store_member_whose_local_name_differs(workspace, tiny_model, tmp_path, capsys):
    # The central directory still names the member; only its local header is renamed.
    _, cfg_path, world_dir = workspace
    db_ids = [r.id for r in ingest.load_manifest(world_dir / "db.csv")]
    blob = (world_dir / "features.npz").read_bytes()
    at = zipfile.ZipFile(io.BytesIO(blob)).getinfo(f"{db_ids[1]}.npy").header_offset + 30
    assert blob[at : at + 1] == b"p"
    store = tmp_path / "bad.npz"
    store.write_bytes(blob[:at] + b"q" + blob[at + 1 :])
    capsys.readouterr()
    rc = main([
        "eval", "--config", str(cfg_path), "--checkpoint", str(tiny_model),
        "--db", str(world_dir / "db.csv"), "--db-features", str(store),
        "--queries", str(world_dir / "queries.csv"),
        "--query-features", str(world_dir / "query_features.npz"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    _single_error_line(err, "domain")
    assert str(store) in err and f"{db_ids[1]}.npy" in err


DERIVED_KEYS = ["train.val_threshold_m", "train.val_ks", "city.cell_size_m", "city.heading_bin_deg"]
# Adam's decay rates and epsilon are constants of the trainer, not settings.
ADAM_KEYS = ["train.adam_beta1", "train.adam_beta2", "train.adam_eps"]


@pytest.mark.parametrize("key", DERIVED_KEYS + ADAM_KEYS)
@pytest.mark.parametrize("where", ["file", "set"])
def test_derived_config_key_rejected(workspace, tmp_path, capsys, key, where):
    _, cfg_path, world_dir = workspace
    section, name = key.split(".")
    if where == "file":
        doc = json.loads(json.dumps(CONFIG))
        doc[section][name] = 25.0
        cfg_path = tmp_path / "run.yaml"
        cfg_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    extra = ["--set", f"{key}=25.0"] if where == "set" else []
    capsys.readouterr()
    code = main(["partition", "--config", str(cfg_path), *extra,
                 "--manifest", str(world_dir / "manifest.csv"), "--output", str(tmp_path / "p.json")])
    assert code == 1
    assert capsys.readouterr().err == f"error[config]: unknown config key(s): {key}\n"
    assert not (tmp_path / "p.json").exists()


def test_validation_scores_at_the_eval_threshold(workspace, tmp_path, monkeypatch):
    _, cfg_path, world_dir = workspace
    thresholds = []
    real_evaluate = cli.train.evaluate

    def spy(*args, **kwargs):
        thresholds.append(args[5])
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(cli.train, "evaluate", spy)
    out_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--set", "eval.threshold_m=7.5",
                 "--manifest", str(world_dir / "manifest.csv"),
                 "--features", str(world_dir / "features.npz"), "--out-dir", str(out_dir)]) == 0
    assert thresholds == [7.5] * CONFIG["train"]["total_epochs"]
    echo = json.loads((out_dir / "model_best.json").read_text())["config"]
    assert echo["eval"]["threshold_m"] == 7.5
    assert "val_threshold_m" not in echo["train"]


@pytest.mark.parametrize("cell", [20.0, 25.0])
def test_synth_aligns_the_world_to_the_partition_grid(workspace, tmp_path, cell):
    _, cfg_path, _ = workspace
    world_dir = tmp_path / "world"
    assert main(["synth", "--config", str(cfg_path), "--set", f"partition.cell_size_m={cell}",
                 "--out-dir", str(world_dir)]) == 0
    records = ingest.load_manifest(world_dir / "manifest.csv")
    pcfg = PartitionConfig(**{**CONFIG["partition"], "cell_size_m": cell})
    part = build_partition(ingest.load_manifest_columns(world_dir / "manifest.csv"), pcfg)
    assert oracle_pairwise_check(SimpleNamespace(records=records), part) == []
    # Every image of one (place, heading) slot lands in the slot's one class.
    class_of = {rid: cid for cid, members in part.class_members.items() for rid in members}
    slots = {}
    for r in records:
        slots.setdefault(r.id[:8], set()).add(class_of[r.id])  # ids read p<place>h<slot>i<image>
    assert all(len(classes) == 1 for classes in slots.values())
    assert len({next(iter(c)) for c in slots.values()}) == len(slots)
    assert "cell_size_m" not in json.loads((world_dir / "world.json").read_text())["config"]["city"]


def test_train_with_a_coarse_cell_is_not_held_to_the_default_world(workspace, tmp_path):
    # The default city section places worlds 10 m apart; a 25 m cell only
    # matters to a world that synth generates, not to training on a manifest.
    _, _, world_dir = workspace
    doc = {k: v for k, v in CONFIG.items() if k != "city"}
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["train", "--config", str(cfg_path), "--set", "partition.cell_size_m=25",
                 "--manifest", str(world_dir / "manifest.csv"),
                 "--features", str(world_dir / "features.npz"), "--out-dir", str(tmp_path / "run")]) == 0


def test_int_and_float_spellings_of_a_float_value_write_the_same_bytes(workspace, tmp_path, capsys):
    _, cfg_path, world_dir = workspace
    spellings = ("10", "10.0")
    for cell in spellings:
        assert main(["partition", "--config", str(cfg_path), "--set", f"partition.cell_size_m={cell}",
                     "--manifest", str(world_dir / "manifest.csv"),
                     "--output", str(tmp_path / f"partition_{cell}.json")]) == 0
    for cell, other in zip(spellings, reversed(spellings)):
        run = ["--config", str(cfg_path), "--set", f"partition.cell_size_m={cell}"]
        assert main(["train", *run, "--manifest", str(world_dir / "manifest.csv"),
                     "--features", str(world_dir / "features.npz"),
                     "--partition", str(tmp_path / f"partition_{other}.json"),
                     "--out-dir", str(tmp_path / f"run_{cell}")]) == 0
        assert main(["eval", *run, "--checkpoint", str(tmp_path / f"run_{cell}" / "model_best.json"),
                     "--db", str(world_dir / "db.csv"), "--db-features", str(world_dir / "features.npz"),
                     "--queries", str(world_dir / "queries.csv"),
                     "--query-features", str(world_dir / "query_features.npz"),
                     "--output", str(tmp_path / f"report_{cell}.json")]) == 0
    capsys.readouterr()
    for name in ("partition_{}.json", "run_{}/model_best.json", "report_{}.json"):
        first, second = (tmp_path / name.format(cell) for cell in spellings)
        assert first.read_bytes() == second.read_bytes(), name
    assert json.loads(first.read_text())["config"]["partition"]["cell_size_m"] == 10.0


def _all_records(doc, world_dir):
    rows = ingest.load_manifest_columns(world_dir / "manifest.csv")
    whole = partition_to_dict(build_partition(rows, PartitionConfig(**CONFIG["partition"])))
    doc.update({k: whole[k] for k in ("classes", "discarded_classes", "discarded_images")})


def _duplicate_member(doc, world_dir):
    first, second = doc["classes"][:2]
    second["members"].append(first["members"][0])


def _move_class(doc, world_dir):
    doc["classes"][-1]["cell"] = [10_000, 10_000, 0]


def _move_member(doc, world_dir):
    first, second = doc["classes"][:2]
    second["members"].append(first["members"].pop())


@pytest.mark.parametrize("mutate", [_all_records, _duplicate_member, _move_class, _move_member],
                         ids=["all-records", "duplicated-member", "moved-class", "moved-member"])
def test_train_rejects_partition_that_differs_from_its_manifest(workspace, tmp_path, capsys, mutate):
    _, cfg_path, world_dir = workspace
    part_path = tmp_path / "p.json"
    assert main(["partition", "--config", str(cfg_path),
                 "--manifest", str(world_dir / "manifest.csv"), "--output", str(part_path)]) == 0
    doc = json.loads(part_path.read_text())
    mutate(doc, world_dir)
    part_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["train", "--config", str(cfg_path), "--manifest", str(world_dir / "manifest.csv"),
                 "--features", str(world_dir / "features.npz"), "--partition", str(part_path),
                 "--out-dir", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    _single_error_line(err, "config")
    assert "is not the partition of this run's manifest, split and config (class [" in err


def test_convert_rejects_a_cell_over_the_csv_field_limit(tmp_path, capsys):
    src = tmp_path / "long.csv"
    src.write_text(f"id,east,north,heading\n{'a' * 140_000},1,2,3\n")
    capsys.readouterr()
    assert main(["convert", "--input", str(src), "--output", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    _single_error_line(err, "manifest")
    assert str(src) in err and "field limit" in err
    assert not (tmp_path / "out.csv").exists()


# tests/test_ingest.py covers every out-of-range case; here each ends in one error line.
@pytest.mark.parametrize("row, problem", [("b,1,2,3,33.7,north,,", "zone"), ("b,1,2,3,10,north,95,10", "latitude")])
def test_convert_rejects_out_of_range_zone_or_latitude(tmp_path, capsys, row, problem):
    src = tmp_path / "bad.csv"
    src.write_text(f"id,east,north,heading,zone,hemisphere,lat,lon\na,1,2,3,10,north,,\n{row}\n")
    capsys.readouterr()
    assert main(["convert", "--input", str(src), "--output", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    _single_error_line(err, "manifest")
    assert err.startswith(f"error[manifest]: line 3: {problem}")


def test_eval_memory_per_database_row_is_about_one_descriptor(tmp_path, traced_peak):
    # The paper keeps every database descriptor in memory at retrieval ("Descriptors dimension"),
    # so that is what eval should hold per row, plus its record. Two evals of one store of
    # C = 256 maps into D = 64 descriptors differ only in their database rows; the peak may grow
    # by D * 8 + 384 B per added row (pooled rows alone would add C * 8 = 2 KiB). The bound is
    # fixed in advance, not fitted to a reading. 300 queries fill a whole search block at both sizes.
    channels, dim, sizes, n_queries = 256, 64, (4000, 12000), 300
    ids = [f"r{i:05d}" for i in range(sizes[-1] + n_queries)]
    store = tmp_path / "features.npz"
    base = np.random.default_rng(41).random((channels, 2, 2), dtype=np.float32)
    with zipfile.ZipFile(store, "w") as zf:
        for i, rid in enumerate(ids):
            with zf.open(f"{rid}.npy", "w") as fh:
                np.lib.format.write_array(fh, base + np.float32(i % 89))

    def manifest(path, rows):
        lines = [f"{rid},{i % 100}.0,{i // 100}.0,0.0\n" for i, rid in rows]
        path.write_text("id,east,north,heading\n" + "".join(lines), encoding="utf-8")
        return str(path)

    checkpoint = tmp_path / "model.json"
    cli.embed.save_model(cli.embed.init_model(channels, cli.embed.ModelConfig(output_dim=dim), 3), checkpoint)
    queries = manifest(tmp_path / "queries.csv", list(enumerate(ids))[sizes[-1] :])
    peaks = {}
    for n in sizes:
        argv = [
            "eval", "--checkpoint", str(checkpoint), "--queries", queries,
            "--db", manifest(tmp_path / f"db{n}.csv", list(enumerate(ids[:n]))), "--db-features", str(store),
        ]
        code, peaks[n] = traced_peak(lambda: main(argv))
        assert code == 0
    slope = (peaks[sizes[1]] - peaks[sizes[0]]) / (sizes[1] - sizes[0])
    assert slope <= dim * 8 + 384, f"eval's peak grew {slope:.0f} B per database row"


def test_eval_memory_per_database_row_is_a_descriptor_and_an_id(tmp_path, traced_peak):
    # Built as the test above, with a bound fixed in advance: eval holds a database row's descriptor,
    # its id and its position as arrays and columns, not a record per row, so the peak may grow by
    # D * 8 + 192 B per added row (704 B at D = 64).
    channels, dim, sizes, n_queries = 256, 64, (4000, 12000), 300
    ids = [f"r{i:05d}" for i in range(sizes[-1] + n_queries)]
    store = tmp_path / "features.npz"
    base = np.random.default_rng(41).random((channels, 2, 2), dtype=np.float32)
    with zipfile.ZipFile(store, "w") as zf:
        for i, rid in enumerate(ids):
            with zf.open(f"{rid}.npy", "w") as fh:
                np.lib.format.write_array(fh, base + np.float32(i % 89))

    def manifest(path, rows):
        lines = [f"{rid},{i % 100}.0,{i // 100}.0,0.0\n" for i, rid in rows]
        path.write_text("id,east,north,heading\n" + "".join(lines), encoding="utf-8")
        return str(path)

    checkpoint = tmp_path / "model.json"
    cli.embed.save_model(cli.embed.init_model(channels, cli.embed.ModelConfig(output_dim=dim), 3), checkpoint)
    queries = manifest(tmp_path / "queries.csv", list(enumerate(ids))[sizes[-1] :])
    peaks = {}
    for n in sizes:
        argv = [
            "eval", "--checkpoint", str(checkpoint), "--queries", queries,
            "--db", manifest(tmp_path / f"db{n}.csv", list(enumerate(ids[:n]))), "--db-features", str(store),
        ]
        code, peaks[n] = traced_peak(lambda: main(argv))
        assert code == 0
    slope = (peaks[sizes[1]] - peaks[sizes[0]]) / (sizes[1] - sizes[0])
    assert slope <= dim * 8 + 192, f"eval's peak grew {slope:.0f} B per database row"


def test_manifests_with_a_utf8_byte_order_mark_convert_and_evaluate(workspace, tmp_path, capsys):
    # Spreadsheet programs save "CSV UTF-8" with a leading byte order mark; it is not part of the first column's name.
    _, cfg_path, world_dir = workspace
    marked = {}
    for name in ("db.csv", "queries.csv"):
        marked[name] = tmp_path / name
        marked[name].write_bytes(b"\xef\xbb\xbf" + (world_dir / name).read_bytes())
    assert ingest.load_manifest(marked["db.csv"]) == ingest.load_manifest(world_dir / "db.csv")
    capsys.readouterr()
    assert main(["convert", "--input", str(marked["db.csv"]), "--output", str(tmp_path / "out.csv")]) == 0
    assert main(["convert", "--input", str(world_dir / "db.csv"), "--output", str(tmp_path / "plain.csv")]) == 0
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    reports = []
    for db, queries in ((marked["db.csv"], marked["queries.csv"]), (world_dir / "db.csv", world_dir / "queries.csv")):
        output = tmp_path / f"report{len(reports)}.json"
        assert main(["eval", "--config", str(cfg_path), "--oracle-latents", str(world_dir / "latents.npz"),
                     "--db", str(db), "--queries", str(queries), "--output", str(output)]) == 0
        reports.append(output.read_bytes())
    assert reports[0] == reports[1]
    assert capsys.readouterr().err == ""
