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

from geoloc import cli, ingest
from geoloc.cli import main
from geoloc.config import load_run_config
from geoloc.errors import TrainingError
from geoloc.partition import PartitionConfig, build_partition, load_partition, partition_to_dict
from geoloc.train import used_groups
from geoloc.synth import oracle_pairwise_check

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
        "--param", "groups_used", "--values", "1,2",
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(world_dir / "features.npz"),
        "--query-features", str(world_dir / "query_features.npz"),
        "--output", str(out),
    ]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("param,value,recall_at_1")
    assert len(lines) == 3
    assert not out.with_suffix(".meta.json").exists()


def test_sweep_row_reproducible_from_its_own_train_run(workspace, tmp_path, capsys):
    # The db.csv/queries.csv split written by synth comes from the same seed
    # and fraction, so a direct train + eval reproduces the sweep row.
    _, cfg_path, world_dir = workspace
    overrides = ["--set", "train.total_epochs=1", "--set", "train.iterations_per_epoch=5"]
    sweep_out = tmp_path / "one.csv"
    assert main([
        "sweep", "--config", str(cfg_path), *overrides,
        "--param", "groups_used", "--values", "2",
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


def test_console_script_entrypoint():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "geoloc.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "convert" in proc.stdout and "sweep" in proc.stdout


def test_sweep_rejects_empty_values(workspace, tmp_path, capsys):
    _, cfg_path, world_dir = workspace
    code = main([
        "sweep", "--config", str(cfg_path),
        "--param", "groups_used", "--values", ",",
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


@pytest.mark.parametrize(
    "field, value",
    [("cell", [True, 0, 0]), ("cell", [1.0, 0, 0]), ("cell", ["a", 0, 0]), ("members", "abc")],
    ids=["bool-cell", "float-cell", "string-cell", "string-members"],
)
def test_train_rejects_malformed_partition_class(workspace, tmp_path, capsys, field, value):
    _, cfg_path, world_dir = workspace
    assert _train_on_partition_file(world_dir, cfg_path, tmp_path, _partition_doc(**{field: value})) == 1
    err = capsys.readouterr().err
    _single_error_line(err, "partition")
    assert f"{field} must be" in err


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
    # One manifest holds one zone, so the mismatch is planted between training
    # and the sweep's own evaluation.
    _, cfg_path, world_dir = workspace
    real = cli._run_training_from_files

    def queries_in_next_zone(*args):
        *out, val_queries = real(*args)
        return (*out, [dataclasses.replace(r, zone_number=r.zone_number + 1) for r in val_queries])

    monkeypatch.setattr(cli, "_run_training_from_files", queries_in_next_zone)
    code = main([
        "sweep", "--config", str(cfg_path),
        "--param", "groups_used", "--values", "1",
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(world_dir / "features.npz"),
        "--output", str(tmp_path / "sweep.csv"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    _single_error_line(err, "domain")
    assert "zone" in err


def _sweep_argv(cfg_path, world_dir, values, output):
    return [
        "sweep", "--config", str(cfg_path),
        "--param", "groups_used", "--values", values,
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(world_dir / "features.npz"),
        "--output", str(output),
    ]


def _diverge(*args, **kwargs):
    raise TrainingError("loss diverged")


# A sweep that trained before rejecting its arguments ends in error[training].
@pytest.mark.parametrize("values, named", [("1,abc", "'abc'"), ('1,"two"', "two")])
def test_sweep_rejects_bad_value_before_training(workspace, tmp_path, capsys, monkeypatch, values, named):
    _, cfg_path, world_dir = workspace
    monkeypatch.setattr(cli.train, "run_training", _diverge)
    capsys.readouterr()
    assert main(_sweep_argv(cfg_path, world_dir, values, tmp_path / "s.csv")) == 1
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


def test_train_rejects_partition_member_missing_from_store(workspace, tmp_path, capsys):
    _, cfg_path, world_dir = workspace
    part_path = tmp_path / "partition.json"
    assert main(["partition", "--config", str(cfg_path),
                 "--manifest", str(world_dir / "manifest.csv"), "--output", str(part_path)]) == 0
    part = load_partition(part_path)
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
    part_path = tmp_path / "partition.json"
    assert main(["partition", "--config", str(cfg_path),
                 "--manifest", str(world_dir / "manifest.csv"), "--output", str(part_path)]) == 0
    part = load_partition(part_path)
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
    part_path = tmp_path / "partition.json"
    assert main(["partition", "--config", str(cfg_path),
                 "--manifest", str(world_dir / "manifest.csv"), "--output", str(part_path)]) == 0
    part = load_partition(part_path)
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


@pytest.mark.parametrize("reshape", [lambda m: m[:, :, 0], lambda m: m[None]], ids=["C,H", "1,C,H,W"])
def test_train_rejects_a_store_of_maps_that_are_not_chw(workspace, tmp_path, capsys, reshape):
    _, cfg_path, world_dir = workspace
    store = tmp_path / "features.npz"
    with np.load(world_dir / "features.npz") as full:
        np.savez(store, **{rid: reshape(full[rid]) for rid in full.files})
    capsys.readouterr()
    code = main([
        "train", "--config", str(cfg_path),
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(store),
        "--out-dir", str(tmp_path / "run"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    _single_error_line(err, "domain")
    assert "(C, H, W)" in err
    assert not (tmp_path / "run" / "model_best.json").exists()


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


@pytest.mark.parametrize("field, offset, value", [("encrypted", 8, 1), ("compression", 10, 99)])
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


DERIVED_KEYS = ["train.val_threshold_m", "city.cell_size_m", "city.heading_bin_deg"]
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
    part = build_partition(records, pcfg)
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


def _all_records(doc, world_dir):
    records = ingest.load_manifest(world_dir / "manifest.csv")
    whole = partition_to_dict(build_partition(records, PartitionConfig(**CONFIG["partition"])))
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
