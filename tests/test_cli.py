import dataclasses
import json

import pytest
import yaml

from geoloc import cli, ingest
from geoloc.cli import main

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
    assert (out_dir / "model_best.json").exists()
    assert (out_dir / "history.csv").exists()
    assert (out_dir / "train_state.json").exists()
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
    assert out.with_suffix(".meta.json").exists()


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


NO_CLASSES = json.dumps({
    "format": "geo-partition", "version": 1, "config": CONFIG["partition"],
    "discarded_classes": 0, "discarded_images": 0,
})


@pytest.mark.parametrize(
    "content",
    ['{"format": "partition", "classes": [', "[1, 2]", pytest.param(NO_CLASSES, id="no-classes")],
)
def test_train_rejects_corrupt_partition_file(workspace, tmp_path, capsys, content):
    _, cfg_path, world_dir = workspace
    part_path = tmp_path / "corrupt.json"
    part_path.write_text(content, encoding="utf-8")
    code = main([
        "train", "--config", str(cfg_path),
        "--manifest", str(world_dir / "manifest.csv"),
        "--features", str(world_dir / "features.npz"),
        "--partition", str(part_path),
        "--out-dir", str(tmp_path / "run"),
    ])
    assert code == 1
    _single_error_line(capsys.readouterr().err, "partition")


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

    def queries_in_next_zone(args, cfg):
        *out, val_queries = real(args, cfg)
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
    doc = json.loads(part_path.read_text())
    doc["classes"][0]["members"].append("ghost")
    part_path.write_text(json.dumps(doc))
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
    _single_error_line(err, "manifest")
    assert "'ghost'" in err and str(world_dir / "features.npz") in err
