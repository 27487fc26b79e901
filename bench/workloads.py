"""The workloads: their run configs, set-up and timed commands.

Every workload is one closed-loop caller that runs ``geoloc train`` and
``geoloc eval`` of the model it exported, again and again. The inputs differ,
so a different layer dominates each one:

- ``desk_train``: the acceptance suite's desk world and schedule (4 800
  images, C=64x4x4, D=64, G=4, 2 000 iterations, 10 validations). The step's
  Python-call overhead dominates.
- ``eval_large``: a short D=64 training (1 000 iterations), then retrieval of
  1 000 queries against 20 000 database rows, each set in its own store, with
  lat/lon-only manifests. Store loading, manifest projection and exhaustive
  search dominate.

The workload seed is the only input: it seeds the world, the split and the
model, so one seed always gives the same files.
"""

from __future__ import annotations

import copy
import csv
import json
from pathlib import Path

WORKLOADS = ("desk_train", "eval_large")

# The acceptance suite's desk setup (DESK_CITY, DESK_PARTITION, DESK_TRAIN and
# its 0.15 validation split in tests/test_acceptance.py), as a run config.
DESK = {
    "split": {"fraction": 0.15},
    "city": {
        "extent_m": 600.0,
        "place_spacing_m": 60.0,
        "headings_per_place": 4,
        "images_per_place_heading": 12,
        "latent_dim": 32,
        "feature_map_shape": [64, 4, 4],
        "noise_sigma": 0.05,
        "domain_shift_sigma": 0.05,
        "nuisance_dim": 4,
        "nuisance_sigma": 2.5,
    },
    "partition": {
        "cell_size_m": 10.0,
        "heading_bin_deg": 30.0,
        "cell_stride": 5,
        "heading_stride": 2,
        "min_images_per_class": 4,
    },
    "train": {
        "groups_used": 4,
        "iterations_per_epoch": 200,
        "total_epochs": 10,
        "batch_size": 32,
        "learning_rate": 0.01,
        "loss": {"margin": 0.4, "scale": 30.0},
        "model": {"output_dim": 64, "pooling": "gem", "gem_p": 3.0},
    },
}

# eval_large: each (place, heading) slot holds this many training images and
# the rest of its images feed the database and query sets.
TRAIN_PER_SLOT = 12
EVAL_IMAGES_PER_SLOT = 65
EVAL_QUERIES = 1_000
EVAL_DATABASE = 20_000


def config(workload: str, seed: int) -> dict:
    """The run config a workload passes to every geoloc command."""
    cfg = copy.deepcopy(DESK)
    cfg["seed"] = seed
    cfg["city"]["seed"] = seed
    cfg["train"]["seed"] = seed
    if workload == "eval_large":
        # 1 000 iterations: with about 50 database rows per (place, heading)
        # slot the model then finds a correct row first for nearly every
        # query on every seed; 400 left recall@1 near 0.3 and seed-dependent.
        cfg["city"]["images_per_place_heading"] = EVAL_IMAGES_PER_SLOT
        cfg["train"]["iterations_per_epoch"] = 250
        cfg["train"]["total_epochs"] = 4
    elif workload != "desk_train":
        raise ValueError(f"unknown workload {workload!r}")
    return cfg


def images_per_train(cfg: dict) -> int:
    """Images one ``geoloc train`` consumes: batch x iterations."""
    t = cfg["train"]
    return t["batch_size"] * t["iterations_per_epoch"] * t["total_epochs"]


def _cli(argv: list[str]) -> None:
    from geoloc import cli

    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"set-up command failed with exit code {rc}: geoloc {' '.join(argv)}")


def setup(workload: str, cfg_path: Path, inputs: Path) -> None:
    """Generate a workload's input files under ``inputs``."""
    cfg = str(cfg_path)
    if workload == "eval_large":
        manifest = _write_eval_inputs(cfg_path, inputs)
    else:
        _cli(["synth", "--config", cfg, "--out-dir", str(inputs / "world")])
        manifest = inputs / "world" / "manifest.csv"
    _cli(["partition", "--config", cfg, "--manifest", str(manifest), "--output", str(inputs / "partition.json")])


def _write_eval_inputs(cfg_path: Path, inputs: Path) -> Path:
    import numpy as np

    from geoloc import ingest, synth
    from geoloc.config import load_run_config

    cfg = load_run_config(cfg_path)
    world = synth.generate_city(cfg.city)
    inputs.mkdir(parents=True, exist_ok=True)
    per_slot = cfg.city.images_per_place_heading
    train = [r for i, r in enumerate(world.records) if i % per_slot < TRAIN_PER_SLOT]
    rest = [r for i, r in enumerate(world.records) if i % per_slot >= TRAIN_PER_SLOT]
    pick = np.random.default_rng([cfg.seed & 0xFFFFFFFF, 0xE7A1]).permutation(len(rest))
    queries = [rest[i] for i in sorted(pick[:EVAL_QUERIES])]
    database = [rest[i] for i in sorted(pick[EVAL_QUERIES : EVAL_QUERIES + EVAL_DATABASE])]

    ingest.save_manifest(train, inputs / "train.csv")
    np.savez(inputs / "train_features.npz", **{r.id: world.features[r.id] for r in train})
    np.savez(inputs / "db_features.npz", **{r.id: world.features[r.id] for r in database})
    np.savez(inputs / "query_features.npz", **{r.id: world.query_features[r.id] for r in queries})
    _write_latlon_manifest(database, inputs / "db.csv")
    _write_latlon_manifest(queries, inputs / "queries.csv")
    return inputs / "train.csv"


def _write_latlon_manifest(records, path: Path) -> None:
    """Positions as lat/lon only, the way real collections ship them."""
    from geoloc.geodesy import UtmCoord, utm_to_latlon

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "lat", "lon", "heading"])
        for r in records:
            p = utm_to_latlon(UtmCoord(r.pose.east, r.pose.north, r.zone_number, r.hemisphere))
            writer.writerow([r.id, repr(p.latitude), repr(p.longitude), repr(r.pose.heading)])


def commands(workload: str, cfg_path: Path, inputs: Path, run: Path) -> dict[str, list[str]]:
    """The timed ``geoloc train`` and ``geoloc eval`` argument lists."""
    common = ["--config", str(cfg_path)]
    model = ["--checkpoint", str(run / "model_best.json"), "--output", str(run / "report.json")]
    if workload == "eval_large":
        train = ["--manifest", str(inputs / "train.csv"), "--features", str(inputs / "train_features.npz")]
        evaluate = [
            "--db", str(inputs / "db.csv"), "--db-features", str(inputs / "db_features.npz"),
            "--queries", str(inputs / "queries.csv"), "--query-features", str(inputs / "query_features.npz"),
        ]
    else:
        world = inputs / "world"
        shifted = ["--query-features", str(world / "query_features.npz")]
        train = ["--manifest", str(world / "manifest.csv"), "--features", str(world / "features.npz"), *shifted]
        evaluate = [
            "--db", str(world / "db.csv"), "--db-features", str(world / "features.npz"),
            "--queries", str(world / "queries.csv"), *shifted,
        ]
    train += ["--partition", str(inputs / "partition.json"), "--out-dir", str(run)]
    return {"train": ["train", *common, *train], "eval": ["eval", *common, *model, *evaluate]}


def write_config(workload: str, seed: int, path: Path) -> dict:
    cfg = config(workload, seed)
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return cfg
