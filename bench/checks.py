"""Correctness gates, computed by the benchmark from the program's outputs.

The retrieval oracle is independent of ``geoloc.retrieval``: one full
``np.lexsort`` per query with the row index as the tie-break (insertion
order), then a plain distance test on the poses.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np


def oracle_ranks(
    db: np.ndarray,
    db_poses: np.ndarray,
    queries: np.ndarray,
    query_poses: np.ndarray,
    kmax: int,
    threshold_m: float,
) -> list[int | None]:
    """1-based rank of the first database row within ``threshold_m`` of each query.

    ``None`` when no such row is among the top ``kmax``.
    """
    n = len(db)
    row = np.arange(n)
    kmax = min(kmax, n)
    out: list[int | None] = []
    for q, (east, north) in zip(queries, query_poses):
        sims = db @ q
        order = np.lexsort((row, -sims))[:kmax]
        near = np.hypot(db_poses[order, 0] - east, db_poses[order, 1] - north) <= threshold_m
        hits = np.flatnonzero(near)
        out.append(int(hits[0]) + 1 if hits.size else None)
    return out


def recall_at_1(ranks: list[int | None]) -> float:
    return sum(1 for r in ranks if r == 1) / len(ranks)


def ranks_from_dump(path: Path, kmax: int, threshold_m: float) -> list[int | None]:
    with np.load(path) as d:
        return oracle_ranks(d["db"], d["db_poses"], d["queries"], d["query_poses"], kmax, threshold_m)


def report_errors(report: dict, oracle: list[int | None]) -> list[str]:
    """Why an eval report disagrees with the oracle ranks (empty when it agrees)."""
    errors = []
    got = report.get("first_correct_rank")
    if got != oracle:
        if not isinstance(got, list) or len(got) != len(oracle):
            errors.append("first_correct_rank has the wrong length")
        else:
            bad = [i for i, (a, b) in enumerate(zip(got, oracle)) if a != b]
            errors.append(f"first_correct_rank differs from the oracle at {len(bad)} queries, first {bad[0]}")
    for k, value in report.get("recall_at", {}).items():
        expected = sum(1 for r in oracle if r is not None and r <= int(k)) / len(oracle)
        if value != expected:
            errors.append(f"R@{k} {value} differs from the oracle's {expected}")
    return errors


def history(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [{k: float(v) for k, v in row.items() if k != "group"} for row in csv.DictReader(fh)]


def train_errors(rows: list[dict], epochs: int) -> list[str]:
    """Loss finite in every epoch, and every epoch present."""
    errors = []
    if len(rows) != epochs:
        errors.append(f"history has {len(rows)} epochs, expected {epochs}")
    bad = [int(r["epoch"]) for r in rows if not math.isfinite(r["mean_loss"])]
    if bad:
        errors.append(f"mean loss is not finite in epochs {bad}")
    return errors


def floor_errors(trained: float, baseline: float, oracle: float) -> list[str]:
    """Acceptance criterion 6's functional floors."""
    errors = []
    if trained < baseline + 0.30:
        errors.append(f"trained R@1 {trained:.3f} < random-init R@1 {baseline:.3f} + 0.30")
    if trained < 0.80 * oracle:
        errors.append(f"trained R@1 {trained:.3f} < 0.80 x oracle R@1 {oracle:.3f}")
    return errors


def desk_references(cfg_path: Path, world: Path) -> tuple[float, float]:
    """R@1 of the random-init model and of the ground-truth latents on the validation split."""
    from geoloc import embed, ingest, synth, train
    from geoloc.config import load_run_config

    cfg = load_run_config(cfg_path)
    db = ingest.load_manifest(world / "db.csv")
    queries = ingest.load_manifest(world / "queries.csv")

    def poses(records):
        return np.array([[r.pose.east, r.pose.north] for r in records])

    def recall(db_vecs, q_vecs):
        ranks = oracle_ranks(db_vecs, poses(db), q_vecs, poses(queries), 1, cfg.train.val_threshold_m)
        return recall_at_1(ranks)

    features = synth.load_features(world / "features.npz")
    query_features = synth.load_features(world / "query_features.npz")
    model = embed.init_model(cfg.city.feature_map_shape[0], cfg.train.model, cfg.train.seed)
    baseline = recall(
        train.embed_records(model, db, features, cfg.train.batch_size),
        train.embed_records(model, queries, query_features, cfg.train.batch_size),
    )
    latents = synth.load_features(world / "latents.npz")
    oracle = recall(np.stack([latents[r.id] for r in db]), np.stack([latents[r.id] for r in queries]))
    return baseline, oracle
