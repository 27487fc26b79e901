"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
lines. The end-to-end thresholds in criteria 6 and 7 were measured on the
frozen seed and then pinned as regression bounds alongside the looser
functional minimums.
"""

import contextlib
import dataclasses
import json
import math
import time

import numpy as np
import pytest
from scipy.special import logsumexp

from geoloc import embed
from geoloc.embed import AVERAGE, GEM, MAX, EmbeddingModel, ModelConfig, init_model, model_from_dict
from geoloc.geodesy import LatLon, latlon_to_utm, utm_to_latlon
from geoloc.ingest import split_validation
from geoloc.loss import ClassifierHead, LossConfig, margin_cosine_grads, margin_cosine_loss
from geoloc.partition import GeoPose, GroupId, PartitionConfig, build_partition, enumerate_groups
from geoloc.retrieval import build_index, knn, recall_at_n
from geoloc.synth import CityConfig, generate_city, oracle_descriptor, oracle_pairwise_check
from geoloc.train import (
    DescriptorBudget,
    TrainConfig,
    embed_records,
    export_inference_model,
    run_training,
)


@contextlib.contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {description}")
        raise
    print(f"criterion {number} PASS: {description} ({time.perf_counter() - start:.1f}s)")


# Frozen end-to-end desk setup (criteria 6-9). Measured on this seed:
# baseline R@1 0.071, oracle R@1 0.842, trained R@1 0.821, single-group
# (G=1) R@1 0.396. The regression bounds below were frozen when trained
# R@1 read 0.828 and leave margin for BLAS variation.
DESK_SEED = 1234
DESK_CITY = CityConfig(
    extent_m=600.0,
    place_spacing_m=60.0,
    headings_per_place=4,
    images_per_place_heading=12,
    latent_dim=32,
    feature_map_shape=(64, 4, 4),
    noise_sigma=0.05,
    domain_shift_sigma=0.05,
    nuisance_dim=4,
    nuisance_sigma=2.5,
    seed=DESK_SEED,
)
DESK_PARTITION = PartitionConfig(
    cell_size_m=10.0, heading_bin_deg=30.0, cell_stride=5, heading_stride=2, min_images_per_class=4
)
DESK_TRAIN = TrainConfig(
    groups_used=4,
    iterations_per_epoch=200,
    total_epochs=10,
    batch_size=32,
    learning_rate=1e-2,
    loss=LossConfig(margin=0.40, scale=30.0),
    model=ModelConfig(output_dim=64, pooling=GEM, gem_p=3.0),
    seed=DESK_SEED,
)
DESK_VAL_FRACTION = 0.15
THRESHOLD_M = 25.0


@pytest.fixture(scope="module")
def desk():
    world = generate_city(DESK_CITY)
    assert len(world.records) == 4800
    train_recs, val_db, val_q = split_validation(world.records, DESK_VAL_FRACTION, seed=DESK_SEED)
    part = build_partition(train_recs, DESK_PARTITION)
    return world, part, val_db, val_q


def evaluate_vectors(db_vecs, q_vecs, val_db, val_q, ks=(1, 5, 10, 20)):
    index = build_index(db_vecs, [r.id for r in val_db], [r.pose for r in val_db])
    return recall_at_n(
        index, list(zip(q_vecs, [r.pose for r in val_q])), ks=ks, threshold_m=THRESHOLD_M
    )


def evaluate_model(model, world, val_db, val_q):
    budget = DescriptorBudget()
    db_vecs = embed_records(model, val_db, world.features, DESK_TRAIN.batch_size, budget)
    q_vecs = embed_records(model, val_q, world.query_features, DESK_TRAIN.batch_size, budget)
    return evaluate_vectors(db_vecs, q_vecs, val_db, val_q)


@pytest.fixture(scope="module")
def desk_run(desk):
    world, part, val_db, val_q = desk
    state = run_training(part, world.features, DESK_TRAIN, val_db, val_q, world.query_features)
    return state


def test_criterion_1_group_count(desk):
    with criterion(1, "default 5x5x2 strides enumerate 50 groups in under 1 ms"):
        groups = enumerate_groups(DESK_PARTITION)
        assert len(groups) == 50
        assert len(set(groups)) == 50
        best = min(
            _timed(lambda: enumerate_groups(DESK_PARTITION)) for _ in range(5)
        )
        assert best < 1e-3, f"enumeration took {best * 1e3:.3f} ms"


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _property_world_configs():
    combos = []
    for alpha, valid_l in ((30.0, (1, 2, 3)), (45.0, (1, 2)), (90.0, (1, 2)), (360.0, (1,))):
        for l in valid_l:
            for n in range(1, 6):
                combos.append((n, l, alpha))
    # All alpha=30 combos plus a spread of the rest, 24 worlds total.
    chosen = [c for c in combos if c[2] == 30.0]
    chosen += [c for c in combos if c[2] == 45.0 and c[0] in (1, 3, 5)]
    chosen += [c for c in combos if c[2] == 90.0 and c[0] in (2, 4)]
    chosen += [c for c in combos if c[2] == 360.0 and c[0] in (1, 5)]
    return chosen


def test_criterion_2_partition_properties_suite():
    with criterion(2, "properties 1-4 hold on 24 synthetic worlds (exhaustive oracle scan)"):
        start = time.perf_counter()
        rng = np.random.default_rng(20)
        combos = _property_world_configs()
        assert len(combos) >= 20
        for i, (n_stride, l_stride, alpha) in enumerate(combos):
            n_side = int(rng.integers(5, 9))
            headings = int(rng.integers(2, 5))
            images = int(rng.integers(3, 7))
            spacing = float(rng.choice([10.0, 20.0, 30.0, 50.0]))
            city = CityConfig(
                extent_m=spacing * n_side,
                place_spacing_m=spacing,
                headings_per_place=headings,
                images_per_place_heading=images,
                latent_dim=4,
                feature_map_shape=(2, 1, 1),
                noise_sigma=0.0,
                heading_bin_deg=alpha,
                repel_iterations=0,
                seed=int(rng.integers(1 << 30)),
            )
            world = generate_city(city)
            assert len(world.records) <= 5000
            cfg = PartitionConfig(
                cell_size_m=10.0,
                heading_bin_deg=alpha,
                cell_stride=n_stride,
                heading_stride=l_stride,
                min_images_per_class=0,
            )
            part = build_partition(world.records, cfg)
            violations = oracle_pairwise_check(world, part)
            assert violations == [], f"world {i} ({n_stride},{l_stride},{alpha}): {violations[:3]}"
        # One large world near the size cap, default strides.
        big_city = dataclasses.replace(
            DESK_CITY, nuisance_dim=0, nuisance_sigma=0.0, feature_map_shape=(2, 1, 1),
            latent_dim=4, repel_iterations=0,
        )
        big = generate_city(big_city)
        assert len(big.records) == 4800
        part = build_partition(big.records, dataclasses.replace(DESK_PARTITION, min_images_per_class=0))
        assert oracle_pairwise_check(big, part) == []
        assert time.perf_counter() - start < 120.0


def test_criterion_3_margin_loss_oracle_and_gradients():
    with criterion(3, "margin loss: m=0 matches softmax CE within 1e-10; gradients within 1e-4 of FD"):
        start = time.perf_counter()
        rng = np.random.default_rng(30)
        g0 = GroupId(0, 0, 0)
        for _ in range(100):
            k = int(rng.integers(2, 9))
            d = int(rng.integers(2, 17))
            b = int(rng.integers(1, 7))
            desc = rng.standard_normal((b, d))
            desc /= np.linalg.norm(desc, axis=1, keepdims=True)
            labels = rng.integers(0, k, size=b)
            head = ClassifierHead(group=g0, weights=rng.standard_normal((k, d)))
            scale = float(rng.uniform(0.5, 40.0))

            cos = desc @ (head.weights / np.linalg.norm(head.weights, axis=1, keepdims=True)).T
            logits = scale * cos
            ce = float(np.mean(logsumexp(logits, axis=1) - logits[np.arange(b), labels]))
            got = margin_cosine_loss(desc, labels, head, LossConfig(margin=0.0, scale=scale))
            assert abs(got - ce) < 1e-10

            cfg = LossConfig(margin=float(rng.uniform(0.0, 0.5)), scale=scale)
            g_desc, g_w = margin_cosine_grads(desc, labels, head, cfg)
            fd_desc = _central_diff(lambda x: margin_cosine_loss(x, labels, head, cfg), desc.copy())
            fd_w = _central_diff(
                lambda w: margin_cosine_loss(desc, labels, ClassifierHead(group=g0, weights=w), cfg),
                head.weights.copy(),
            )
            assert _rel_err(g_desc, fd_desc) < 1e-4
            assert _rel_err(g_w, fd_w) < 1e-4
        assert time.perf_counter() - start < 30.0


def _central_diff(f, x, eps=1e-5):
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        grad.reshape(-1)[i] = (hi - lo) / (2.0 * eps)
    return grad


def _rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


def test_criterion_4_embedding_gradients():
    with criterion(4, "pool/affine/normalize gradients within 1e-4 of FD; GeM p=1 equals average"):
        start = time.perf_counter()
        rng = np.random.default_rng(40)
        for i in range(100):
            pooling = (GEM, AVERAGE, MAX)[i % 3]
            channels, dim = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            h, w = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            model = EmbeddingModel(
                pooling=pooling,
                gem_p=float(rng.uniform(1.5, 4.0)),
                projection=rng.standard_normal((dim, channels)),
                bias=0.1 * rng.standard_normal(dim),
            )
            fm = np.abs(rng.standard_normal((channels, h, w))) + 0.1
            g = rng.standard_normal(dim)
            got = embed.backward(model, fm, g)

            fd_proj = _central_diff(
                lambda p: float(
                    embed.forward(
                        EmbeddingModel(pooling=pooling, gem_p=model.gem_p, projection=p, bias=model.bias), fm
                    ) @ g
                ),
                model.projection.copy(),
                eps=1e-6,
            )
            fd_bias = _central_diff(
                lambda bb: float(
                    embed.forward(
                        EmbeddingModel(pooling=pooling, gem_p=model.gem_p, projection=model.projection, bias=bb),
                        fm,
                    ) @ g
                ),
                model.bias.copy(),
                eps=1e-6,
            )
            assert _rel_err(got.projection, fd_proj) < 1e-4
            assert _rel_err(got.bias, fd_bias) < 1e-4

            pooled_gem1 = embed.pool(fm, GEM, 1.0)
            assert np.abs(pooled_gem1 - embed.pool(fm, AVERAGE)).max() < 1e-12
        assert time.perf_counter() - start < 30.0


def test_criterion_5_retrieval_oracle_equivalence():
    with criterion(5, "knn identical to brute-force full sort on 1000 queries x 5000 entries"):
        start = time.perf_counter()
        rng = np.random.default_rng(50)
        n, dim, k = 5000, 32, 10
        vecs = rng.standard_normal((n, dim))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        ids = [f"e{i}" for i in range(n)]
        poses = [GeoPose(float(rng.uniform(0, 2000)), float(rng.uniform(0, 2000)), 0.0) for _ in range(n)]
        index = build_index(vecs, ids, poses)
        queries = rng.standard_normal((1000, dim))
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        for qi, q in enumerate(queries):
            got = [rid for rid, _ in knn(index, q, k)]
            sims = vecs @ q
            oracle_order = np.lexsort((np.arange(n), -sims))[:k]  # independent stable full sort
            assert got == [ids[i] for i in oracle_order], f"query {qi}"
        # A slower, fully independent python-sorted oracle on a subsample.
        for q in queries[:20]:
            sims = [float(row @ q) for row in vecs]
            ranked = sorted(range(n), key=lambda i: (-sims[i], i))[:k]
            assert [rid for rid, _ in knn(index, q, k)] == [ids[i] for i in ranked]

        # Recall monotone in K and threshold on these runs.
        sample = [(queries[i], GeoPose(float(rng.uniform(0, 2000)), float(rng.uniform(0, 2000)), 0.0))
                  for i in range(100)]
        previous = None
        for threshold in (10.0, 50.0, 200.0):
            report = recall_at_n(index, sample, ks=(1, 5, 10, 20), threshold_m=threshold)
            values = [report.recall_at[kk] for kk in (1, 5, 10, 20)]
            assert values == sorted(values)
            if previous is not None:
                assert all(b >= a for a, b in zip(previous, values))
            previous = values
        assert time.perf_counter() - start < 30.0


def test_criterion_6_end_to_end_training_efficacy(desk, desk_run):
    with criterion(6, "trained recall@1 beats random init by >= 30 points and reaches >= 80% of oracle"):
        start = time.perf_counter()
        world, part, val_db, val_q = desk
        state = desk_run

        baseline_model = init_model(DESK_CITY.feature_map_shape[0], DESK_TRAIN.model, DESK_SEED)
        baseline = evaluate_model(baseline_model, world, val_db, val_q).recall_at[1]

        oracle_db = np.stack([oracle_descriptor(world, r.id) for r in val_db])
        oracle_q = np.stack([oracle_descriptor(world, r.id) for r in val_q])
        oracle = evaluate_vectors(oracle_db, oracle_q, val_db, val_q).recall_at[1]

        trained_model = model_from_dict(json.loads(export_inference_model(state)))
        trained = evaluate_model(trained_model, world, val_db, val_q).recall_at[1]

        print(
            f"  baseline R@1 {baseline:.3f} | trained R@1 {trained:.3f} | oracle R@1 {oracle:.3f}"
        )
        # Functional minimums.
        assert trained - baseline >= 0.30
        assert trained >= 0.80 * oracle
        # Regression bounds frozen from the seeded measurement
        # (baseline 0.071, trained 0.828, oracle 0.842); trained now reads 0.821.
        assert baseline <= 0.15
        assert trained - baseline >= 0.70
        assert trained >= 0.95 * oracle
        assert time.perf_counter() - start < 300.0


def test_criterion_7_single_group_ablation(desk, desk_run):
    with criterion(7, "multi-group run is no worse than the single-group run minus 2 points"):
        start = time.perf_counter()
        world, part, val_db, val_q = desk
        g1_cfg = dataclasses.replace(DESK_TRAIN, groups_used=1)
        g1_state = run_training(part, world.features, g1_cfg, val_db, val_q, world.query_features)

        g4_model = model_from_dict(json.loads(export_inference_model(desk_run)))
        g1_model = model_from_dict(json.loads(export_inference_model(g1_state)))
        g4 = evaluate_model(g4_model, world, val_db, val_q).recall_at[1]
        g1 = evaluate_model(g1_model, world, val_db, val_q).recall_at[1]
        print(f"  G=4 R@1 {g4:.3f} | G=1 R@1 {g1:.3f}")
        assert g4 >= g1 - 0.02
        # The single-group degenerate mode still trains: it clears the
        # untrained baseline by a wide margin (measured 0.396 vs 0.071).
        baseline_model = init_model(DESK_CITY.feature_map_shape[0], DESK_TRAIN.model, DESK_SEED)
        baseline = evaluate_model(baseline_model, world, val_db, val_q).recall_at[1]
        assert g1 > baseline + 0.20
        assert time.perf_counter() - start < 600.0


def test_criterion_8_no_cache_resource_bound(desk_run):
    with criterion(8, "trainer held at most one batch of descriptors at any time"):
        assert desk_run.budget.peak <= DESK_TRAIN.batch_size
        assert desk_run.budget.peak > 0
        assert desk_run.budget.current == 0


def test_criterion_9_bitwise_determinism(desk, desk_run):
    with criterion(9, "identical seed reproduces checkpoint and eval report bit for bit"):
        world, part, val_db, val_q = desk
        repeat = run_training(part, world.features, DESK_TRAIN, val_db, val_q, world.query_features)
        assert export_inference_model(repeat) == export_inference_model(desk_run)

        def report_bytes(state):
            model = model_from_dict(json.loads(export_inference_model(state)))
            report = evaluate_model(model, world, val_db, val_q)
            return json.dumps(report.to_dict(), sort_keys=True).encode()

        assert report_bytes(repeat) == report_bytes(desk_run)


def test_criterion_10_geodesy_round_trip_and_reference():
    with criterion(10, "10k random round trips below 1e-6 degrees; SF reference within 1 m of the oracle"):
        start = time.perf_counter()
        rng = np.random.default_rng(100)
        lats = rng.uniform(-70.0, 70.0, size=10_000)
        lons = rng.uniform(-180.0, 180.0, size=10_000)
        worst = 0.0
        for lat, lon in zip(lats, lons):
            p = utm_to_latlon(latlon_to_utm(LatLon(float(lat), float(lon))))
            dlon = abs(p.longitude - lon) % 360.0
            worst = max(worst, abs(p.latitude - lat), min(dlon, 360.0 - dlon))
        assert worst < 1e-6, f"worst round-trip error {worst:.2e} degrees"

        c = latlon_to_utm(LatLon(37.7749, -122.4194))
        assert c.zone_number == 10 and c.hemisphere == "north"
        # Reference fixed from two published converters plus a high-precision series.
        assert math.hypot(c.east - 551130.768, c.north - 4180998.881) < 1.0
        assert time.perf_counter() - start < 5.0
