import dataclasses
import hashlib
import json

import numpy as np
import pytest

from geoloc import embed
from geoloc.embed import ModelConfig, model_from_dict
from geoloc.errors import TrainingError
from geoloc.ingest import split_validation
from geoloc.loss import LossConfig
from geoloc.partition import PartitionConfig, build_partition, enumerate_groups
from geoloc.synth import CityConfig, generate_city
from geoloc.train import (
    AdamMoments,
    TrainConfig,
    adam_step,
    export_inference_model,
    group_table,
    history_csv,
    pool_store,
    run_training,
    sample_batch,
)

BASE = TrainConfig(
    groups_used=2,
    iterations_per_epoch=25,
    total_epochs=4,
    batch_size=16,
    learning_rate=1e-2,
    loss=LossConfig(),
    model=ModelConfig(output_dim=16, pooling="gem", gem_p=3.0),
    seed=5,
)

# Spacing 50 m on 10 m cells lands places in cells 2, 7, 12, 17 (both parities)
# and 4 headings hit bins 0, 3, 6, 9, so every one of the 2x2x2 groups is
# populated.
CITY = CityConfig(
    extent_m=200.0,
    place_spacing_m=50.0,
    headings_per_place=4,
    images_per_place_heading=8,
    latent_dim=8,
    feature_map_shape=(16, 2, 2),
    noise_sigma=0.05,
    domain_shift_sigma=0.05,
    nuisance_dim=2,
    nuisance_sigma=1.5,
    seed=5,
)

PCFG = PartitionConfig(cell_size_m=10.0, heading_bin_deg=30.0, cell_stride=2, heading_stride=2,
                       min_images_per_class=2)


@pytest.fixture(scope="module")
def world():
    return generate_city(CITY)


@pytest.fixture(scope="module")
def setup(world):
    train_recs, val_db, val_q = split_validation(world.records, 0.15, seed=5)
    part = build_partition(train_recs, PCFG)
    return part, val_db, val_q


@pytest.fixture(scope="module")
def trained(world, setup):
    part, val_db, val_q = setup
    return run_training(part, world.features, BASE, val_db, val_q, world.query_features)


# Adam examples


def test_adam_zero_gradient_leaves_parameters_unchanged():
    theta = np.array([1.0, -2.0])
    moments = AdamMoments.zeros_like(theta)
    adam_step(theta, np.zeros(2), moments, BASE)
    np.testing.assert_array_equal(theta, [1.0, -2.0])
    np.testing.assert_array_equal(moments.first, np.zeros(2))
    np.testing.assert_array_equal(moments.second, np.zeros(2))
    assert moments.steps == 1


def test_adam_first_step_hand_value():
    cfg = dataclasses.replace(BASE, learning_rate=0.1)
    theta = np.array([0.0])
    adam_step(theta, np.array([1.0]), AdamMoments.zeros_like(theta), cfg)
    # Bias-corrected first step: lr * 1 / (1 + eps).
    assert theta[0] == pytest.approx(-0.1, abs=1e-8)


def test_adam_constant_gradient_approaches_signed_step():
    cfg = dataclasses.replace(BASE, learning_rate=0.01)
    theta = np.array([0.0])
    moments = AdamMoments.zeros_like(theta)
    prev = 0.0
    for t in range(1, 400):
        adam_step(theta, np.array([2.5]), moments, cfg)
        assert moments.steps == t
        if t > 300:
            assert (prev - theta[0]) == pytest.approx(0.01, rel=1e-3)
        prev = theta[0]


def test_adam_rejects_non_finite_gradient():
    theta = np.array([0.0])
    moments = AdamMoments.zeros_like(theta)
    with pytest.raises(TrainingError, match="non-finite"):
        adam_step(theta, np.array([np.nan]), moments, BASE)
    assert moments.steps == 0 and theta[0] == 0.0


def test_adam_on_a_flat_vector_equals_adam_on_its_pieces():
    # The trainer steps the model's projection, bias and GeM p as one flat
    # vector; Adam is elementwise, so that is bit for bit a step per piece.
    rng = np.random.default_rng(4)
    cfg = dataclasses.replace(BASE, learning_rate=0.05)
    pieces = [rng.standard_normal((3, 4)), rng.standard_normal(3), np.array([3.0])]
    flat = np.concatenate([p.ravel() for p in pieces])
    flat_moments = AdamMoments.zeros_like(flat)
    piece_moments = [AdamMoments.zeros_like(p) for p in pieces]
    for _ in range(5):
        grads = [rng.standard_normal(p.shape) for p in pieces]
        adam_step(flat, np.concatenate([g.ravel() for g in grads]), flat_moments, cfg)
        for p, g, m in zip(pieces, grads, piece_moments):
            adam_step(p, g, m, cfg)
    assert flat.tobytes() == np.concatenate([p.ravel() for p in pieces]).tobytes()
    assert flat_moments.second.tobytes() == np.concatenate([m.second.ravel() for m in piece_moments]).tobytes()


# Batch sampling


def test_sample_batch_is_class_uniform(world, setup):
    part, *_ = setup
    # A two-class group with wildly imbalanced member counts.
    group = enumerate_groups(PCFG)[0]
    a, b, *rest = part.group_classes[group]
    members = {c: m for c, m in part.class_members.items() if c not in rest}
    lopsided = dataclasses.replace(part, class_members={**members, a: members[a][:2]})
    assert lopsided.group_classes[group] == [a, b]
    table = group_table(lopsided, group, world.features)
    assert table.sizes.tolist() == [2, len(part.class_members[b])]
    rng = np.random.default_rng(0)
    labels = np.concatenate([sample_batch(table, 25, rng)[:, 1] for _ in range(400)])
    assert np.mean(labels == 0) == pytest.approx(0.5, abs=0.02)


def test_sample_batch_size_and_determinism(world, setup):
    part, *_ = setup
    group = enumerate_groups(PCFG)[0]
    table = group_table(part, group, world.features)
    batch = sample_batch(table, 32, np.random.default_rng(9))
    assert batch.shape == (32, 2)
    again = sample_batch(table, 32, np.random.default_rng(9))
    np.testing.assert_array_equal(batch, again)
    classes = part.group_classes[group]
    for row, label in batch:
        assert world.features.ids[row] in part.class_members[classes[label]]


def test_sample_batch_needs_two_classes(world, setup):
    part, *_ = setup
    group = enumerate_groups(PCFG)[0]
    dropped = part.group_classes[group][1:]
    thin = dataclasses.replace(part, class_members={c: m for c, m in part.class_members.items() if c not in dropped})
    with pytest.raises(TrainingError, match="classes"):
        group_table(thin, group, world.features)


# Training loop behavior


def test_training_improves_validation_recall(world, setup, trained):
    part, val_db, val_q = setup
    assert trained.best_val_recall1 > trained.history[0].recall_at[1] or trained.best_val_recall1 > 0.5
    assert len(trained.history) == BASE.total_epochs
    assert trained.best_val_recall1 == max(h.recall_at[1] for h in trained.history)
    # Best epoch is the first epoch reaching the best value.
    firsts = [h.epoch for h in trained.history if h.recall_at[1] == trained.best_val_recall1]
    assert trained.best_epoch == firsts[0]


def test_one_head_updated_per_epoch(world, setup):
    part, val_db, val_q = setup
    cfg = dataclasses.replace(BASE, total_epochs=1)
    state = run_training(part, world.features, cfg, val_db, val_q, world.query_features)
    fresh = run_training(
        part, world.features, dataclasses.replace(cfg, total_epochs=2), val_db, val_q, world.query_features
    )

    def head_hash(head):
        return hashlib.sha256(head.weights.tobytes()).hexdigest()

    groups = enumerate_groups(PCFG)[: cfg.groups_used]
    # After one epoch only the first group's head moved; after two, both.
    from geoloc.loss import new_head

    for i, g in enumerate(groups):
        init = new_head(g, len(part.group_classes[g]), cfg.model.output_dim, cfg.seed)
        moved_after_1 = head_hash(state.heads[g]) != head_hash(init)
        moved_after_2 = head_hash(fresh.heads[g]) != head_hash(init)
        assert moved_after_1 == (i == 0)
        assert moved_after_2


def test_descriptor_budget_bounded_by_batch_size(trained):
    assert trained.budget.peak <= BASE.batch_size
    assert trained.budget.current == 0


def test_training_is_deterministic(world, setup):
    part, val_db, val_q = setup
    cfg = dataclasses.replace(BASE, total_epochs=2)
    a = run_training(part, world.features, cfg, val_db, val_q, world.query_features)
    b = run_training(part, world.features, cfg, val_db, val_q, world.query_features)
    assert export_inference_model(a) == export_inference_model(b)
    assert [h.mean_loss for h in a.history] == [h.mean_loss for h in b.history]


def test_inert_run_exports_the_initialization(world, setup):
    part, val_db, val_q = setup
    from geoloc import embed

    cfg = dataclasses.replace(BASE, learning_rate=0.0, total_epochs=2)
    state = run_training(part, world.features, cfg, val_db, val_q, world.query_features)
    any_id = next(iter(part.class_members.values()))[0]
    init = embed.init_model(world.features[any_id].shape[0], cfg.model, cfg.seed)
    assert export_inference_model(state) == embed.checkpoint_bytes(init)
    assert state.best_epoch == 0  # equal recalls keep the earliest checkpoint


def test_export_contains_no_head_weights(trained):
    doc = json.loads(export_inference_model(trained))
    assert doc["format"] == "embedding-model"
    text = json.dumps(doc).lower()
    assert "head" not in text and "classifier" not in text
    model_from_dict(doc)  # loadable as a bare model
    # Re-export is byte-identical.
    assert export_inference_model(trained) == export_inference_model(trained)


def test_best_recall_is_nondecreasing_over_prefixes(trained):
    best = -1.0
    for h in trained.history:
        best = max(best, h.recall_at[1])
        assert best >= h.recall_at[1]
    assert trained.best_val_recall1 == best


def test_empty_group_among_first_g_is_an_error(world):
    # Two classes only: most of the 2x2x2 groups are empty.
    few = [r for r in world.records if world.latent_key_of[r.id] in list(set(world.latent_key_of.values()))[:2]]
    part = build_partition(few, dataclasses.replace(PCFG, min_images_per_class=1))
    train_recs, val_db, val_q = split_validation(world.records, 0.15, seed=5)
    with pytest.raises(TrainingError, match="classes"):
        run_training(part, world.features, BASE, val_db, val_q, world.query_features)


def test_groups_used_cannot_exceed_partition_groups(world, setup):
    part, val_db, val_q = setup
    cfg = dataclasses.replace(BASE, groups_used=part.config.group_count + 1)
    with pytest.raises(TrainingError, match="exceeds"):
        run_training(part, world.features, cfg, val_db, val_q, world.query_features)


def test_learnable_gem_exponent_moves(world, setup):
    part, val_db, val_q = setup
    cfg = dataclasses.replace(
        BASE,
        total_epochs=1,
        model=ModelConfig(output_dim=16, pooling="gem", gem_p=3.0, learn_gem_p=True),
    )
    state = run_training(part, world.features, cfg, val_db, val_q, world.query_features)
    assert state.model.gem_p != 3.0


@pytest.mark.parametrize("learn_p", [False, True])
def test_gem_p_gradient_computed_only_when_learned(world, setup, monkeypatch, learn_p):
    part, val_db, val_q = setup
    calls = []
    original = embed._gem_dpool_dp

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(embed, "_gem_dpool_dp", counted)
    cfg = dataclasses.replace(
        BASE,
        total_epochs=1,
        model=ModelConfig(output_dim=16, pooling="gem", gem_p=3.0, learn_gem_p=learn_p),
    )
    run_training(part, world.features, cfg, val_db, val_q, world.query_features)
    assert len(calls) == (cfg.iterations_per_epoch if learn_p else 0)


@pytest.mark.parametrize("pooling", ["gem", "average", "max"])
def test_pooled_rows_equal_pooling_the_gathered_batch(world, setup, pooling):
    part, _, _ = setup
    table = group_table(part, enumerate_groups(part.config)[0], world.features)
    picks = np.random.default_rng(3).choice(table.rows, size=3 * BASE.batch_size)
    assert len(np.unique(picks)) < len(picks) and np.any(np.diff(picks) < 0)
    want = embed.pool(world.features.block[picks], pooling, 3.0)
    store = world.features
    assert len(store) % 7  # the last chunk of 7 is partial
    for chunk in (1, 7, BASE.batch_size, len(store)):
        pooled = pool_store(store, pooling, 3.0, chunk)
        assert pooled.shape == (len(store), store.block.shape[1])
        assert np.array_equal(pooled[picks], want)


@pytest.mark.parametrize("learn_p", [False, True])
def test_maps_pooled_once_per_run_unless_p_is_learned(world, setup, monkeypatch, learn_p):
    part, val_db, val_q = setup
    calls = []
    original = embed._pool

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(embed, "_pool", counted)
    counts = {}
    for iterations, epochs in ((5, 1), (10, 1), (5, 2)):
        cfg = dataclasses.replace(
            BASE,
            iterations_per_epoch=iterations,
            total_epochs=epochs,
            model=ModelConfig(output_dim=16, pooling="gem", gem_p=3.0, learn_gem_p=learn_p),
        )
        calls.clear()
        run_training(part, world.features, cfg, val_db, val_q, world.query_features)
        counts[iterations, epochs] = len(calls)
    if learn_p:
        # Each iteration pools its batch, and each validation pools the split again.
        per_validation = counts[5, 1] - 5
        assert per_validation > 0
        assert counts[10, 1] == counts[5, 1] + 5
        assert counts[5, 2] == 2 * counts[5, 1]
    else:
        assert counts[5, 1] == counts[10, 1] == counts[5, 2]


def test_first_epoch_loss_trend_is_decreasing(world, setup):
    # On a separable group, the per-50-iteration loss means of the first
    # 200 iterations fall strictly. With one group, four 50-iteration epochs
    # train exactly as one 200-iteration epoch, and each epoch's mean loss
    # is one such bucket.
    part, val_db, val_q = setup
    cfg = dataclasses.replace(BASE, groups_used=1, iterations_per_epoch=50, total_epochs=4)
    state = run_training(part, world.features, cfg, val_db, val_q, world.query_features)
    buckets = [h.mean_loss for h in state.history]
    assert len(buckets) == 4
    assert all(b < a for a, b in zip(buckets, buckets[1:])), buckets


def test_history_csv_layout(trained):
    text = history_csv(trained.history)
    lines = text.strip().splitlines()
    assert lines[0] == "epoch,group,mean_loss,recall_at_1,recall_at_5,recall_at_10"
    assert len(lines) == 1 + BASE.total_epochs
    assert lines[1].startswith("0,0_0_0,")
