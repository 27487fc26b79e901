import dataclasses
import hashlib
import json

import numpy as np
import pytest

from geoloc import embed
from geoloc.embed import ModelConfig, model_from_dict
from geoloc.errors import CheckpointError, DomainError, TrainingError
from geoloc.ingest import split_validation
from geoloc.loss import LossConfig
from geoloc.partition import PartitionConfig, build_partition, enumerate_groups
from geoloc.synth import CityConfig, generate_city
from geoloc.train import (
    AdamMoments,
    TrainConfig,
    adam_step,
    export_inference_model,
    history_csv,
    load_training_checkpoint,
    run_training,
    sample_batch,
    save_training_checkpoint,
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
    moments = AdamMoments()
    adam_step({"w": theta}, {"w": np.zeros(2)}, moments, t=1, cfg=BASE)
    np.testing.assert_array_equal(theta, [1.0, -2.0])
    np.testing.assert_array_equal(moments.first["w"], np.zeros(2))
    np.testing.assert_array_equal(moments.second["w"], np.zeros(2))


def test_adam_first_step_hand_value():
    cfg = dataclasses.replace(BASE, learning_rate=0.1)
    theta = np.array([0.0])
    adam_step({"w": theta}, {"w": np.array([1.0])}, AdamMoments(), t=1, cfg=cfg)
    # Bias-corrected first step: lr * 1 / (1 + eps).
    assert theta[0] == pytest.approx(-0.1, abs=1e-8)


def test_adam_constant_gradient_approaches_signed_step():
    cfg = dataclasses.replace(BASE, learning_rate=0.01)
    theta = np.array([0.0])
    moments = AdamMoments()
    prev = 0.0
    for t in range(1, 400):
        adam_step({"w": theta}, {"w": np.array([2.5])}, moments, t=t, cfg=cfg)
        if t > 300:
            assert (prev - theta[0]) == pytest.approx(0.01, rel=1e-3)
        prev = theta[0]


def test_adam_rejects_non_finite_gradient():
    with pytest.raises(TrainingError, match="w"):
        adam_step({"w": np.array([0.0])}, {"w": np.array([np.nan])}, AdamMoments(), t=1, cfg=BASE)
    with pytest.raises(DomainError):
        adam_step({"w": np.array([0.0])}, {"w": np.array([1.0])}, AdamMoments(), t=0, cfg=BASE)


# Batch sampling


def test_sample_batch_is_class_uniform(setup):
    part, *_ = setup
    # Build a two-class partition with wildly imbalanced member counts.
    lopsided = dataclasses.replace(part)
    group = enumerate_groups(PCFG)[0]
    classes = part.group_classes[group][:2]
    a, b = classes
    lopsided_members = dict(part.class_members)
    lopsided_members[a] = part.class_members[a][:2]
    lopsided = dataclasses.replace(part, class_members=lopsided_members,
                                   group_classes={**part.group_classes, group: [a, b]})
    rng = np.random.default_rng(0)
    draws = [label for _ in range(400) for _, label in sample_batch(lopsided, group, 25, rng)]
    freq_a = draws.count(0) / len(draws)
    assert freq_a == pytest.approx(0.5, abs=0.02)


def test_sample_batch_size_and_determinism(setup):
    part, *_ = setup
    group = enumerate_groups(PCFG)[0]
    batch = sample_batch(part, group, 32, np.random.default_rng(9))
    assert len(batch) == 32
    again = sample_batch(part, group, 32, np.random.default_rng(9))
    assert batch == again
    for rid, label in batch:
        assert rid in part.class_members[part.group_classes[group][label]]


def test_sample_batch_needs_two_classes(setup):
    part, *_ = setup
    group = enumerate_groups(PCFG)[0]
    thin = dataclasses.replace(part, group_classes={**part.group_classes, group: part.group_classes[group][:1]})
    with pytest.raises(TrainingError, match="classes"):
        sample_batch(thin, group, 4, np.random.default_rng(0))


# Training loop behavior


def test_training_improves_validation_recall(world, setup, trained):
    part, val_db, val_q = setup
    assert trained.best_val_recall1 > trained.history[0].recall_at[1] or trained.best_val_recall1 > 0.5
    assert trained.epochs_done == BASE.total_epochs
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


def test_first_epoch_loss_trend_is_decreasing(world, setup):
    # On a separable group, the per-50-iteration loss means of the first
    # epoch fall strictly.
    part, val_db, val_q = setup
    cfg = dataclasses.replace(BASE, iterations_per_epoch=200, total_epochs=1)
    state = run_training(part, world.features, cfg, val_db, val_q, world.query_features)
    losses = state.history[0].iteration_losses
    assert len(losses) == 200
    buckets = [sum(losses[i : i + 50]) / 50.0 for i in range(0, 200, 50)]
    assert all(b < a for a, b in zip(buckets, buckets[1:])), buckets


def test_history_csv_layout(trained):
    text = history_csv(trained.history)
    lines = text.strip().splitlines()
    assert lines[0] == "epoch,group,mean_loss,recall_at_1,recall_at_5,recall_at_10"
    assert len(lines) == 1 + BASE.total_epochs
    assert lines[1].startswith("0,0_0_0,")


def test_training_checkpoint_round_trip(trained, tmp_path):
    path = tmp_path / "state.json"
    save_training_checkpoint(trained, path)
    loaded = load_training_checkpoint(path)
    assert loaded.best_val_recall1 == trained.best_val_recall1
    assert loaded.best_checkpoint == trained.best_checkpoint
    assert set(loaded.heads) == set(trained.heads)
    for g in trained.heads:
        np.testing.assert_array_equal(loaded.heads[g].weights, trained.heads[g].weights)
    for name in trained.moments.first:
        np.testing.assert_array_equal(loaded.moments.first[name], trained.moments.first[name])
    doc = json.loads(path.read_text())
    del doc["heads"]
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match="heads"):
        load_training_checkpoint(path)
