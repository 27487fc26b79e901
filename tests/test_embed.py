import numpy as np
import pytest

from geoloc.embed import (
    AVERAGE,
    GEM,
    MAX,
    EmbeddingModel,
    ModelConfig,
    backward,
    checkpoint_bytes,
    forward,
    forward_batch,
    init_model,
    load_model,
    model_from_dict,
    model_to_dict,
    pool,
    save_model,
)
from geoloc.errors import CheckpointError, DomainError


def central_difference(f, x, eps=1e-6):
    """Independent numerical gradient oracle: central differences per entry."""
    x = np.asarray(x, dtype=np.float64)
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


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


def random_model(rng, channels, dim, pooling=GEM, p=3.0):
    return EmbeddingModel(
        pooling=pooling,
        gem_p=p,
        projection=rng.standard_normal((dim, channels)),
        bias=0.1 * rng.standard_normal(dim),
    )


def test_gem_p1_equals_average():
    rng = np.random.default_rng(0)
    fm = np.abs(rng.standard_normal((5, 3, 4)))
    assert np.max(np.abs(pool(fm, GEM, 1.0) - pool(fm, AVERAGE))) < 1e-12


def test_pooling_of_constant_map():
    fm = np.full((3, 2, 2), 4.2)
    for pooling in (GEM, AVERAGE, MAX):
        assert pool(fm, pooling) == pytest.approx([4.2, 4.2, 4.2])


def test_gem_hand_value():
    # Channel holding {1, 7}, p = 3: ((1 + 343)/2)^(1/3).
    fm = np.array([[[1.0, 7.0]]])
    expected = ((1.0 + 343.0) / 2.0) ** (1.0 / 3.0)
    assert pool(fm, GEM, 3.0)[0] == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(5.5613, abs=1e-4)


def test_gem_monotone_in_p_and_approaches_max():
    rng = np.random.default_rng(1)
    fm = np.abs(rng.standard_normal((6, 4, 4)))
    values = [pool(fm, GEM, p) for p in (1.0, 2.0, 3.0, 8.0, 16.0, 64.0)]
    for lo, hi in zip(values, values[1:]):
        assert np.all(hi >= lo - 1e-12)
    mx = pool(fm, MAX)
    assert np.all(np.abs(values[-1] - mx) / mx < 0.05)


def test_pool_rejects_bad_input():
    with pytest.raises(DomainError):
        pool(np.array([[[np.nan]]]), AVERAGE)
    with pytest.raises(DomainError):
        pool(np.ones((3, 2, 2)), GEM, 0.5)
    with pytest.raises(DomainError):
        pool(np.ones((3, 2, 2)), "median")


def test_forward_identity_projection_one_hot():
    m = EmbeddingModel(pooling=AVERAGE, gem_p=3.0, projection=np.eye(4), bias=np.zeros(4))
    fm = np.zeros((4, 2, 2))
    fm[2] = 1.0
    d = forward(m, fm)
    assert d == pytest.approx([0.0, 0.0, 1.0, 0.0])


def test_forward_absorbs_positive_scaling():
    rng = np.random.default_rng(2)
    m = EmbeddingModel(pooling=AVERAGE, gem_p=3.0, projection=rng.standard_normal((5, 3)), bias=np.zeros(5))
    fm = rng.standard_normal((3, 2, 2))
    np.testing.assert_allclose(forward(m, fm), forward(m, 10.0 * fm), atol=1e-12)


def test_forward_unit_norm():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = random_model(rng, 4, 6)
        fm = rng.standard_normal((4, 3, 3))
        assert abs(np.linalg.norm(forward(m, fm)) - 1.0) < 1e-6


def test_forward_scale_invariance_of_parameters():
    rng = np.random.default_rng(4)
    fm = np.abs(rng.standard_normal((4, 2, 2)))
    m = random_model(rng, 4, 5)
    scaled = EmbeddingModel(pooling=m.pooling, gem_p=m.gem_p, projection=3.7 * m.projection, bias=3.7 * m.bias)
    np.testing.assert_allclose(forward(m, fm), forward(scaled, fm), atol=1e-12)


def test_forward_rejects_degenerate_descriptor():
    m = EmbeddingModel(pooling=AVERAGE, gem_p=3.0, projection=np.zeros((3, 2)), bias=np.zeros(3))
    with pytest.raises(DomainError, match="degenerate"):
        forward(m, np.ones((2, 2, 2)))


def test_forward_batch_matches_singles():
    rng = np.random.default_rng(5)
    m = random_model(rng, 5, 4)
    fms = np.abs(rng.standard_normal((7, 5, 2, 3)))
    batch = forward_batch(m, fms)
    singles = np.stack([forward(m, fm) for fm in fms])
    np.testing.assert_allclose(batch, singles, atol=1e-12)


def test_normalization_jacobian_kills_radial_direction():
    rng = np.random.default_rng(6)
    m = random_model(rng, 4, 5, pooling=AVERAGE)
    fm = np.abs(rng.standard_normal((4, 2, 2)))
    d = forward(m, fm)
    # A gradient along the descriptor itself produces zero parameter updates.
    grads = backward(m, fm, d.copy())
    assert np.abs(grads.projection).max() < 1e-10
    assert np.abs(grads.bias).max() < 1e-10


def test_zero_descriptor_gradient_gives_zero_parameter_gradients():
    rng = np.random.default_rng(7)
    m = random_model(rng, 3, 4)
    fm = np.abs(rng.standard_normal((3, 2, 2)))
    grads = backward(m, fm, np.zeros(4))
    assert np.abs(grads.projection).max() == 0.0
    assert np.abs(grads.bias).max() == 0.0
    assert grads.gem_p == 0.0


@pytest.mark.parametrize("pooling", [GEM, AVERAGE, MAX])
def test_backward_matches_finite_differences(pooling):
    rng = np.random.default_rng(8)
    for _ in range(12):
        channels, dim = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        h, w = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        m = random_model(rng, channels, dim, pooling=pooling, p=float(rng.uniform(1.5, 4.0)))
        fm = np.abs(rng.standard_normal((channels, h, w))) + 0.1
        g = rng.standard_normal(dim)
        got = backward(m, fm, g)

        def loss_of_projection(proj):
            mm = EmbeddingModel(pooling=m.pooling, gem_p=m.gem_p, projection=proj, bias=m.bias)
            return float(forward(mm, fm) @ g)

        def loss_of_bias(bias):
            mm = EmbeddingModel(pooling=m.pooling, gem_p=m.gem_p, projection=m.projection, bias=bias)
            return float(forward(mm, fm) @ g)

        assert rel_err(got.projection, central_difference(loss_of_projection, m.projection.copy())) < 1e-4
        assert rel_err(got.bias, central_difference(loss_of_bias, m.bias.copy())) < 1e-4

        if pooling == GEM:
            def loss_of_p(p_arr):
                mm = EmbeddingModel(pooling=GEM, gem_p=float(p_arr[0]), projection=m.projection, bias=m.bias)
                return float(forward(mm, fm) @ g)

            fd_p = central_difference(loss_of_p, np.array([m.gem_p]))[0]
            assert abs(got.gem_p - fd_p) / max(abs(fd_p), 1e-8) < 1e-4


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    m = random_model(rng, 6, 8)
    path = tmp_path / "model.json"
    save_model(m, path)
    loaded = load_model(path)
    assert loaded.pooling == m.pooling
    assert loaded.gem_p == m.gem_p
    np.testing.assert_array_equal(loaded.projection, m.projection)
    np.testing.assert_array_equal(loaded.bias, m.bias)
    # Deterministic bytes.
    assert checkpoint_bytes(m) == checkpoint_bytes(loaded)


def test_checkpoint_rejects_foreign_documents():
    with pytest.raises(CheckpointError):
        model_from_dict({"format": "something-else"})
    doc = model_to_dict(init_model(3, ModelConfig(output_dim=4), seed=0))
    doc["version"] = 999
    with pytest.raises(CheckpointError):
        model_from_dict(doc)
    doc = model_to_dict(init_model(3, ModelConfig(output_dim=4), seed=0))
    del doc["projection"]
    with pytest.raises(CheckpointError, match="projection"):
        model_from_dict(doc)
    with pytest.raises(CheckpointError):
        model_from_dict([1, 2])


def test_init_model_is_seeded():
    a = init_model(5, ModelConfig(output_dim=7), seed=42)
    b = init_model(5, ModelConfig(output_dim=7), seed=42)
    c = init_model(5, ModelConfig(output_dim=7), seed=43)
    np.testing.assert_array_equal(a.projection, b.projection)
    assert np.abs(a.projection - c.projection).max() > 0.0
