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
    init_model,
    load_model,
    model_from_dict,
    model_to_dict,
    pool,
    save_model,
)
from geoloc.errors import CheckpointError, DomainError
from oracles import central_difference, rel_err


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


@pytest.mark.parametrize("pooling", [GEM, AVERAGE, MAX])
def test_complex_maps_are_rejected_not_truncated(pooling):
    # A float64 cast would drop the imaginary part; the store loader already rejects such maps.
    maps = np.ones((1, 2, 2, 2), complex)
    message = r"^feature maps must be real numbers, not complex128$"
    with pytest.raises(DomainError, match=message):
        pool(maps, pooling, 3.0)
    m = EmbeddingModel(pooling=pooling, gem_p=3.0, projection=np.eye(2), bias=np.zeros(2))
    for batch in (maps, np.ones((1, 2), complex)):
        with pytest.raises(DomainError, match=message):
            forward(m, batch)


def test_gem_overflow_names_the_exponent():
    # 30**300 overflows float64 although every map value is finite; a sum of
    # finite powers can overflow too.
    with pytest.raises(DomainError, match=r"gem exponent 300\.0 overflows float64"):
        pool(np.full((3, 2, 2), 30.0), GEM, 300.0)
    with pytest.raises(DomainError, match=r"gem exponent 1\.0 overflows float64"):
        pool(np.full((3, 2, 2), 1e308), GEM, 1.0)
    assert np.isfinite(pool(np.full((3, 2, 2), 30.0), GEM, 200.0)).all()


@pytest.mark.parametrize("pooling", [GEM, AVERAGE, MAX])
def test_pool_of_float32_maps_equals_pool_of_their_float64_cast(pooling):
    # Stores hold float32 maps; pooling computes in float64 whatever it is given.
    maps = (np.random.default_rng(12).standard_normal((5, 6, 3, 2)) + 2.0).astype(np.float32)
    got = pool(maps, pooling, 3.0)
    assert got.dtype == np.float64
    assert np.array_equal(got, pool(maps.astype(np.float64), pooling, 3.0))


def test_forward_identity_projection_one_hot():
    m = EmbeddingModel(pooling=AVERAGE, gem_p=3.0, projection=np.eye(4), bias=np.zeros(4))
    fm = np.zeros((4, 2, 2))
    fm[2] = 1.0
    d = forward(m, fm[None])[0][0]
    assert d == pytest.approx([0.0, 0.0, 1.0, 0.0])


def test_forward_absorbs_positive_scaling():
    rng = np.random.default_rng(2)
    m = EmbeddingModel(pooling=AVERAGE, gem_p=3.0, projection=rng.standard_normal((5, 3)), bias=np.zeros(5))
    fm = rng.standard_normal((3, 2, 2))
    np.testing.assert_allclose(forward(m, fm[None])[0][0], forward(m, 10.0 * fm[None])[0][0], atol=1e-12)


def test_forward_unit_norm():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = random_model(rng, 4, 6)
        fm = rng.standard_normal((4, 3, 3))
        assert abs(np.linalg.norm(forward(m, fm[None])[0][0]) - 1.0) < 1e-6


def test_forward_scale_invariance_of_parameters():
    rng = np.random.default_rng(4)
    fm = np.abs(rng.standard_normal((4, 2, 2)))
    m = random_model(rng, 4, 5)
    scaled = EmbeddingModel(pooling=m.pooling, gem_p=m.gem_p, projection=3.7 * m.projection, bias=3.7 * m.bias)
    np.testing.assert_allclose(forward(m, fm[None])[0][0], forward(scaled, fm[None])[0][0], atol=1e-12)


def test_forward_rejects_degenerate_descriptor():
    m = EmbeddingModel(pooling=AVERAGE, gem_p=3.0, projection=np.zeros((3, 2)), bias=np.zeros(3))
    with pytest.raises(DomainError, match="degenerate"):
        forward(m, np.ones((1, 2, 2, 2)))


def test_forward_batch_matches_singles():
    rng = np.random.default_rng(5)
    m = random_model(rng, 5, 4)
    fms = np.abs(rng.standard_normal((7, 5, 2, 3)))
    batch = forward(m, fms)[0]
    singles = np.stack([forward(m, fm[None])[0][0] for fm in fms])
    np.testing.assert_allclose(batch, singles, atol=1e-12)


@pytest.mark.parametrize("pooling", [GEM, AVERAGE, MAX])
def test_forward_cached_is_the_checked_pool_batch_then_project(pooling):
    rng = np.random.default_rng(13)
    m = random_model(rng, 5, 4, pooling=pooling)
    fms = rng.standard_normal((6, 5, 2, 3)).astype(np.float32)
    pooled = pool(fms, pooling, m.gem_p)
    descriptors, cache = forward(m, fms)
    assert (cache.gem_terms is not None) == (pooling == GEM)
    assert np.array_equal(descriptors, forward(m, pooled)[0])
    assert np.array_equal(cache.pooled, pooled)
    with pytest.raises(DomainError, match="feature maps have 4 channels, model expects 5"):
        forward(m, fms[:, :4])
    with pytest.raises(DomainError, match=r"batch must be \(B, C, H, W\)"):
        forward(m, fms[0])


def test_normalization_jacobian_kills_radial_direction():
    rng = np.random.default_rng(6)
    m = random_model(rng, 4, 5, pooling=AVERAGE)
    fm = np.abs(rng.standard_normal((4, 2, 2)))
    d = forward(m, fm[None])[0][0]
    # A gradient along the descriptor itself produces zero parameter updates.
    grads = backward(m, forward(m, fm[None])[1], d[None].copy())
    assert np.abs(grads.projection).max() < 1e-10
    assert np.abs(grads.bias).max() < 1e-10


def test_zero_descriptor_gradient_gives_zero_parameter_gradients():
    rng = np.random.default_rng(7)
    m = random_model(rng, 3, 4)
    fm = np.abs(rng.standard_normal((3, 2, 2)))
    grads = backward(m, forward(m, fm[None])[1], np.zeros((1, 4)))
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
        got = backward(m, forward(m, fm[None])[1], g[None])

        def loss_of_projection(proj):
            mm = EmbeddingModel(pooling=m.pooling, gem_p=m.gem_p, projection=proj, bias=m.bias)
            return float(forward(mm, fm[None])[0][0] @ g)

        def loss_of_bias(bias):
            mm = EmbeddingModel(pooling=m.pooling, gem_p=m.gem_p, projection=m.projection, bias=bias)
            return float(forward(mm, fm[None])[0][0] @ g)

        assert rel_err(got.projection, central_difference(loss_of_projection, m.projection.copy(), eps=1e-6)) < 1e-4
        assert rel_err(got.bias, central_difference(loss_of_bias, m.bias.copy(), eps=1e-6)) < 1e-4

        if pooling == GEM:
            def loss_of_p(p_arr):
                mm = EmbeddingModel(pooling=GEM, gem_p=float(p_arr[0]), projection=m.projection, bias=m.bias)
                return float(forward(mm, fm[None])[0][0] @ g)

            fd_p = central_difference(loss_of_p, np.array([m.gem_p]), eps=1e-6)[0]
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
