"""The cached training step against the uncached composition it replaced.

The reference functions below are the pool, forward, loss, gradient and
backward arithmetic as separate passes, each recomputing what it needs from
the raw inputs. The cached step performs the same operations in the same
order, so the comparison is exact (``np.array_equal``), not a tolerance.
"""

import numpy as np
import pytest

from geoloc import embed
from geoloc.embed import AVERAGE, GEM, MAX, EmbeddingModel
from geoloc.errors import DomainError
from geoloc.loss import (
    ClassifierHead,
    LossConfig,
    margin_cosine_grads,
    margin_cosine_kernel,
    margin_cosine_loss_and_grads,
)
from geoloc.partition import GroupId
from geoloc.train import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamMoments, GroupTable, TrainConfig, adam_step, sample_batch

G0 = GroupId(0, 0, 0)
CFG = LossConfig(margin=0.35, scale=30.0)


def reference_pool(features, pooling, p):
    if pooling == AVERAGE:
        return features.mean(axis=(-2, -1))
    if pooling == MAX:
        return features.max(axis=(-2, -1))
    clamped = np.maximum(features, 0.0)
    return np.power(np.power(clamped, p).mean(axis=(-2, -1)), 1.0 / p)


def reference_forward(m, features):
    pooled = reference_pool(features, m.pooling, m.gem_p)
    raw = pooled @ m.projection.T + m.bias
    norms = np.linalg.norm(raw, axis=1)
    return raw / norms[:, None]


def _reference_logits(descriptors, labels, head, cfg):
    row_norms = np.linalg.norm(head.weights, axis=1)
    w_hat = head.weights / row_norms[:, None]
    z = cfg.scale * (descriptors @ w_hat.T)
    z[np.arange(len(labels)), labels] -= cfg.scale * cfg.margin
    return z, w_hat, row_norms


def reference_loss(descriptors, labels, head, cfg):
    z, _, _ = _reference_logits(descriptors, labels, head, cfg)
    zmax = z.max(axis=1, keepdims=True)
    log_sum = np.log(np.exp(z - zmax).sum(axis=1))
    return float(((zmax[:, 0] - z[np.arange(len(labels)), labels]) + log_sum).mean())


def reference_grads(descriptors, labels, head, cfg):
    z, w_hat, row_norms = _reference_logits(descriptors, labels, head, cfg)
    batch = len(labels)
    zmax = z.max(axis=1, keepdims=True)
    e = np.exp(z - zmax)
    probs = e / e.sum(axis=1, keepdims=True)
    probs[np.arange(batch), labels] -= 1.0
    coeff = (cfg.scale / batch) * probs
    grad_w_hat = coeff.T @ descriptors
    radial = (grad_w_hat * w_hat).sum(axis=1, keepdims=True)
    return coeff @ w_hat, (grad_w_hat - radial * w_hat) / row_norms[:, None]


def reference_backward(m, features, grad_descriptors):
    pooled = reference_pool(features, m.pooling, m.gem_p)
    raw = pooled @ m.projection.T + m.bias
    norms = np.linalg.norm(raw, axis=1)
    d = raw / norms[:, None]
    g_raw = (grad_descriptors - (grad_descriptors * d).sum(axis=1, keepdims=True) * d) / norms[:, None]
    grad_p = 0.0
    if m.pooling == GEM:
        p = m.gem_p
        clamped = np.maximum(features, 0.0)
        powed = np.power(clamped, p)
        s = powed.mean(axis=(-2, -1))
        with np.errstate(divide="ignore", invalid="ignore"):
            logx = np.where(clamped > 0.0, np.log(np.where(clamped > 0.0, clamped, 1.0)), 0.0)
        t = (powed * logx).mean(axis=(-2, -1))
        dpool_dp = np.zeros_like(s)
        ok = s > 0.0
        dpool_dp[ok] = pooled[ok] * (t[ok] / (p * s[ok]) - np.log(s[ok]) / (p * p))
        grad_p = float(((g_raw @ m.projection) * dpool_dp).sum())
    return g_raw.T @ pooled, g_raw.sum(axis=0), grad_p


def _problem(seed, pooling):
    rng = np.random.default_rng(seed)
    batch, channels, dim, classes = 9, 6, 5, 4
    m = EmbeddingModel(
        pooling=pooling,
        gem_p=float(rng.uniform(1.5, 4.0)),
        projection=rng.standard_normal((dim, channels)),
        bias=0.1 * rng.standard_normal(dim),
    )
    maps = rng.standard_normal((batch, channels, 3, 2))
    maps[:, 0] = -np.abs(maps[:, 0])  # a channel GeM pools to 0 everywhere
    head = ClassifierHead(group=G0, weights=rng.standard_normal((classes, dim)))
    labels = rng.integers(classes, size=batch)
    return m, maps, labels, head


def _no_p_gradient(*args, **kwargs):
    raise AssertionError("the GeM p-gradient was computed although it is not used")


@pytest.mark.parametrize(
    "pooling, learn_p",
    [(GEM, True), (GEM, False), (AVERAGE, False), (MAX, False)],
)
def test_cached_step_equals_uncached_composition(pooling, learn_p, monkeypatch):
    if not learn_p:
        monkeypatch.setattr(embed, "_gem_dpool_dp", _no_p_gradient)
    for seed in range(5):
        m, maps, labels, head = _problem(seed, pooling)

        # A fixed-p step's input is pooled vectors, whose cache has no GeM terms.
        descriptors, cache = embed.forward(m, maps if learn_p else embed.pool(maps, m.pooling, m.gem_p))
        loss, grad_desc, grad_w = margin_cosine_loss_and_grads(descriptors, labels, head, CFG)
        grads = embed.backward(m, cache, grad_desc)

        ref_desc = reference_forward(m, maps)
        ref_grad_desc, ref_grad_w = reference_grads(ref_desc, labels, head, CFG)
        ref_proj, ref_bias, ref_p = reference_backward(m, maps, ref_grad_desc)
        assert np.array_equal(descriptors, ref_desc)
        assert loss == reference_loss(ref_desc, labels, head, CFG)
        assert np.array_equal(grad_desc, ref_grad_desc)
        assert np.array_equal(grad_w, ref_grad_w)
        assert np.array_equal(grads.projection, ref_proj)
        assert np.array_equal(grads.bias, ref_bias)
        assert grads.gem_p == (ref_p if learn_p else 0.0)

        # Maps and their pooled vectors embed alike; a fixed-p step then runs the unchecked loss kernel.
        pooled_desc, _ = embed.forward(m, embed.pool(maps, m.pooling, m.gem_p))
        assert np.array_equal(pooled_desc, ref_desc)
        assert np.array_equal(embed.forward(m, maps)[0], ref_desc)
        kernel_loss, kernel_grad_desc, kernel_grad_w = margin_cosine_kernel(pooled_desc, labels, head, CFG)
        assert kernel_loss == loss
        assert np.array_equal(kernel_grad_desc, grad_desc) and np.array_equal(kernel_grad_w, grad_w)
        assert np.array_equal(embed.pool(maps, m.pooling, m.gem_p), reference_pool(maps, m.pooling, m.gem_p))
        for got, want in zip(margin_cosine_grads(descriptors, labels, head, CFG), (grad_desc, grad_w)):
            assert np.array_equal(got, want)


def test_cached_backward_rejects_misshapen_gradients():
    m, maps, _, _ = _problem(0, GEM)
    _, cache = embed.forward(m, maps)
    with pytest.raises(DomainError, match="shape"):
        embed.backward(m, cache, np.zeros((len(maps) - 1, m.output_dim)))


def test_desk_shaped_step_is_bitwise_the_textbook_arithmetic():
    # The training step's shapes on the desk world: B = 32, C = D = 64, 8 classes per head.
    rng = np.random.default_rng(30)
    batch, channels, dim, classes = 32, 64, 64, 8
    m = EmbeddingModel(
        pooling=GEM,
        gem_p=3.0,
        projection=rng.standard_normal((dim, channels)) / 8.0,
        bias=0.1 * rng.standard_normal(dim),
    )
    pooled = np.abs(rng.standard_normal((batch, channels)))
    head = ClassifierHead(group=G0, weights=rng.standard_normal((classes, dim)))
    step = np.empty((batch, 2), dtype=np.int64)  # labels are a strided column, as a sampled batch's are
    step[:, 1] = rng.integers(classes, size=batch)
    labels = step[:, 1]

    descriptors, cache = embed.forward(m, pooled)
    raw = pooled @ m.projection.T + m.bias
    assert np.array_equal(cache.norms, np.linalg.norm(raw, axis=1))
    assert np.array_equal(descriptors, raw / np.linalg.norm(raw, axis=1)[:, None])

    # The references spell the kernel with the array methods: .max, .sum, np.exp(z - zmax), .mean().
    got = margin_cosine_kernel(descriptors, labels, head, CFG)
    assert got[0] == reference_loss(descriptors, labels, head, CFG)
    want_grad_desc, want_grad_w = reference_grads(descriptors, labels, head, CFG)
    assert np.array_equal(got[1], want_grad_desc) and np.array_equal(got[2], want_grad_w)

    grads = embed.backward(m, cache, got[1])
    g = got[1]
    g_raw = (g - (g * descriptors).sum(axis=1, keepdims=True) * descriptors) / cache.norms[:, None]
    assert np.array_equal(grads.projection, g_raw.T @ pooled)
    assert np.array_equal(grads.bias, g_raw.sum(axis=0))

    cfg = TrainConfig(learning_rate=0.01)
    theta = np.concatenate([m.projection.ravel(), m.bias])
    moments = AdamMoments.zeros_like(theta)
    want_theta, first, second = theta.copy(), np.zeros_like(theta), np.zeros_like(theta)
    for t in range(1, 6):
        grad = rng.standard_normal(theta.shape)
        adam_step(theta, grad, moments, cfg)
        first = ADAM_BETA1 * first + (1.0 - ADAM_BETA1) * grad
        second = ADAM_BETA2 * second + (1.0 - ADAM_BETA2) * np.square(grad)
        m_hat = first / (1.0 - ADAM_BETA1**t)
        v_hat = second / (1.0 - ADAM_BETA2**t)
        want_theta = want_theta - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        assert moments.steps == t
        assert np.array_equal(theta, want_theta)
        assert np.array_equal(moments.first, first) and np.array_equal(moments.second, second)

    sizes = rng.integers(4, 13, size=classes)
    table = GroupTable(rng.permutation(1000)[: sizes.sum()], np.cumsum(sizes) - sizes, sizes)
    drawn, redrawn = np.random.default_rng(31), np.random.default_rng(31)
    for _ in range(5):
        got_batch = sample_batch(table, batch, drawn)
        labels = redrawn.integers(classes, size=batch)
        members = redrawn.integers(table.sizes[labels])
        want_batch = np.stack((table.rows[table.starts[labels] + members], labels), axis=1)
        assert got_batch.dtype == want_batch.dtype and np.array_equal(got_batch, want_batch)


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


@pytest.mark.parametrize("p", [1.0, 3.0, 2.37])
@pytest.mark.parametrize("spatial", [(1, 1), (3, 5), (4, 4), (7, 7)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.uint8])
def test_one_buffer_gem_is_bitwise_the_learned_p_path_and_the_reference(dtype, spatial, p):
    # The fixed-exponent pool casts and clamps into one float64 array and raises it in place;
    # the learned-p path keeps its clamped maps and powers. Both must give the reference's bits,
    # on the float64 cast of the maps, for maps with negative values and for a transposed view.
    rng = np.random.default_rng(43)
    shape = (6, 5, *spatial)
    if dtype == np.uint8:
        maps = rng.integers(0, 256, shape).astype(np.uint8)
    else:
        maps = (rng.standard_normal(shape) * 3.0).astype(dtype)
        assert (maps < 0).any()
    transposed = maps.transpose(0, 1, 3, 2)
    assert transposed.flags.c_contiguous == (1 in spatial)
    for case in (maps, transposed):
        want = reference_pool(case.astype(np.float64), GEM, p)
        assert _bits(embed.pool(case, GEM, p)) == _bits(want)
        learned, terms = embed._pool(case, GEM, p, gem_terms=True)
        assert terms is not None and _bits(learned) == _bits(want)


@pytest.mark.parametrize("gem_terms", [False, True])
def test_one_buffer_gem_keeps_its_error_texts(gem_terms):
    def pool(maps, p=3.0):
        return embed._pool(maps, GEM, p, gem_terms=gem_terms)

    with pytest.raises(DomainError, match=r"^feature map contains non-finite values$"):
        pool(np.array([[[np.inf]]], dtype=np.float32))
    with pytest.raises(DomainError, match=r"^feature map must be \(\.\.\., C, H, W\), got shape \(2, 2\)$"):
        pool(np.ones((2, 2)))
    with pytest.raises(DomainError, match=r"^gem exponent must be >= 1, got 0\.5$"):
        pool(np.ones((3, 2, 2)), 0.5)
    with pytest.raises(DomainError, match=r"^gem exponent 300\.0 overflows float64 on these feature maps$"):
        pool(np.full((3, 2, 2), 30.0, dtype=np.float32), 300.0)
