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
    margin_cosine_loss,
    margin_cosine_loss_and_grads,
)
from geoloc.partition import GroupId

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

        if learn_p:
            descriptors, cache = embed.forward_cached(m, maps)
        else:
            # A fixed-p step's cache: pooled vectors without GeM terms.
            descriptors, cache = embed.project(m, embed.pool(maps, m.pooling, m.gem_p))
        loss, grad_desc, grad_w = margin_cosine_loss_and_grads(descriptors, labels, head, CFG)
        grads = embed.backward_cached(m, cache, grad_desc)

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

        # The public entry points share the kernel and agree exactly.
        assert np.array_equal(embed.forward_batch(m, maps), ref_desc)
        # So does a fixed-p training step: project pooled vectors, then the unchecked loss kernel.
        pooled_desc, _ = embed.project(m, embed.pool(maps, m.pooling, m.gem_p))
        assert np.array_equal(pooled_desc, ref_desc)
        kernel_loss, kernel_grad_desc, kernel_grad_w = margin_cosine_kernel(pooled_desc, labels, head, CFG)
        assert kernel_loss == loss
        assert np.array_equal(kernel_grad_desc, grad_desc) and np.array_equal(kernel_grad_w, grad_w)
        assert np.array_equal(embed.pool(maps, m.pooling, m.gem_p), reference_pool(maps, m.pooling, m.gem_p))
        assert margin_cosine_loss(descriptors, labels, head, CFG) == loss
        for got, want in zip(margin_cosine_grads(descriptors, labels, head, CFG), (grad_desc, grad_w)):
            assert np.array_equal(got, want)
        if learn_p or pooling != GEM:
            whole = embed.backward_batch(m, maps, grad_desc)
            assert np.array_equal(whole.projection, ref_proj)
            assert np.array_equal(whole.bias, ref_bias)
            assert whole.gem_p == ref_p


def test_cached_backward_rejects_misshapen_gradients():
    m, maps, _, _ = _problem(0, GEM)
    _, cache = embed.forward_cached(m, maps)
    with pytest.raises(DomainError, match="shape"):
        embed.backward_cached(m, cache, np.zeros((len(maps) - 1, m.output_dim)))
