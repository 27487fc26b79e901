"""Descriptor model: channel pooling, linear projection, L2 normalization.

Inputs are feature maps of shape (C, H, W); the deep backbone that would
produce them on real imagery is out of scope, so maps come from a feature
store or the synthetic-world generator, which writes float32. Pooling casts
the maps to float64, so every later step computes in float64.
Generalized-mean pooling clamps at zero first so the p-th power stays real;
p = 1 reproduces average pooling and large p approaches max pooling.

A training step with a learned GeM exponent runs ``forward_cached``: it
raises each clamped map to the power p once and returns the descriptors with
a ``ForwardCache`` (the powers, pooled vectors, raw norms and descriptors),
and ``backward_cached`` turns descriptor gradients into exact analytic
gradients of the composed map pool -> affine -> normalize with respect to
the projection, the bias and the GeM exponent p, without pooling again.
``forward_cached`` is ``_pool`` followed by ``project`` (the affine map, the
normalization and the cache). ``pool``,
``forward``/``forward_batch`` and ``backward``/``backward_batch`` call the
same kernel; the gradients are verified against central finite differences
in the tests.

With a fixed exponent (average, max, or GeM whose p is not learned) a map's
pooled vector depends on the map alone, so training pools each store once
per run and each step runs ``project`` on the gathered vectors; that cache
carries no GeM terms, so ``backward_cached`` skips the p-gradient.
That is not a descriptor cache: descriptors depend on the projection, which
every step changes, and ``project`` recomputes them from the pooled inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import check_header, dump_json, read_json, write_atomic
from .errors import CheckpointError, DomainError

GEM = "gem"
AVERAGE = "average"
MAX = "max"
POOLINGS = (GEM, AVERAGE, MAX)

MODEL_FORMAT = "embedding-model"
MODEL_VERSION = 1

_NORM_FLOOR = 1e-12


def _pool(
    features: np.ndarray, pooling: str, p: float
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray] | None]:
    """Pooled vectors plus, for GeM, (clamped maps, their p-th powers, spatial means)."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim < 3 or features.shape[-1] < 1 or features.shape[-2] < 1:
        raise DomainError(f"feature map must be (..., C, H, W), got shape {features.shape}")
    if not np.all(np.isfinite(features)):
        raise DomainError("feature map contains non-finite values")
    if pooling == AVERAGE:
        return features.mean(axis=(-2, -1)), None
    if pooling == MAX:
        return features.max(axis=(-2, -1)), None
    if pooling == GEM:
        if p < 1.0:
            raise DomainError(f"gem exponent must be >= 1, got {p}")
        clamped = np.maximum(features, 0.0)
        powers = np.power(clamped, p)
        means = powers.mean(axis=(-2, -1))
        return np.power(means, 1.0 / p), (clamped, powers, means)
    raise DomainError(f"unknown pooling {pooling!r}; expected one of {POOLINGS}")


def pool(features: np.ndarray, pooling: str, p: float = 3.0) -> np.ndarray:
    """Reduce the spatial axes of one map (C, H, W) or a batch (B, C, H, W)."""
    return _pool(features, pooling, p)[0]


@dataclass
class EmbeddingModel:
    """Pooling choice plus a D x C projection and a D-vector bias."""

    pooling: str
    gem_p: float
    projection: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        if self.pooling not in POOLINGS:
            raise DomainError(f"unknown pooling {self.pooling!r}")
        self.projection = np.asarray(self.projection, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.projection.ndim != 2 or self.projection.shape[0] < 1:
            raise DomainError(f"projection must be a D x C matrix, got shape {self.projection.shape}")
        if self.bias.shape != (self.projection.shape[0],):
            raise DomainError("bias length must match the projection output dimension")
        if not (np.all(np.isfinite(self.projection)) and np.all(np.isfinite(self.bias))):
            raise DomainError("model parameters must be finite")

    @property
    def output_dim(self) -> int:
        return self.projection.shape[0]

    @property
    def channels(self) -> int:
        return self.projection.shape[1]


@dataclass(frozen=True)
class ModelConfig:
    """How to build a fresh EmbeddingModel."""

    output_dim: int = 512
    pooling: str = GEM
    gem_p: float = 3.0
    learn_gem_p: bool = False

    def __post_init__(self) -> None:
        if self.output_dim < 1:
            raise DomainError(f"output dimension must be >= 1, got {self.output_dim}")
        if self.pooling not in POOLINGS:
            raise DomainError(f"unknown pooling {self.pooling!r}")
        if self.pooling == GEM and self.gem_p < 1.0:
            raise DomainError(f"gem exponent must be >= 1, got {self.gem_p}")


def init_model(channels: int, cfg: ModelConfig, seed: int) -> EmbeddingModel:
    """Seeded Gaussian projection scaled by 1/sqrt(C); zero bias."""
    if channels < 1:
        raise DomainError(f"channel count must be >= 1, got {channels}")
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, 0x6D0DE1]))
    projection = rng.standard_normal((cfg.output_dim, channels)) / np.sqrt(channels)
    bias = np.zeros(cfg.output_dim)
    return EmbeddingModel(pooling=cfg.pooling, gem_p=cfg.gem_p, projection=projection, bias=bias)


def forward(m: EmbeddingModel, features: np.ndarray) -> np.ndarray:
    """Unit-norm descriptor of one (C, H, W) feature map."""
    return forward_batch(m, np.asarray(features)[None, ...])[0]


@dataclass
class ForwardCache:
    """What ``backward_cached`` needs from one forward pass over a batch.

    Valid only for the model parameters it was computed with; take the
    gradients before the optimizer updates the model.
    """

    pooled: np.ndarray
    norms: np.ndarray
    descriptors: np.ndarray
    # GeM only: the clamped maps, their p-th powers and the powers' spatial means.
    gem_terms: tuple[np.ndarray, np.ndarray, np.ndarray] | None


def forward_cached(m: EmbeddingModel, features: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Unit-norm descriptors of a (B, C, H, W) batch and the cache backward reuses."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 4:
        raise DomainError(f"batch must be (B, C, H, W), got shape {features.shape}")
    if features.shape[1] != m.channels:
        raise DomainError(f"feature maps have {features.shape[1]} channels, model expects {m.channels}")
    return project(m, *_pool(features, m.pooling, m.gem_p))


def project(
    m: EmbeddingModel,
    pooled: np.ndarray,
    gem_terms: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Unit-norm descriptors of (B, C) pooled vectors and the cache backward reuses.

    ``gem_terms`` are ``_pool``'s GeM terms for the same rows; without them
    ``backward_cached`` reports a zero p-gradient.
    """
    raw = pooled @ m.projection.T + m.bias
    norms = np.linalg.norm(raw, axis=1)
    if np.any(norms < _NORM_FLOOR):
        raise DomainError("degenerate descriptor: projection output has (near-)zero norm")
    descriptors = raw / norms[:, None]
    return descriptors, ForwardCache(pooled=pooled, norms=norms, descriptors=descriptors, gem_terms=gem_terms)


def forward_batch(m: EmbeddingModel, features: np.ndarray) -> np.ndarray:
    """Unit-norm descriptors, one row per map in a (B, C, H, W) batch."""
    return forward_cached(m, features)[0]


@dataclass
class ModelGradients:
    projection: np.ndarray
    bias: np.ndarray
    gem_p: float


def _gem_dpool_dp(
    clamped: np.ndarray, powers: np.ndarray, means: np.ndarray, pooled: np.ndarray, p: float
) -> np.ndarray:
    # d/dp of (mean x^p)^(1/p) per channel; zero wherever the channel pools to 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        logx = np.where(clamped > 0.0, np.log(np.where(clamped > 0.0, clamped, 1.0)), 0.0)
    t = (powers * logx).mean(axis=(-2, -1))
    out = np.zeros_like(means)
    ok = means > 0.0
    out[ok] = pooled[ok] * (t[ok] / (p * means[ok]) - np.log(means[ok]) / (p * p))
    return out


def backward_cached(m: EmbeddingModel, cache: ForwardCache, grad_descriptors: np.ndarray) -> ModelGradients:
    """Parameter gradients, summed over the batch, from a forward cache.

    The GeM exponent's gradient is computed only when the cache carries GeM
    terms (``forward_cached`` of a GeM model); otherwise it is reported as 0.
    """
    grad_descriptors = np.asarray(grad_descriptors, dtype=np.float64)
    d = cache.descriptors
    if grad_descriptors.shape != d.shape:
        raise DomainError(f"descriptor gradients have shape {grad_descriptors.shape}, descriptors {d.shape}")
    norms = cache.norms
    # Jacobian of x/||x|| maps g to (g - (g.d) d)/||x||.
    g_raw = (grad_descriptors - (grad_descriptors * d).sum(axis=1, keepdims=True) * d) / norms[:, None]
    grad_projection = g_raw.T @ cache.pooled
    grad_bias = g_raw.sum(axis=0)
    grad_p = 0.0
    if cache.gem_terms is not None:
        g_pooled = g_raw @ m.projection
        dpool_dp = _gem_dpool_dp(*cache.gem_terms, cache.pooled, m.gem_p)
        grad_p = float((g_pooled * dpool_dp).sum())
    return ModelGradients(projection=grad_projection, bias=grad_bias, gem_p=grad_p)


def backward_batch(
    m: EmbeddingModel, features: np.ndarray, grad_descriptors: np.ndarray
) -> ModelGradients:
    """Parameter gradients, summed over the batch, for given descriptor gradients."""
    return backward_cached(m, forward_cached(m, features)[1], grad_descriptors)


def backward(m: EmbeddingModel, features: np.ndarray, grad_descriptor: np.ndarray) -> ModelGradients:
    """Single-map convenience wrapper around backward_batch."""
    return backward_batch(m, np.asarray(features)[None, ...], np.asarray(grad_descriptor)[None, :])


def model_to_dict(m: EmbeddingModel) -> dict:
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "pooling": m.pooling,
        "gem_p": m.gem_p,
        "output_dim": m.output_dim,
        "channels": m.channels,
        "projection": m.projection.tolist(),
        "bias": m.bias.tolist(),
    }


def model_from_dict(doc: dict) -> EmbeddingModel:
    check_header(doc, MODEL_FORMAT, MODEL_VERSION, CheckpointError, "model checkpoint")
    try:
        m = EmbeddingModel(
            pooling=doc["pooling"],
            gem_p=float(doc["gem_p"]),
            projection=np.array(doc["projection"], dtype=np.float64),
            bias=np.array(doc["bias"], dtype=np.float64),
        )
        if m.output_dim != doc["output_dim"] or m.channels != doc["channels"]:
            raise CheckpointError("checkpoint dimensions disagree with its stored arrays")
    except (KeyError, TypeError, ValueError, DomainError) as exc:
        raise CheckpointError(f"model checkpoint has a missing or malformed field: {exc!r}") from exc
    return m


def checkpoint_bytes(m: EmbeddingModel, extra: dict | None = None) -> bytes:
    """Deterministic serialized checkpoint (sorted keys, exact float repr)."""
    doc = model_to_dict(m)
    if extra:
        doc.update(extra)
    return dump_json(doc).encode("utf-8")


def save_model(m: EmbeddingModel, path: str | Path, extra: dict | None = None) -> None:
    write_atomic(path, checkpoint_bytes(m, extra))


def load_model(path: str | Path) -> EmbeddingModel:
    return model_from_dict(read_json(path, CheckpointError, "model checkpoint"))
