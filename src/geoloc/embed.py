"""Descriptor model: channel pooling, linear projection, L2 normalization.

Inputs are feature maps of shape (C, H, W); the deep backbone that would
produce them on real imagery is out of scope, so maps come from a feature
store or the synthetic-world generator, which writes float32. Pooling casts
the maps to float64, so every later step computes in float64; complex maps
raise DomainError rather than lose their imaginary part to the cast.
Generalized-mean pooling clamps at zero first so the p-th power stays real;
p = 1 reproduces average pooling and large p approaches max pooling. An
exponent whose powers of the maps overflow float64 raises DomainError naming
the exponent, since the maps themselves are finite. ``pool`` does GeM in one
float64 array: one ``np.maximum`` casts and clamps, the p-th power and, after
the spatial mean, the root are taken in place.

``forward`` is the one forward pass. It takes a (B, C, H, W) batch of maps,
which it pools with the model's pooling and exponent, or (B, C) pooled rows,
then projects, normalizes, and returns the descriptors with a
``ForwardCache`` (the pooled vectors, raw norms and descriptors, plus, for
maps under GeM, the clamped maps, their p-th powers and spatial means).
``backward`` is the one backward pass: it turns descriptor gradients into
exact analytic gradients of the composed pool -> affine -> normalize with
respect to the projection, the bias and the GeM exponent p, without pooling
again. ``pool`` applies a pooling without a model. The gradients are
verified against central finite differences in the tests.

With a fixed exponent (average, max, or GeM whose p is not learned) a map's
pooled vector depends on the map alone, so the store loader pools each chunk
of maps as it reads them (``pool``, with the run's or a loaded checkpoint's
pooling and exponent), and a step runs ``forward`` on the gathered rows, as
eval's loader does on each pooled chunk.
That cache carries no GeM terms, so ``backward`` skips the p-gradient. It
is not a descriptor cache: descriptors depend on the projection, which every
step changes.
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


def _real(features: np.ndarray) -> np.ndarray:
    """``features`` as an array; DomainError unless it holds real numbers (a cast would drop an imaginary part)."""
    features = np.asarray(features)
    if features.dtype.kind not in "biuf":
        raise DomainError(f"feature maps must be real numbers, not {features.dtype}")
    return features


def _pool(
    features: np.ndarray, pooling: str, p: float, gem_terms: bool = False
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray] | None]:
    """Pooled vectors plus, for GeM with ``gem_terms``, (clamped maps, their p-th powers, spatial means).

    Without the terms, GeM works in one float64 array: the cast and clamp, raised to p in place.
    """
    features = _real(features)
    if features.ndim < 3 or features.shape[-1] < 1 or features.shape[-2] < 1:
        raise DomainError(f"feature map must be (..., C, H, W), got shape {features.shape}")
    if not np.all(np.isfinite(features)):
        raise DomainError("feature map contains non-finite values")
    if pooling == AVERAGE:
        return features.astype(np.float64, copy=False).mean(axis=(-2, -1)), None
    if pooling == MAX:
        return features.astype(np.float64, copy=False).max(axis=(-2, -1)), None
    if pooling == GEM:
        if not p >= 1.0:
            raise DomainError(f"gem exponent must be >= 1, got {p}")
        clamped = np.maximum(features, 0.0, dtype=np.float64)
        with np.errstate(over="ignore"):
            powers = np.power(clamped, p, out=None if gem_terms else clamped)
            means = powers.mean(axis=(-2, -1))
        if not np.all(np.isfinite(means)):
            raise DomainError(f"gem exponent {p} overflows float64 on these feature maps")
        if not gem_terms:
            return np.power(means, 1.0 / p, out=means), None
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
        if self.pooling == GEM and not self.gem_p >= 1.0:
            raise DomainError(f"gem exponent must be >= 1, got {self.gem_p}")


def init_model(channels: int, cfg: ModelConfig, seed: int) -> EmbeddingModel:
    """Seeded Gaussian projection scaled by 1/sqrt(C); zero bias."""
    if channels < 1:
        raise DomainError(f"channel count must be >= 1, got {channels}")
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, 0x6D0DE1]))
    projection = rng.standard_normal((cfg.output_dim, channels)) / np.sqrt(channels)
    bias = np.zeros(cfg.output_dim)
    return EmbeddingModel(pooling=cfg.pooling, gem_p=cfg.gem_p, projection=projection, bias=bias)


@dataclass
class ForwardCache:
    """What ``backward`` needs from one forward pass over a batch.

    Valid only for the model parameters it was computed with; take the
    gradients before the optimizer updates the model.
    """

    pooled: np.ndarray
    norms: np.ndarray
    descriptors: np.ndarray
    # GeM of maps only: the clamped maps, their p-th powers and the powers' spatial means.
    gem_terms: tuple[np.ndarray, np.ndarray, np.ndarray] | None


def forward(m: EmbeddingModel, features: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Unit-norm descriptors of a (B, C, H, W) batch of maps or (B, C) pooled rows, and the cache ``backward`` reuses.

    Maps are pooled with the model's pooling and exponent; pooled rows carry
    no GeM terms, so ``backward`` reports a zero p-gradient for them.
    """
    features = _real(features).astype(np.float64, copy=False)
    if features.ndim not in (2, 4):
        raise DomainError(f"batch must be (B, C, H, W) maps or (B, C) pooled rows, got shape {features.shape}")
    if features.shape[1] != m.channels:
        raise DomainError(f"feature maps have {features.shape[1]} channels, model expects {m.channels}")
    pooled, gem_terms = _pool(features, m.pooling, m.gem_p, gem_terms=True) if features.ndim == 4 else (features, None)
    raw = pooled @ m.projection.T
    raw += m.bias
    # What np.linalg.norm(raw, axis=1) computes, without its wrapper.
    norms = np.sqrt(np.add.reduce(raw * raw, axis=1))
    if (norms < _NORM_FLOOR).any():
        raise DomainError("degenerate descriptor: projection output has (near-)zero norm")
    raw /= norms[:, None]
    return raw, ForwardCache(pooled=pooled, norms=norms, descriptors=raw, gem_terms=gem_terms)


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


def backward(m: EmbeddingModel, cache: ForwardCache, grad_descriptors: np.ndarray) -> ModelGradients:
    """Parameter gradients, summed over the batch, from a forward cache.

    The GeM exponent's gradient is computed only when the cache carries GeM
    terms (``forward`` of maps under GeM); otherwise it is reported as 0.
    """
    grad_descriptors = np.asarray(grad_descriptors, dtype=np.float64)
    d = cache.descriptors
    if grad_descriptors.shape != d.shape:
        raise DomainError(f"descriptor gradients have shape {grad_descriptors.shape}, descriptors {d.shape}")
    norms = cache.norms
    # Jacobian of x/||x|| maps g to (g - (g.d) d)/||x||, computed in place in one temporary.
    g_raw = grad_descriptors * d
    np.multiply(np.add.reduce(g_raw, axis=1, keepdims=True), d, out=g_raw)
    np.subtract(grad_descriptors, g_raw, out=g_raw)
    g_raw /= norms[:, None]
    grad_projection = g_raw.T @ cache.pooled
    grad_bias = np.add.reduce(g_raw, axis=0)
    grad_p = 0.0
    if cache.gem_terms is not None:
        g_pooled = g_raw @ m.projection
        dpool_dp = _gem_dpool_dp(*cache.gem_terms, cache.pooled, m.gem_p)
        grad_p = float((g_pooled * dpool_dp).sum())
    return ModelGradients(projection=grad_projection, bias=grad_bias, gem_p=grad_p)


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
