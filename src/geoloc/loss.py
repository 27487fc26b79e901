"""Additive-margin cosine classification loss over a per-group head.

For a unit descriptor d, unit weight rows w_j, true class y, margin m and
scale s, the per-item loss is

    -log( exp(s*(cos_y - m)) / (exp(s*(cos_y - m)) + sum_{j != y} exp(s*cos_j)) )

with cos_j = <d, w_j>. The log-sum-exp is stabilized by max subtraction;
naive exponentials overflow at the default scale of 30.

Head rows are stored unnormalized and normalized on the fly, and the
backward pass chains through that normalization, so optimizer updates on
the stored rows stay unconstrained.

``margin_cosine_loss_and_grads`` checks its inputs, then runs
``margin_cosine_kernel``; the training step calls the kernel directly, since
its descriptors are normalized by the projection and its labels index the
head they were sampled for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .partition import GroupId

_ROW_NORM_FLOOR = 1e-12
# Loose enough that finite-difference probes of the descriptor stay valid.
_UNIT_TOL = 1e-4


@dataclass(frozen=True)
class LossConfig:
    margin: float = 0.40
    scale: float = 30.0

    def __post_init__(self) -> None:
        if not self.margin >= 0.0:
            raise DomainError(f"margin must be >= 0, got {self.margin}")
        if not self.scale > 0.0:
            raise DomainError(f"scale must be > 0, got {self.scale}")


@dataclass
class ClassifierHead:
    """One weight row per class of a single group; used only during training."""

    group: GroupId
    weights: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise DomainError(f"head weights must be (num_classes, D), got shape {self.weights.shape}")

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]


def new_head(group: GroupId, num_classes: int, dim: int, seed: int) -> ClassifierHead:
    """Seeded isotropic rows, row-normalized; the seed is derived per group."""
    if num_classes < 2:
        raise DomainError(f"a classifier head needs >= 2 classes, got {num_classes}")
    ss = np.random.SeedSequence([seed & 0xFFFFFFFF, 0x43AD5, *group])
    rows = np.random.default_rng(ss).standard_normal((num_classes, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return ClassifierHead(group=group, weights=rows)


def _check_inputs(
    descriptors: np.ndarray, labels: np.ndarray, head: ClassifierHead
) -> tuple[np.ndarray, np.ndarray]:
    descriptors = np.asarray(descriptors, dtype=np.float64)
    labels = np.asarray(labels)
    if descriptors.ndim != 2 or descriptors.shape[0] < 1:
        raise DomainError(f"descriptors must be (B, D), got shape {descriptors.shape}")
    if labels.shape != (descriptors.shape[0],):
        raise DomainError("labels must be one index per descriptor")
    if descriptors.shape[1] != head.weights.shape[1]:
        raise DomainError(
            f"descriptor dimension {descriptors.shape[1]} does not match head dimension {head.weights.shape[1]}"
        )
    if not np.issubdtype(labels.dtype, np.integer):
        raise DomainError("labels must be integers")
    if labels.min() < 0 or labels.max() >= head.num_classes:
        raise DomainError(f"labels outside [0, {head.num_classes})")
    norms = np.linalg.norm(descriptors, axis=1)
    if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
        raise DomainError("descriptors must be unit-norm")
    if np.any(np.linalg.norm(head.weights, axis=1) < _ROW_NORM_FLOOR):
        raise DomainError("head has a zero weight row")
    return descriptors, labels


def _margin_logits(
    descriptors: np.ndarray, labels: np.ndarray, w_hat: np.ndarray, cfg: LossConfig
) -> np.ndarray:
    z = descriptors @ w_hat.T
    z *= cfg.scale
    z[np.arange(len(labels)), labels] -= cfg.scale * cfg.margin
    return z


def margin_cosine_kernel(
    descriptors: np.ndarray, labels: np.ndarray, head: ClassifierHead, cfg: LossConfig
) -> tuple[float, np.ndarray, np.ndarray]:
    """``margin_cosine_loss_and_grads`` without its input checks.

    The caller guarantees what ``_check_inputs`` would check: float64
    unit-norm (B, D) descriptors with B >= 1, one integer label in
    [0, num_classes) per row, and a head of the same D with no zero row. A
    training step meets these by construction.
    """
    batch = len(labels)
    rows = np.arange(batch)
    # What np.linalg.norm(head.weights, axis=1) computes, without its wrapper.
    row_norms = np.sqrt(np.add.reduce(head.weights * head.weights, axis=1))
    w_hat = head.weights / row_norms[:, None]
    z = _margin_logits(descriptors, labels, w_hat, cfg)
    zmax = np.maximum.reduce(z, axis=1, keepdims=True)
    e = z - zmax
    np.exp(e, out=e)
    total = np.add.reduce(e, axis=1, keepdims=True)
    # zmax - z_y first: adding then subtracting a logit of the scale's size
    # leaves rounding noise on a saturated loss.
    losses = (zmax[:, 0] - z[rows, labels]) + np.log(total[:, 0])
    # e becomes the softmax, minus one at each label, times scale / batch: the logit gradient.
    e /= total
    e[rows, labels] -= 1.0
    e *= cfg.scale / batch
    grad_descriptors = e @ w_hat
    grad_w_hat = e.T @ descriptors
    # Chain through the row normalization of the stored weights.
    radial = grad_w_hat * w_hat
    np.multiply(np.add.reduce(radial, axis=1, keepdims=True), w_hat, out=radial)
    grad_w_hat -= radial
    grad_w_hat /= row_norms[:, None]
    return float(np.add.reduce(losses)) / batch, grad_descriptors, grad_w_hat


def margin_cosine_loss_and_grads(
    descriptors: np.ndarray, labels: np.ndarray, head: ClassifierHead, cfg: LossConfig
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean loss over the batch and its gradients wrt descriptors and the stored head rows.

    One input check and one logit pass serve the value and both gradients.
    """
    descriptors, labels = _check_inputs(descriptors, labels, head)
    return margin_cosine_kernel(descriptors, labels, head, cfg)


def margin_cosine_grads(
    descriptors: np.ndarray, labels: np.ndarray, head: ClassifierHead, cfg: LossConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the mean loss wrt descriptors and the stored head rows."""
    _, grad_descriptors, grad_weights = margin_cosine_loss_and_grads(descriptors, labels, head, cfg)
    return grad_descriptors, grad_weights
