"""Sequential group-wise training with per-group classifier heads.

Epoch e trains on the (e mod G)-th of the first G groups in enumeration
order: every iteration samples a class-uniform batch from that group,
embeds it, applies the margin-cosine loss against the group's head, and
takes one Adam step on the shared model parameters plus that head only.
After each epoch a retrieval validation runs on the held-out split and the
checkpoint with the best recall@1 is retained; heads never enter the
exported inference model.

Unless the GeM exponent is learned, pooling is a fixed function of the
stored maps, so the run pools each store once, before the first step, into
one (N, C) array indexed by block row (``pool_store``). Each step then
gathers its pooled rows and runs projection, loss, backward and Adam; each
validation projects the split's pooled rows. With a learned exponent the
step pools its gathered maps and both stores are pooled again before each
validation. Pooled vectors are inputs, not descriptors: descriptors depend
on the projection that every step changes, and none outlives its step or
chunk.

The loop holds at most one batch of descriptors at a time (validation
projects in batch-sized chunks straight into the index matrix); the
``DescriptorBudget`` instrumentation records the peak so the no-cache
contract is testable.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import embed
from .embed import EmbeddingModel, ModelConfig
from .errors import DomainError, TrainingError
from .ingest import ImageRecord
# margin_cosine_grads stays importable from this module, where the
# benchmark's tracer test looks it up.
from .loss import (  # noqa: F401
    ClassifierHead,
    LossConfig,
    margin_cosine_grads,
    margin_cosine_kernel,
    new_head,
)
from .partition import GroupId, Partition, enumerate_groups
# build_index and recall_at_n stay importable from this module, where the
# benchmark's tracer tests look them up.
from .retrieval import build_index, evaluate, recall_at_n  # noqa: F401
from .synth import FeatureStore

logger = logging.getLogger(__name__)

VALIDATION_KS = (1, 5, 10)

# Adam's usual moment decay rates and denominator guard; the recipe tunes
# only the learning rate.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Schedule and optimizer settings.

    Full-scale defaults follow the usual recipe (10k iterations per epoch,
    50 epochs, 8 groups, batch 32, Adam at 1e-5); desk-scale runs shrink the
    schedule through configuration.
    """

    groups_used: int = 8
    iterations_per_epoch: int = 10_000
    total_epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-5
    loss: LossConfig = field(default_factory=LossConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    val_threshold_m: float = 25.0  # a run config sets it to eval.threshold_m
    seed: int = 0

    def __post_init__(self) -> None:
        if self.groups_used < 1:
            raise DomainError(f"groups_used must be >= 1, got {self.groups_used}")
        if self.iterations_per_epoch < 1 or self.total_epochs < 1:
            raise DomainError("iterations_per_epoch and total_epochs must be >= 1")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate < 0.0:
            raise DomainError(f"learning_rate must be >= 0, got {self.learning_rate}")


@dataclass
class AdamMoments:
    """Adam's moment estimates for one parameter array, and its update count."""

    first: np.ndarray
    second: np.ndarray
    steps: int = 0

    @classmethod
    def zeros_like(cls, theta: np.ndarray) -> AdamMoments:
        return cls(np.zeros_like(theta), np.zeros_like(theta))


def adam_step(theta: np.ndarray, grad: np.ndarray, moments: AdamMoments, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update of ``theta``, in place; counts the step in ``moments``."""
    if not np.all(np.isfinite(grad)):
        raise TrainingError("non-finite gradient")
    moments.steps += 1
    m, v, t = moments.first, moments.second, moments.steps
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * np.square(grad)
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    theta -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def used_groups(partition: Partition, cfg: TrainConfig) -> list[GroupId]:
    """The first ``groups_used`` groups in enumeration order: the groups training visits."""
    if cfg.groups_used > partition.config.group_count:
        raise TrainingError(
            f"groups_used={cfg.groups_used} exceeds the partition's {partition.config.group_count} groups"
        )
    return enumerate_groups(partition.config)[: cfg.groups_used]


class GroupTable(NamedTuple):
    """One group's members as feature-store rows, class after class.

    Class ``k`` (label ``k`` of the group's head) owns ``sizes[k]`` rows from ``starts[k]``.
    """

    rows: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray


def group_table(partition: Partition, group: GroupId, features: FeatureStore) -> GroupTable:
    """The table ``sample_batch`` draws from; a group needs at least 2 classes."""
    classes = partition.group_classes[group]
    if len(classes) < 2:
        raise TrainingError(
            f"group {tuple(group)} has {len(classes)} classes; training needs at least 2 "
            "(sparse data: lower groups_used or the strides)"
        )
    sizes = np.array([len(partition.class_members[c]) for c in classes])
    rows = features.rows(rid for c in classes for rid in partition.class_members[c])
    return GroupTable(rows, np.cumsum(sizes) - sizes, sizes)


def sample_batch(table: GroupTable, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Class-uniform batch: a uniform class, then a uniform member image.

    Class-uniform (rather than image-uniform) sampling counters class-size
    imbalance. Returns a (batch_size, 2) array of (feature-store row, label
    index inside the group's head).
    """
    labels = rng.integers(len(table.sizes), size=batch_size)
    members = rng.integers(table.sizes[labels])
    return np.stack((table.rows[table.starts[labels] + members], labels), axis=1)


@dataclass
class DescriptorBudget:
    """Tracks how many descriptors are alive at once inside the trainer."""

    current: int = 0
    peak: int = 0

    def acquire(self, n: int) -> None:
        self.current += n
        self.peak = max(self.peak, self.current)

    def release(self, n: int) -> None:
        self.current -= n


@dataclass
class EpochStats:
    epoch: int
    group: GroupId
    mean_loss: float
    recall_at: dict[int, float]


@dataclass
class TrainState:
    model: EmbeddingModel
    heads: dict[GroupId, ClassifierHead]
    best_val_recall1: float
    best_epoch: int
    # A copy of the model at its best validation; the optimizer updates ``model`` in place.
    best_model: EmbeddingModel | None
    history: list[EpochStats]
    budget: DescriptorBudget


def embed_records(
    model: EmbeddingModel,
    records: Sequence[ImageRecord],
    features: FeatureStore,
    batch_size: int,
    budget: DescriptorBudget | None = None,
) -> np.ndarray:
    """Embed records chunk by chunk; only one chunk of descriptors is transient."""
    if budget is None:
        budget = DescriptorBudget()
    rows = features.rows(r.id for r in records)
    out = np.empty((len(records), model.output_dim))
    for start in range(0, len(records), batch_size):
        chunk = rows[start : start + batch_size]
        budget.acquire(len(chunk))
        out[start : start + len(chunk)] = embed.forward_batch(model, features.block[chunk])
        budget.release(len(chunk))
    return out


def pool_store(store: FeatureStore, pooling: str, p: float, chunk: int) -> np.ndarray:
    """Every map of ``store`` pooled into one (N, C) array, row ``i`` from block row ``i``.

    Pools ``chunk`` maps per call: pooling a whole block in one call would
    hold two (N, C, H, W) GeM temporaries.
    """
    pooled = np.empty(store.block.shape[:2])
    for start in range(0, len(store), chunk):
        pooled[start : start + chunk] = embed.pool(store.block[start : start + chunk], pooling, p)
    return pooled


def _validate(
    model: EmbeddingModel,
    val_db: Sequence[ImageRecord],
    val_queries: Sequence[ImageRecord],
    db_pooled: np.ndarray,
    query_pooled: np.ndarray,
    cfg: TrainConfig,
    budget: DescriptorBudget,
) -> dict[int, float]:
    """Recall of the validation split from each side's pooled vectors, projected ``batch_size`` rows at a time."""
    vecs = []
    for pooled in (db_pooled, query_pooled):
        out = np.empty((len(pooled), model.output_dim))
        for start in range(0, len(pooled), cfg.batch_size):
            chunk = pooled[start : start + cfg.batch_size]
            budget.acquire(len(chunk))
            out[start : start + len(chunk)] = embed.project(model, chunk)[0]
            budget.release(len(chunk))
        vecs.append(out)
    return evaluate(vecs[0], val_db, vecs[1], val_queries, VALIDATION_KS, cfg.val_threshold_m).recall_at


def run_training(
    partition: Partition,
    features: FeatureStore,
    cfg: TrainConfig,
    val_db: Sequence[ImageRecord],
    val_queries: Sequence[ImageRecord],
    query_features: FeatureStore | None = None,
) -> TrainState:
    """Train over the first ``groups_used`` groups, one group per epoch.

    ``features`` holds each image's (C, H, W) map; ``query_features``
    optionally overrides the store for validation queries (domain shift),
    with the same channel count. Raises DomainError for maps of another
    shape, and TrainingError when a group among the first G is unusable or
    the loss turns non-finite.
    """
    if query_features is None:
        query_features = features
    if not val_db or not val_queries:
        raise TrainingError("validation split is empty")

    groups = used_groups(partition, cfg)
    tables = {g: group_table(partition, g, features) for g in groups}
    val_rows = features.rows(r.id for r in val_db)
    query_rows = query_features.rows(r.id for r in val_queries)
    for name, store in (("feature", features), ("query feature", query_features)):
        if store.block.ndim != 4:
            raise DomainError(f"{name} maps must be (C, H, W), got shape {store.block.shape[1:]}")
    if query_features.block.shape[1] != features.block.shape[1]:
        raise DomainError(
            f"query feature maps have {query_features.block.shape[1]} channels, "
            f"database feature maps have {features.block.shape[1]}"
        )
    if cfg.groups_used == 1:
        logger.info("single group in use: the schedule degenerates to one plain cosFace run")

    model = embed.init_model(features.block.shape[1], cfg.model, cfg.seed)
    heads = {
        g: new_head(g, len(partition.group_classes[g]), cfg.model.output_dim, cfg.seed)
        for g in groups
    }
    budget = DescriptorBudget()
    sampler = np.random.default_rng(np.random.SeedSequence([cfg.seed & 0xFFFFFFFF, 0x5A3B1E]))

    state = TrainState(
        model=model,
        heads=heads,
        best_val_recall1=-1.0,
        best_epoch=-1,
        best_model=None,
        history=[],
        budget=budget,
    )

    # The model's projection and bias are views into one flat vector that
    # Adam updates, followed by a slot for the GeM exponent when it is learned.
    learn_p = cfg.model.pooling == embed.GEM and cfg.model.learn_gem_p
    n_proj = model.projection.size
    params = np.concatenate([model.projection.ravel(), model.bias, [model.gem_p] if learn_p else []])
    model.projection = params[:n_proj].reshape(model.projection.shape)
    model.bias = params[n_proj : n_proj + model.output_dim]
    model_moments = AdamMoments.zeros_like(params)
    # A head steps only in its group's epochs, so each keeps its own count.
    head_moments = {g: AdamMoments.zeros_like(heads[g].weights) for g in groups}

    # Unless p is learned, a map's pooled vector is fixed: pool each store
    # once. The pooled vectors are inputs, not descriptors, so the one-batch
    # descriptor budget still holds. ``pooled[-1]`` is the query store's, the
    # database store's array when both are one store.
    stores = (features,) if query_features is features else (features, query_features)
    if not learn_p:
        pooled = [pool_store(s, model.pooling, model.gem_p, cfg.batch_size) for s in stores]
    for epoch in range(cfg.total_epochs):
        group = groups[epoch % cfg.groups_used]
        head = heads[group]
        iteration_losses: list[float] = []
        for it in range(cfg.iterations_per_epoch):
            batch = sample_batch(tables[group], cfg.batch_size, sampler)
            budget.acquire(len(batch))
            if learn_p:
                descriptors, cache = embed.forward_cached(model, features.block[batch[:, 0]])
            else:
                descriptors, cache = embed.project(model, pooled[0][batch[:, 0]])
            loss_value, grad_desc, grad_w = margin_cosine_kernel(descriptors, batch[:, 1], head, cfg.loss)
            if not np.isfinite(loss_value):
                raise TrainingError(
                    f"loss diverged to {loss_value} at epoch {epoch}, iteration {it}"
                )
            grads = embed.backward_cached(model, cache, grad_desc)
            budget.release(len(batch))

            grad = np.concatenate([grads.projection.ravel(), grads.bias, [grads.gem_p] if learn_p else []])
            adam_step(params, grad, model_moments, cfg)
            if learn_p:
                model.gem_p = params[-1] = float(max(params[-1], 1.0))
            adam_step(head.weights, grad_w, head_moments[group], cfg)
            iteration_losses.append(loss_value)

        if learn_p:
            pooled = [pool_store(s, model.pooling, model.gem_p, cfg.batch_size) for s in stores]
        recalls = _validate(model, val_db, val_queries, pooled[0][val_rows], pooled[-1][query_rows], cfg, budget)
        mean_loss = sum(iteration_losses) / cfg.iterations_per_epoch
        state.history.append(
            EpochStats(
                epoch=epoch,
                group=group,
                mean_loss=mean_loss,
                recall_at=dict(recalls),
            )
        )
        if recalls[1] > state.best_val_recall1:
            state.best_val_recall1 = recalls[1]
            state.best_epoch = epoch
            state.best_model = copy.deepcopy(model)
        logger.info(
            "epoch %d group %s loss %.4f val R@1 %.3f (best %.3f)",
            epoch, tuple(group), mean_loss, recalls[1], state.best_val_recall1,
        )
    return state


def export_inference_model(state: TrainState) -> bytes:
    """The best validated model checkpoint; classifier heads are discarded.

    Byte-identical across repeated exports of the same state.
    """
    if state.best_model is None:
        raise TrainingError("no validation pass has completed; nothing to export")
    return embed.checkpoint_bytes(state.best_model)


def history_csv(history: Sequence[EpochStats]) -> str:
    lines = ["epoch,group,mean_loss,recall_at_1,recall_at_5,recall_at_10"]
    for row in history:
        lines.append(
            f"{row.epoch},{'_'.join(map(str, row.group))},{row.mean_loss!r},"
            f"{row.recall_at.get(1, 0.0)!r},{row.recall_at.get(5, 0.0)!r},{row.recall_at.get(10, 0.0)!r}"
        )
    return "\n".join(lines) + "\n"
