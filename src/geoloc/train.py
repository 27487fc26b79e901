"""Sequential group-wise training with per-group classifier heads.

Epoch e trains on the (e mod G)-th of the first G groups in enumeration
order: every iteration samples a class-uniform batch from that group,
embeds it, applies the margin-cosine loss against the group's head, and
takes one Adam step on the shared model parameters plus that head only.
After each epoch a retrieval validation runs on the held-out split and the
checkpoint with the best recall@1 is retained; heads never enter the
exported inference model.

Unless the GeM exponent is learned, pooling is a fixed function of the
stored maps, so a run reads pooled (C,) rows, never maps: ``geoloc train``
hands ``store_reduce`` to the store loader, which returns a reduced 2-D block
in Fortran order, and ``run_training`` pools a library caller's store of maps
once, in one call. ``geoloc eval`` pools with ``store_reduce`` of its
checkpoint's pooling and exponent, and its reduce also projects, so the
loader hands it descriptors, not pooled rows. With a learned exponent each step
pools its gathered maps. Either way a step and validation's chunk loop make
one ``embed.forward`` call per batch, which pools maps and takes rows as they
are, and a step one ``embed.backward``.
Pooled vectors are inputs, not descriptors: descriptors depend on the
projection that every step changes, and none outlives its step or chunk.

Validation embeds the split's store rows, looked up once per run, through
the chunk loop ``embed_records`` wraps (one ``embed.forward`` call per
``batch_size`` rows), searches on the split's columns, and scores at the
eval ks too (``TrainConfig.val_ks``):
the best epoch's recalls are what an eval of the exported model on the split
reports. Eval projects each loaded chunk of 32 rows with the same call; BLAS
may round a row's product differently in a batch of another size, so only a
near-tie between two similarities could tell the two apart.
Pooling reduces each map on its own, so maps and pooled rows embed alike.

The loop's inputs and initial parameters are finite, so a float64 overflow,
division by zero or invalid operation in a step or a validation (an
exploding learning rate, say) can only mean divergence: the loop runs under
``np.errstate`` that raises on them, and ends the run with TrainingError
before a NaN or a zeroed descriptor reaches the loss or the index.

The loop holds at most one batch of descriptors at a time (validation
projects in batch-sized chunks straight into the index matrix: the chunk
loop writes a Fortran-ordered array, which ``build_index`` adopts without a
copy); the ``DescriptorBudget`` instrumentation records the
peak so the no-cache contract is testable.
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
from .ingest import ImageRecord, ManifestColumns
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
from .retrieval import DEFAULT_KS, DEFAULT_THRESHOLD_M
from .synth import FeatureStore, Reduce

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
    val_threshold_m: float = DEFAULT_THRESHOLD_M  # a run config sets it to eval.threshold_m
    val_ks: tuple[int, ...] = DEFAULT_KS  # a run config sets it to eval.ks
    seed: int = 0

    def __post_init__(self) -> None:
        if self.groups_used < 1:
            raise DomainError(f"groups_used must be >= 1, got {self.groups_used}")
        if self.iterations_per_epoch < 1 or self.total_epochs < 1:
            raise DomainError("iterations_per_epoch and total_epochs must be >= 1")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.learning_rate >= 0.0:
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
    if not np.isfinite(grad).all():
        raise TrainingError("non-finite gradient")
    moments.steps += 1
    m, v, t = moments.first, moments.second, moments.steps
    # The textbook update's operations in its order, every temporary in one scratch array.
    step, denom = np.empty((2, *theta.shape))
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, grad, out=step)
    v *= ADAM_BETA2
    v += np.multiply(1.0 - ADAM_BETA2, np.square(grad, out=step), out=step)
    np.divide(m, 1.0 - ADAM_BETA1**t, out=step)  # m_hat
    step *= cfg.learning_rate
    np.divide(v, 1.0 - ADAM_BETA2**t, out=denom)  # v_hat
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    theta -= step


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
    batch = np.empty((batch_size, 2), dtype=np.int64)
    batch[:, 1] = labels = rng.integers(len(table.sizes), size=batch_size)
    members = rng.integers(table.sizes[labels])
    batch[:, 0] = table.rows[table.starts[labels] + members]
    return batch


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


def _embed_rows(
    model: EmbeddingModel, store: FeatureStore, rows: np.ndarray, batch_size: int, budget: DescriptorBudget
) -> np.ndarray:
    """Unit descriptors of ``store``'s block ``rows``, ``embed.forward`` of ``batch_size`` at a time.

    One chunk of descriptors is alive at a time. The result is Fortran-ordered, as ``build_index`` adopts it.
    """
    out = np.empty((len(rows), model.output_dim), order="F")
    for start in range(0, len(rows), batch_size):
        chunk = store.block[rows[start : start + batch_size]]
        budget.acquire(len(chunk))
        out[start : start + len(chunk)] = embed.forward(model, chunk)[0]
        budget.release(len(chunk))
    return out


def embed_records(
    model: EmbeddingModel,
    records: Sequence[ImageRecord],
    store: FeatureStore,
    batch_size: int,
    budget: DescriptorBudget | None = None,
) -> np.ndarray:
    """Unit descriptors of ``records``: ``_embed_rows`` of their store rows."""
    return _embed_rows(model, store, store.rows(r.id for r in records), batch_size, budget or DescriptorBudget())


def store_reduce(cfg: ModelConfig) -> Reduce | None:
    """The pooling of the (B, C, H, W) maps a run or an eval reads, or None when p is learned (the run reads maps).

    A chunk that is not 4-D, or whose maps are empty, raises DomainError naming the member shape.
    """
    if cfg.pooling == embed.GEM and cfg.learn_gem_p:
        return None

    def pool(maps: np.ndarray) -> np.ndarray:
        if maps.ndim != 4 or 0 in maps.shape[2:]:
            raise DomainError(f"feature maps must be (C, H, W), got shape {maps.shape[1:]}")
        return embed.pool(maps, cfg.pooling, cfg.gem_p)

    return pool


def _validate(
    model: EmbeddingModel,
    val_db: ManifestColumns,
    val_queries: ManifestColumns,
    features: FeatureStore,
    query_features: FeatureStore,
    store_rows: tuple[np.ndarray, np.ndarray],
    cfg: TrainConfig,
    budget: DescriptorBudget,
) -> dict[int, float]:
    """Recall of the validation split at ``VALIDATION_KS`` and ``cfg.val_ks``, embedded from its ``store_rows``."""
    db_rows, query_rows = store_rows
    db_vecs = _embed_rows(model, features, db_rows, cfg.batch_size, budget)
    query_vecs = _embed_rows(model, query_features, query_rows, cfg.batch_size, budget)
    ks = sorted({*VALIDATION_KS, *cfg.val_ks})
    return evaluate(db_vecs, val_db, query_vecs, val_queries, ks, cfg.val_threshold_m).recall_at


def run_training(
    partition: Partition,
    features: FeatureStore,
    cfg: TrainConfig,
    val_db: ManifestColumns,
    val_queries: ManifestColumns,
    query_features: FeatureStore,
) -> TrainState:
    """Train over the first ``groups_used`` groups, one group per epoch.

    ``features`` holds each image's (C, H, W) map, or with a fixed exponent
    its pooled (C,) row, which a store of maps is then pooled to once, in one
    call; ``query_features`` (required; may be ``features`` itself) holds the
    validation queries' (domain shift), with the same channel count. Raises
    DomainError for a store of another shape, and TrainingError when a group
    among the first G is unusable or the run diverges.
    """
    if not val_db or not val_queries:
        raise TrainingError("validation split is empty")

    groups = used_groups(partition, cfg)
    tables = {g: group_table(partition, g, features) for g in groups}
    reduce = store_reduce(cfg.model)
    learn_p = reduce is None
    for name, store in (("feature", features), ("query feature", query_features)):
        maps = store.block.ndim == 4 and 0 not in store.block.shape[2:]
        if not maps and (learn_p or store.block.ndim != 2):  # pooled rows only with a fixed p
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
    val_store_rows = (features.rows(val_db.ids), query_features.rows(val_queries.ids))  # once per run
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
    n_proj = model.projection.size
    params = np.concatenate([model.projection.ravel(), model.bias, [model.gem_p] if learn_p else []])
    model.projection = params[:n_proj].reshape(model.projection.shape)
    model.bias = params[n_proj : n_proj + model.output_dim]
    model_moments = AdamMoments.zeros_like(params)
    # A head steps only in its group's epochs, so each keeps its own count.
    head_moments = {g: AdamMoments.zeros_like(heads[g].weights) for g in groups}

    # A library caller's maps are pooled once, one call per distinct store; rows are inputs, not descriptors.
    if not learn_p:
        stores = [features] if query_features is features else [features, query_features]
        stores = [FeatureStore(s.ids, reduce(s.block)) if s.block.ndim == 4 else s for s in stores]
        features, query_features = stores[0], stores[-1]
    # Divergence ends the run (module docstring); pooling keeps its own overflow check.
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for epoch in range(cfg.total_epochs):
                group = groups[epoch % cfg.groups_used]
                head = heads[group]
                iteration_losses: list[float] = []
                for _ in range(cfg.iterations_per_epoch):
                    batch = sample_batch(tables[group], cfg.batch_size, sampler)
                    budget.acquire(len(batch))
                    descriptors, cache = embed.forward(model, features.block[batch[:, 0]])
                    loss_value, grad_desc, grad_w = margin_cosine_kernel(descriptors, batch[:, 1], head, cfg.loss)
                    grads = embed.backward(model, cache, grad_desc)
                    budget.release(len(batch))

                    grad = np.concatenate([grads.projection.ravel(), grads.bias, [grads.gem_p] if learn_p else []])
                    adam_step(params, grad, model_moments, cfg)
                    if learn_p:
                        model.gem_p = params[-1] = float(max(params[-1], 1.0))
                    adam_step(head.weights, grad_w, head_moments[group], cfg)
                    iteration_losses.append(loss_value)

                recalls = _validate(model, val_db, val_queries, features, query_features, val_store_rows, cfg, budget)
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
    except FloatingPointError as exc:
        raise TrainingError(f"training diverged in epoch {epoch}: {exc}") from exc
    return state


def history_csv(history: Sequence[EpochStats]) -> str:
    header = ["epoch", "group", "mean_loss", *(f"recall_at_{k}" for k in VALIDATION_KS)]
    rows = [
        [str(r.epoch), "_".join(map(str, r.group)), repr(r.mean_loss), *(repr(r.recall_at[k]) for k in VALIDATION_KS)]
        for r in history
    ]
    return "".join(",".join(cells) + "\n" for cells in [header, *rows])
