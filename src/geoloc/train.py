"""Sequential group-wise training with per-group classifier heads.

Epoch e trains on the (e mod G)-th of the first G groups in enumeration
order: every iteration samples a class-uniform batch from that group,
embeds it, applies the margin-cosine loss against the group's head, and
takes one Adam step on the shared model parameters plus that head only.
After each epoch a retrieval validation runs on the held-out split and the
checkpoint with the best recall@1 is retained; heads never enter the
exported inference model.

The loop holds at most one batch of descriptors at a time (validation
embeds in batch-sized chunks straight into the index matrix); the
``DescriptorBudget`` instrumentation records the peak so the no-cache
contract is testable.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

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
    margin_cosine_loss_and_grads,
    new_head,
)
from .partition import GroupId, Partition, enumerate_groups
# build_index and recall_at_n stay importable from this module, where the
# benchmark's tracer tests look them up.
from .retrieval import build_index, evaluate, recall_at_n  # noqa: F401

logger = logging.getLogger(__name__)

VALIDATION_KS = (1, 5, 10)


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
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    loss: LossConfig = field(default_factory=LossConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    val_threshold_m: float = 25.0
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
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise DomainError("Adam betas must lie in [0, 1)")
        if self.adam_eps <= 0.0:
            raise DomainError("Adam epsilon must be > 0")


@dataclass
class AdamMoments:
    first: dict[str, np.ndarray] = field(default_factory=dict)
    second: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    moments: AdamMoments,
    t: int,
    cfg: TrainConfig,
) -> None:
    """One bias-corrected Adam update, in place, for every named parameter.

    ``t`` counts the updates applied to these parameters, starting at 1.
    """
    if t < 1:
        raise DomainError(f"Adam step count must be >= 1, got {t}")
    for name, theta in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        if name not in moments.first:
            moments.first[name] = np.zeros_like(theta)
            moments.second[name] = np.zeros_like(theta)
        m = moments.first[name]
        v = moments.second[name]
        m *= cfg.adam_beta1
        m += (1.0 - cfg.adam_beta1) * g
        v *= cfg.adam_beta2
        v += (1.0 - cfg.adam_beta2) * np.square(g)
        m_hat = m / (1.0 - cfg.adam_beta1**t)
        v_hat = v / (1.0 - cfg.adam_beta2**t)
        theta -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


def sample_batch(
    partition: Partition,
    group: GroupId,
    batch_size: int,
    rng: np.random.Generator,
) -> list[tuple[str, int]]:
    """Class-uniform batch: a uniform class, then a uniform member image.

    Class-uniform (rather than image-uniform) sampling counters class-size
    imbalance. Returns (image id, label index inside the group's head).
    """
    classes = partition.group_classes.get(group, [])
    if len(classes) < 2:
        raise TrainingError(f"group {tuple(group)} has {len(classes)} classes; need at least 2")
    out: list[tuple[str, int]] = []
    for _ in range(batch_size):
        label = int(rng.integers(len(classes)))
        members = partition.class_members[classes[label]]
        out.append((members[int(rng.integers(len(members)))], label))
    return out


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
    iteration_losses: list[float] = field(default_factory=list)


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
    features: Mapping[str, np.ndarray],
    batch_size: int,
    budget: DescriptorBudget | None = None,
) -> np.ndarray:
    """Embed records chunk by chunk; only one chunk of descriptors is transient."""
    if budget is None:
        budget = DescriptorBudget()
    out = np.empty((len(records), model.output_dim))
    for start in range(0, len(records), batch_size):
        chunk = records[start : start + batch_size]
        maps = np.stack([features[r.id] for r in chunk])
        budget.acquire(len(chunk))
        out[start : start + len(chunk)] = embed.forward_batch(model, maps)
        budget.release(len(chunk))
    return out


def _validate(
    model: EmbeddingModel,
    val_db: Sequence[ImageRecord],
    val_queries: Sequence[ImageRecord],
    features: Mapping[str, np.ndarray],
    query_features: Mapping[str, np.ndarray],
    cfg: TrainConfig,
    budget: DescriptorBudget,
) -> dict[int, float]:
    db_vecs = embed_records(model, val_db, features, cfg.batch_size, budget)
    q_vecs = embed_records(model, val_queries, query_features, cfg.batch_size, budget)
    return evaluate(db_vecs, val_db, q_vecs, val_queries, VALIDATION_KS, cfg.val_threshold_m).recall_at


def run_training(
    partition: Partition,
    features: Mapping[str, np.ndarray],
    cfg: TrainConfig,
    val_db: Sequence[ImageRecord],
    val_queries: Sequence[ImageRecord],
    query_features: Mapping[str, np.ndarray] | None = None,
) -> TrainState:
    """Train over the first ``groups_used`` groups, one group per epoch.

    ``features`` maps image id to its (C, H, W) map; ``query_features``
    optionally overrides the store for validation queries (domain shift).
    Raises TrainingError when a group among the first G is unusable or the
    loss turns non-finite.
    """
    if query_features is None:
        query_features = features
    if not val_db or not val_queries:
        raise TrainingError("validation split is empty")
    if cfg.groups_used > partition.config.group_count:
        raise TrainingError(
            f"groups_used={cfg.groups_used} exceeds the partition's {partition.config.group_count} groups"
        )

    used_groups = enumerate_groups(partition.config)[: cfg.groups_used]
    for g in used_groups:
        n_classes = len(partition.group_classes.get(g, []))
        if n_classes < 2:
            raise TrainingError(
                f"group {tuple(g)} among the first {cfg.groups_used} has {n_classes} classes; "
                "training needs at least 2 (sparse data: lower groups_used or the strides)"
            )
    if cfg.groups_used == 1:
        logger.info("single group in use: the schedule degenerates to one plain cosFace run")

    # Infer the channel count from a feature map training reads.
    any_id = partition.class_members[partition.group_classes[used_groups[0]][0]][0]
    channels = features[any_id].shape[0]

    model = embed.init_model(channels, cfg.model, cfg.seed)
    heads = {
        g: new_head(g, len(partition.group_classes[g]), cfg.model.output_dim, cfg.seed)
        for g in used_groups
    }
    moments = AdamMoments()
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

    learn_p = cfg.model.pooling == embed.GEM and cfg.model.learn_gem_p
    model_step = 0
    head_steps = {g: 0 for g in used_groups}
    for epoch in range(cfg.total_epochs):
        group = used_groups[epoch % cfg.groups_used]
        head = heads[group]
        iteration_losses: list[float] = []
        for it in range(cfg.iterations_per_epoch):
            batch = sample_batch(partition, group, cfg.batch_size, sampler)
            maps = np.stack([features[rid] for rid, _ in batch])
            labels = np.array([label for _, label in batch])
            budget.acquire(len(batch))
            descriptors, cache = embed.forward_cached(model, maps)
            loss_value, grad_desc, grad_w = margin_cosine_loss_and_grads(descriptors, labels, head, cfg.loss)
            if not np.isfinite(loss_value):
                raise TrainingError(
                    f"loss diverged to {loss_value} at epoch {epoch}, iteration {it}"
                )
            model_grads = embed.backward_cached(model, cache, grad_desc, gem_p_grad=learn_p)
            budget.release(len(batch))

            params = {"projection": model.projection, "bias": model.bias}
            grads = {"projection": model_grads.projection, "bias": model_grads.bias}
            if learn_p:
                p_arr = np.array([model.gem_p])
                params["gem_p"] = p_arr
                grads["gem_p"] = np.array([model_grads.gem_p])
            model_step += 1
            adam_step(params, grads, moments, model_step, cfg)
            if "gem_p" in params:
                model.gem_p = float(max(params["gem_p"][0], 1.0))

            head_steps[group] += 1
            adam_step(
                {f"head{tuple(group)}": head.weights},
                {f"head{tuple(group)}": grad_w},
                moments,
                head_steps[group],
                cfg,
            )
            iteration_losses.append(loss_value)

        recalls = _validate(model, val_db, val_queries, features, query_features, cfg, budget)
        mean_loss = sum(iteration_losses) / cfg.iterations_per_epoch
        state.history.append(
            EpochStats(
                epoch=epoch,
                group=group,
                mean_loss=mean_loss,
                recall_at=dict(recalls),
                iteration_losses=iteration_losses,
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
