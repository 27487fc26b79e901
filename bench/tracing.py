"""Spans around the public functions of every geoloc module, kept in memory.

The wrappers live here, in the benchmark, not in the program: ``Tracer.install``
replaces each function both on its defining module and under every name other
geoloc modules imported it as (``geoloc.train.margin_cosine_grads``,
``geoloc.ingest.latlon_to_utm``, ``geoloc.cli.build_partition``, ...), and
``Tracer.restore`` puts every original back, so an untraced run never pays
for a wrapper.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (or -1). Calls are strictly nested on one thread, so a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import defaultdict

MODULES = (
    "geodesy",
    "partition",
    "ingest",
    "embed",
    "loss",
    "train",
    "retrieval",
    "synth",
    "config",
    "cli",
)

# Private helpers whose time or call count a per-layer metric needs.
PRIVATE = (
    "embed._gem_dpool_dp",
    "train._validate",
    "loss._margin_logits",
)

TRAINING = "train.run_training"
VALIDATION = "train._validate"
CHECKPOINT = "embed.checkpoint_bytes"

def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_forward(tracer, args, kwargs, result):
    tracer.counts["embed.forward_batch.rows"] += len(_arg(args, kwargs, 1, "features"))


def _count_load_features(tracer, args, kwargs, result):
    tracer.counts["synth.load_features.members"] += len(result)
    tracer.counts["synth.load_features.bytes"] += sum(a.nbytes for a in result.values())


def _count_manifest(tracer, args, kwargs, result):
    tracer.counts["ingest.load_manifest.rows"] += len(result)


def _count_checkpoint(tracer, args, kwargs, result):
    tracer.counts["embed.checkpoint_bytes.bytes"] += len(result)


def _count_recall(tracer, args, kwargs, result):
    index = _arg(args, kwargs, 0, "index")
    queries = len(_arg(args, kwargs, 1, "queries"))
    tracer.counts["retrieval.queries"] += queries
    tracer.counts["retrieval.madds"] += queries * len(index) * index.dim


def _count_adam(tracer, args, kwargs, result):
    if "gem_p" in _arg(args, kwargs, 0, "params"):
        tracer.counts["embed.gem_p_grad.consumed"] += 1


def _count_embed_records(tracer, args, kwargs, result):
    tracer.used_ids.update(r.id for r in _arg(args, kwargs, 1, "records"))


def _count_sample(tracer, args, kwargs, result):
    tracer.used_ids.update(rid for rid, _ in result)


COUNTERS = {
    "embed.forward_batch": _count_forward,
    "synth.load_features": _count_load_features,
    "ingest.load_manifest": _count_manifest,
    "embed.checkpoint_bytes": _count_checkpoint,
    "retrieval.recall_at_n": _count_recall,
    "train.adam_step": _count_adam,
    "train.embed_records": _count_embed_records,
    "train.sample_batch": _count_sample,
}


def traced_functions():
    """(span name, function) for every function the tracer wraps."""
    out = []
    for short in MODULES:
        module = importlib.import_module(f"geoloc.{short}")
        for attr, fn in sorted(vars(module).items()):
            name = f"{short}.{attr}"
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            if attr.startswith("_") and name not in PRIVATE:
                continue
            out.append((name, fn))
    return out


def namespaces() -> list:
    """The geoloc package and its modules: every place a function is looked up."""
    return [importlib.import_module("geoloc")] + [importlib.import_module(f"geoloc.{m}") for m in MODULES]


def patch(replacements: dict) -> list[tuple[object, str, object]]:
    """Replace functions under every name they have in ``namespaces()``.

    ``replacements`` maps ``id(original)`` to its replacement, so a function
    is found both where it is defined and where another module imported it.
    Returns the undo list for ``unpatch``.
    """
    patches = []
    for module in namespaces():
        for attr, value in list(vars(module).items()):
            new = replacements.get(id(value))
            if new is not None:
                patches.append((module, attr, value))
                setattr(module, attr, new)
    return patches


def unpatch(patches: list[tuple[object, str, object]]) -> None:
    while patches:
        module, attr, original = patches.pop()
        setattr(module, attr, original)


class Tracer:
    """Records spans and counts for one process; install, run, restore."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.used_ids: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _exit(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around its own glue code."""
        record = self._enter(name)
        try:
            yield
        finally:
            self._exit(record)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(record)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._patches = patch({id(fn): self.wrap(name, fn) for name, fn in traced_functions()})

    def restore(self) -> None:
        unpatch(self._patches)

    def summary(self) -> dict:
        """Per-name totals plus the training-loop breakdown, JSON-ready."""
        out = summarize(self.spans)
        out["counts"] = dict(self.counts)
        out["used_ids"] = len(self.used_ids)
        return out


def is_wrapped(value) -> bool:
    return hasattr(value, "__wrapped__")


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans: list[list]) -> dict:
    """Totals per span name and the quantities measured inside training.

    ``training`` sums what happened under ``train.run_training``; a span
    under ``train._validate`` counts as validation, not as an iteration.
    """
    own = self_times(spans)
    by_name: dict[str, list] = {}
    in_training = [False] * len(spans)
    in_validation = [False] * len(spans)
    training = defaultdict(float)
    roots = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        entry = by_name.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += own[i]
        if parent < 0:
            roots += end - start
            up_training = up_validation = False
        else:
            up_training, up_validation = in_training[parent], in_validation[parent]
        in_training[i] = up_training or name == TRAINING
        in_validation[i] = up_validation or name == VALIDATION
        if name == TRAINING:
            training["run_training_s"] += end - start
        elif up_training and name == VALIDATION and not up_validation:
            training["validation_s"] += end - start
        elif up_training and name == CHECKPOINT and not up_validation:
            training["checkpoint_s"] += end - start
        if up_training and not in_validation[i]:
            if name == "train.sample_batch":
                training["iterations"] += 1
            elif name == "embed.pool":
                training["pool_calls"] += 1
            elif name == "loss._margin_logits":
                training["logit_passes"] += 1
    return {"by_name": by_name, "training": dict(training), "roots_s": roots}


def merge(summaries: list[dict]) -> dict:
    """Add up summaries from several traced commands."""
    out = {"by_name": {}, "training": defaultdict(float), "counts": defaultdict(int), "roots_s": 0.0, "used_ids": 0}
    for s in summaries:
        for name, (calls, total, own) in s["by_name"].items():
            entry = out["by_name"].setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for key, value in s["training"].items():
            out["training"][key] += value
        for key, value in s.get("counts", {}).items():
            out["counts"][key] += value
        out["roots_s"] += s["roots_s"]
        out["used_ids"] += s.get("used_ids", 0)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(merged: dict) -> dict[str, float]:
    """Per-layer metric values (without units) from merged summaries."""
    by_name = merged["by_name"]
    counts = merged["counts"]
    training = merged["training"]

    def total(name):
        return by_name.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return by_name.get(name, [0, 0.0, 0.0])[2]

    def calls(name):
        return by_name.get(name, [0, 0.0, 0.0])[0]

    iterations = training.get("iterations", 0)
    loop_s = training.get("run_training_s", 0.0) - training.get("validation_s", 0.0) - training.get("checkpoint_s", 0.0)
    recall_s = total("retrieval.recall_at_n")
    madds = counts.get("retrieval.madds", 0)
    members = counts.get("synth.load_features.members", 0)
    utm_calls = calls("geodesy.latlon_to_utm")
    m = {
        "train.iteration_ms": 1e3 * _ratio(loop_s, iterations),
        "train.loop_self_s": own("train.run_training"),
        "train.sample_batch_s": total("train.sample_batch"),
        "train.adam_step_s": total("train.adam_step"),
        "train.adam_step.calls": calls("train.adam_step"),
        "train.validation_s": total("train._validate"),
        "train.validations": calls("train._validate"),
        "train.save_training_checkpoint_s": total("train.save_training_checkpoint"),
        "train.load_training_checkpoint_s": total("train.load_training_checkpoint"),
        "embed.forward_batch_s": total("embed.forward_batch"),
        "embed.forward_batch.rows": counts.get("embed.forward_batch.rows", 0),
        "embed.backward_batch_self_s": own("embed.backward_batch") + total("embed._gem_dpool_dp"),
        "embed.gem_p_grad_s": total("embed._gem_dpool_dp"),
        "embed.pool_s": total("embed.pool"),
        "embed.pool.calls_per_iteration": _ratio(training.get("pool_calls", 0), iterations),
        "embed.gem_p_grad.useful_ratio": _ratio(counts.get("embed.gem_p_grad.consumed", 0), calls("embed._gem_dpool_dp")),
        "embed.checkpoint_bytes_s": total("embed.checkpoint_bytes"),
        "embed.checkpoint_bytes.bytes": counts.get("embed.checkpoint_bytes.bytes", 0),
        "loss.margin_cosine_loss_s": total("loss.margin_cosine_loss"),
        "loss.margin_cosine_grads_s": total("loss.margin_cosine_grads"),
        "loss.logit_passes_per_iteration": _ratio(training.get("logit_passes", 0), iterations),
        "retrieval.build_index_s": total("retrieval.build_index"),
        "retrieval.recall_at_n_s": recall_s,
        "retrieval.us_per_query": 1e6 * _ratio(recall_s, counts.get("retrieval.queries", 0)),
        "retrieval.madds": madds,
        "retrieval.madds_per_s": _ratio(madds, recall_s),
        "synth.load_features_s": total("synth.load_features"),
        "synth.load_features.members": members,
        "synth.load_features.bytes": counts.get("synth.load_features.bytes", 0),
        "synth.load_features.used_ratio": _ratio(merged["used_ids"], members),
        "synth.generate_city_s": total("synth.generate_city"),
        "synth.write_world_s": total("synth.write_world"),
        "ingest.load_manifest_s": total("ingest.load_manifest"),
        "ingest.load_manifest.rows": counts.get("ingest.load_manifest.rows", 0),
        "ingest.split_validation_s": total("ingest.split_validation"),
        "geodesy.latlon_to_utm.calls": utm_calls,
        "geodesy.latlon_to_utm_us": 1e6 * _ratio(total("geodesy.latlon_to_utm"), utm_calls),
        "partition.build_partition_s": total("partition.build_partition"),
        "partition.save_partition_s": total("partition.save_partition"),
        "partition.load_partition_s": total("partition.load_partition"),
        "config.load_run_config_s": total("config.load_run_config"),
    }
    # Self time per layer: these add up to trace.wall_s, so every traced
    # second is attributed to exactly one layer (cli.self_s included).
    layers = defaultdict(float)
    for name, (_, _, own_s) in by_name.items():
        layers[name.split(".", 1)[0]] += own_s
    for layer in MODULES + ("bench",):
        m[f"{layer}.self_s"] = layers.get(layer, 0.0)
    m["trace.wall_s"] = merged["roots_s"]
    return m
