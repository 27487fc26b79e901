"""Command-line pipeline: convert, partition, train, eval, synth, sweep.

Every command loads one declarative config (JSON or YAML), applies
``--set section.key=value`` overrides plus the global ``--seed``, and
echoes the resolved config into each output artifact. Errors exit nonzero
with a single machine-parseable line (``error[<code>]: message``) on
stderr; exit zero means every written file was re-read and validated by
its own loader.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Iterable

import numpy as np

from . import embed, ingest, retrieval, synth, train
from .config import (
    RunConfig,
    apply_overrides,
    load_run_config,
    run_config_from_dict,
    run_config_to_dict,
)
from .errors import ConfigError, ManifestError, ToolError
from .partition import (
    build_partition,
    format_stats_table,
    load_partition,
    partition_stats,
    save_partition,
)

logger = logging.getLogger("geoloc")

_SWEEP_PARTITION_PARAMS = ("cell_size_m", "heading_bin_deg", "cell_stride", "heading_stride")
_SWEEP_PARAMS = _SWEEP_PARTITION_PARAMS + ("groups_used",)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="run config file (JSON or YAML); defaults apply without it")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY.PATH=VALUE",
        help="override one config value, e.g. --set train.learning_rate=0.001",
    )
    parser.add_argument("--seed", type=int, help="override every seed in the config")
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    if args.config:
        raw = run_config_to_dict(load_run_config(args.config))
    else:
        raw = run_config_to_dict(RunConfig())
    apply_overrides(raw, args.set)
    if args.seed is not None:
        raw["seed"] = args.seed
        raw.setdefault("train", {})["seed"] = args.seed
        raw.setdefault("city", {})["seed"] = args.seed
    return run_config_from_dict(raw)


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")


def _split_records(records, cfg: RunConfig):
    return ingest.split_validation(records, cfg.split.fraction, cfg.seed)


def cmd_convert(args: argparse.Namespace, cfg: RunConfig) -> int:
    records = ingest.load_manifest(args.input)
    ingest.save_manifest(records, args.output)
    ingest.load_manifest(args.output)  # validate what we wrote
    print(f"wrote {len(records)} records to {args.output}")
    return 0


def cmd_partition(args: argparse.Namespace, cfg: RunConfig) -> int:
    records = ingest.load_manifest(args.manifest)
    if args.no_split:
        part_records = records
    else:
        part_records, _, _ = _split_records(records, cfg)
    part = build_partition(part_records, cfg.partition)
    stats = partition_stats(part)
    save_partition(
        part,
        args.output,
        extra={"run_config": run_config_to_dict(cfg), "split_applied": not args.no_split, "stats": stats.to_dict()},
    )
    load_partition(args.output)  # validate what we wrote
    print(format_stats_table(stats))
    return 0


def _check_partition_provenance(path: str, cfg: RunConfig) -> None:
    """Reject a partition built on another validation split; call after ``load_partition``."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    echo = doc.get("run_config")
    if not isinstance(echo, dict) or not doc.get("split_applied", False):
        return
    same_split = (
        echo.get("seed") == cfg.seed
        and echo.get("split", {}).get("fraction") == cfg.split.fraction
    )
    if not same_split:
        raise ConfigError(
            f"partition {path} was built with split seed/fraction "
            f"{echo.get('seed')}/{echo.get('split', {}).get('fraction')}, "
            f"but this run uses {cfg.seed}/{cfg.split.fraction}"
        )


def _load_store(path: str, ids: Iterable[str]) -> dict[str, np.ndarray]:
    """Load a feature store and check that it holds every id the command reads."""
    store = synth.load_features(path)
    for rid in ids:
        if rid not in store:
            raise ManifestError(f"feature store {path} has no entry for record {rid!r}")
    return store


def _load_stores(db_path: str, db_ids: list[str], query_path: str | None, query_ids: list[str]):
    """The database and query feature stores; without ``query_path`` both are the database store."""
    if query_path is None:
        store = _load_store(db_path, db_ids + query_ids)
        return store, store
    return _load_store(db_path, db_ids), _load_store(query_path, query_ids)


def _run_training_from_files(args: argparse.Namespace, cfg: RunConfig):
    records = ingest.load_manifest(args.manifest)
    train_records, val_db, val_queries = _split_records(records, cfg)
    if args.partition:
        part = load_partition(args.partition)
        _check_partition_provenance(args.partition, cfg)
    else:
        part = build_partition(train_records, cfg.partition)
    members = [rid for ids in part.class_members.values() for rid in ids]
    features, query_features = _load_stores(
        args.features, members + [r.id for r in val_db], args.query_features, [r.id for r in val_queries]
    )
    state = train.run_training(part, features, cfg.train, val_db, val_queries, query_features)
    return state, features, query_features, val_db, val_queries


def cmd_train(args: argparse.Namespace, cfg: RunConfig) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    state, *_ = _run_training_from_files(args, cfg)

    exported = json.loads(train.export_inference_model(state))
    exported["config"] = run_config_to_dict(cfg)
    model_path = out_dir / "model_best.json"
    _write_json(model_path, exported)
    embed.load_model(model_path)  # validate what we wrote

    (out_dir / "history.csv").write_text(train.history_csv(state.history), encoding="utf-8")
    _write_json(out_dir / "history.meta.json", {"config": run_config_to_dict(cfg)})
    train.save_training_checkpoint(state, out_dir / "train_state.json", extra={"config": run_config_to_dict(cfg)})
    train.load_training_checkpoint(out_dir / "train_state.json")  # validate what we wrote

    print(
        f"best val R@1 {state.best_val_recall1:.3f} at epoch {state.best_epoch}; "
        f"exported {model_path}"
    )
    return 0


def cmd_eval(args: argparse.Namespace, cfg: RunConfig) -> int:
    if bool(args.checkpoint) == bool(args.oracle_latents):
        raise ConfigError("exactly one of --checkpoint or --oracle-latents is required")
    if args.checkpoint and not args.db_features:
        raise ConfigError("--checkpoint needs --db-features")
    db_records = ingest.load_manifest(args.db)
    query_records = ingest.load_manifest(args.queries)
    for path, records in ((args.db, db_records), (args.queries, query_records)):
        if not records:
            raise ManifestError(f"manifest {path} holds no records")
    db_ids = [r.id for r in db_records]
    query_ids = [r.id for r in query_records]

    if args.checkpoint:
        db_features, query_features = _load_stores(args.db_features, db_ids, args.query_features, query_ids)
        model = embed.load_model(args.checkpoint)
        db_vecs = train.embed_records(model, db_records, db_features, cfg.train.batch_size)
        q_vecs = train.embed_records(model, query_records, query_features, cfg.train.batch_size)
    else:
        latents = _load_store(args.oracle_latents, db_ids + query_ids)
        db_vecs = np.stack([latents[rid] for rid in db_ids])
        q_vecs = np.stack([latents[rid] for rid in query_ids])
        db_vecs /= np.linalg.norm(db_vecs, axis=1, keepdims=True)
        q_vecs /= np.linalg.norm(q_vecs, axis=1, keepdims=True)

    report = retrieval.evaluate(
        db_vecs, db_records, q_vecs, query_records, cfg.eval.ks, cfg.eval.threshold_m
    )
    doc = report.to_dict()
    doc["config"] = run_config_to_dict(cfg)
    if args.output:
        _write_json(Path(args.output), doc)
        json.loads(Path(args.output).read_text(encoding="utf-8"))  # validate what we wrote
    print(retrieval.format_report_table(report))
    return 0


def cmd_synth(args: argparse.Namespace, cfg: RunConfig) -> int:
    world = synth.generate_city(cfg.city)
    paths = synth.write_world(world, args.out_dir)
    _, val_db, val_queries = _split_records(world.records, cfg)
    ingest.save_manifest(val_db, Path(args.out_dir) / "db.csv")
    ingest.save_manifest(val_queries, Path(args.out_dir) / "queries.csv")
    _write_json(
        Path(args.out_dir) / "world.json",
        {
            "config": run_config_to_dict(cfg),
            "records": len(world.records),
            "dropped_places": world.dropped_places,
            "max_cross_similarity": world.max_cross_similarity,
        },
    )
    ingest.load_manifest(paths["manifest"])  # validate what we wrote
    print(f"wrote {len(world.records)} records under {args.out_dir}")
    return 0


def cmd_sweep(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.param not in _SWEEP_PARAMS:
        raise ConfigError(f"sweep parameter must be one of {_SWEEP_PARAMS}, got {args.param!r}")
    values = [v for v in (s.strip() for s in args.values.split(",")) if v]
    if not values:
        raise ConfigError("sweep needs a non-empty comma-separated --values list")

    rows = []
    for text in values:
        value = json.loads(text)
        raw = run_config_to_dict(cfg)
        if args.param in _SWEEP_PARTITION_PARAMS:
            raw["partition"][args.param] = value
        else:
            raw["train"][args.param] = value
        sub_cfg = run_config_from_dict(raw)

        sub_args = argparse.Namespace(
            manifest=args.manifest,
            features=args.features,
            query_features=args.query_features,
            partition=None,
        )
        state, features, query_features, val_db, val_queries = _run_training_from_files(sub_args, sub_cfg)
        model = embed.model_from_dict(json.loads(train.export_inference_model(state)))
        db_vecs = train.embed_records(model, val_db, features, sub_cfg.train.batch_size)
        q_vecs = train.embed_records(model, val_queries, query_features, sub_cfg.train.batch_size)
        report = retrieval.evaluate(
            db_vecs, val_db, q_vecs, val_queries, sub_cfg.eval.ks, sub_cfg.eval.threshold_m
        )
        row = {"param": args.param, "value": value}
        row.update({f"recall_at_{k}": v for k, v in sorted(report.recall_at.items())})
        rows.append(row)
        logger.info("sweep %s=%s -> R@1 %.3f", args.param, value, report.recall_at[min(report.recall_at)])

    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(row[h]) if isinstance(row[h], float) else str(row[h]) for h in header))
    Path(args.output).write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_json(Path(args.output).with_suffix(".meta.json"), {"config": run_config_to_dict(cfg)})
    print(f"wrote {len(rows)} sweep rows to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoloc",
        description="Geo-localization pipeline: partition, train, evaluate, synthesize.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="normalize a manifest, deriving UTM from lat/lon when needed")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("partition", help="build the class/group partition of a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--output", required=True)
    p.add_argument(
        "--no-split",
        action="store_true",
        help="partition every record instead of excluding the validation split",
    )
    _add_common(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("train", help="train with per-group heads and export the best model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--features", required=True, help="feature store (.npz keyed by record id)")
    p.add_argument("--query-features", help="feature store for validation queries (domain shift)")
    p.add_argument("--partition", help="partition file from the partition command (rebuilt if omitted)")
    p.add_argument("--out-dir", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="recall@K of a checkpoint (or oracle latents) on a db/query split")
    p.add_argument("--checkpoint")
    p.add_argument("--oracle-latents", help="evaluate ground-truth latents instead of a model")
    p.add_argument("--db", required=True)
    p.add_argument("--db-features", help="database feature store (read with --checkpoint)")
    p.add_argument("--queries", required=True)
    p.add_argument("--query-features")
    p.add_argument("--output")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic world with ground-truth latents")
    p.add_argument("--out-dir", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("sweep", help="train/evaluate across one hyperparameter dimension")
    p.add_argument("--param", required=True, help=f"one of {', '.join(_SWEEP_PARAMS)}")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--manifest", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--query-features")
    p.add_argument("--output", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(message)s",
        stream=sys.stderr,
        force=True,
    )
    try:
        cfg = _resolve_config(args)
        return args.func(args, cfg)
    except ToolError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
