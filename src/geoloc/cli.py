"""Command-line pipeline: convert, partition, train, eval, synth, sweep.

Every command loads one declarative config (JSON or YAML), applies
``--set section.key=value`` overrides plus the global ``--seed``, and
echoes the resolved config into each output artifact. Errors exit nonzero
with a single machine-parseable line (``error[<code>]: message``) on
stderr. Before a zero exit, the manifests that ``convert`` and ``synth``
write, the partition file, the model checkpoint and the eval report are
re-read and validated; the training history, the world summary, the
validation manifests and the sweep CSV are not. ``sweep --param`` is any key
path ``--set`` takes, each value applied last; a row holds the value as the
run's config stores it and the best epoch's validation at ``eval.ks``.
A partition file is never parsed into a partition. ``partition`` serializes
its document once and compares the file's bytes with the bytes it wrote
(``_check_write_back``); ``train --partition`` compares the file as JSON text
with the partition the command builds (``_check_partition_file``).
``eval --checkpoint`` loads the database and the queries (from
``--query-features``, else from the database store) each on its own, with a
reduce that pools each chunk of maps with the checkpoint's pooling and
projects it: the loader returns a reduced 2-D block in Fortran order, so the
database block is the matrix the index adopts, and eval holds no pooled rows.
``partition``, ``train``, ``sweep`` and ``eval`` read manifests as columns
(``ingest.load_manifest_columns``) and hold ids and arrays, not a record per
row; ``train`` and ``sweep`` load each side's store on its own, as eval does.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
import numpy as np

from . import embed, ingest, retrieval, synth, train
from .atomic import AtomicFile, check_header, dump_json, make_dir, read_json, write_atomic
from .config import (
    RunConfig,
    apply_overrides,
    key_path,
    load_run_config,
    run_config_from_dict,
    run_config_to_dict,
)
from .errors import CheckpointError, ConfigError, DomainError, ManifestError, PartitionError, RetrievalError, ToolError
from .partition import (
    PARTITION_FORMAT,
    PARTITION_VERSION,
    Partition,
    build_partition,
    format_stats_table,
    partition_stats,
    partition_to_dict,
    save_partition,
)

logger = logging.getLogger("geoloc")


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


def cmd_convert(args: argparse.Namespace, cfg: RunConfig) -> int:
    records = ingest.load_manifest(args.input)
    ingest.save_manifest(records, args.output)
    ingest.load_manifest(args.output)  # validate what we wrote
    print(f"wrote {len(records)} records to {args.output}")
    return 0


def cmd_partition(args: argparse.Namespace, cfg: RunConfig) -> int:
    train_rows = ingest.split_validation(ingest.load_manifest_columns(args.manifest), cfg.split.fraction, cfg.seed)[0]
    part = build_partition(train_rows, cfg.partition)
    stats = partition_stats(part)
    written = save_partition(part, args.output, extra={"run_config": run_config_to_dict(cfg), "stats": stats})
    _check_write_back(args.output, written)
    print(format_stats_table(stats))
    return 0


def _check_write_back(path: str | Path, written: bytes) -> None:
    """Reject the partition file at ``path`` unless it holds exactly the bytes just written to it.

    The document was serialized once, so equal bytes are the built partition; it is not parsed again.
    """
    try:
        found = Path(path).read_bytes()
    except OSError as exc:
        raise PartitionError(f"cannot read partition file {path}: {exc.strerror or exc}") from exc
    if found != written:
        raise PartitionError(f"partition file {path} does not hold the {len(written)} bytes written to it")


def _check_partition_file(path: str | Path, built: Partition) -> None:
    """Reject the partition file at ``path`` unless it holds ``partition_to_dict(built)``'s keys and values.

    Values compare as canonical JSON text, so ``1.0`` or ``true`` never passes for ``1``; other keys are
    not read. The message names the config fields that differ, else the first class, else the keys.
    """
    doc = read_json(path, PartitionError, "partition file")
    check_header(doc, PARTITION_FORMAT, PARTITION_VERSION, PartitionError, "partition file")
    ours = partition_to_dict(built)
    missing = [k for k in ours if k not in doc]
    if missing:
        raise PartitionError(f"partition file {path} lacks {missing}")
    differ = [k for k in ours if dump_json(doc[k]) != dump_json(ours[k])]
    if not differ:
        return
    if "config" in differ:
        theirs = doc["config"] if isinstance(doc["config"], dict) else {}
        pairs = {k: (theirs.get(k), ours["config"].get(k)) for k in {**ours["config"], **theirs}}
        diff = ", ".join(f"{k} {a!r} vs {b!r}" for k, (a, b) in pairs.items() if dump_json(a) != dump_json(b))
        raise ConfigError(f"partition {path} was built with another partition config than this run's ({diff})")
    diff = ", ".join(differ)
    if "classes" in differ and isinstance(doc["classes"], list):
        theirs, classes = doc["classes"], ours["classes"]
        at = next(i for i in range(len(theirs) + 1) if dump_json(theirs[i : i + 1]) != dump_json(classes[i : i + 1]))
        diff = f"class {classes[at]['cell']}" if at < len(classes) else f"extra class #{at}"
    raise ConfigError(f"partition {path} is not the partition of this run's manifest, split and config ({diff})")


def _run_training_from_files(
    cfg: RunConfig, manifest: str, features: str, query_features: str | None, partition: str | None = None
):
    # The whole manifest's columns are dropped once split: training holds only its parts.
    train_rows, val_db, val_queries = ingest.split_validation(
        ingest.load_manifest_columns(manifest), cfg.split.fraction, cfg.seed
    )
    part = build_partition(train_rows, cfg.partition)
    if partition:
        _check_partition_file(partition, part)
    # Training reads the members of the groups it visits and the validation split only, each side on its own.
    groups = train.used_groups(part, cfg.train)
    members = [rid for g in groups for cid in part.group_classes[g] for rid in part.class_members[cid]]
    reduce = train.store_reduce(cfg.train.model)
    store = synth.load_features(features, members + val_db.ids, reduce)
    query_store = synth.load_features(query_features or features, val_queries.ids, reduce)
    return train.run_training(part, store, cfg.train, val_db, val_queries, query_store)


def cmd_train(args: argparse.Namespace, cfg: RunConfig) -> int:
    out_dir = make_dir(args.out_dir)
    state = _run_training_from_files(cfg, args.manifest, args.features, args.query_features, args.partition)

    model_path = out_dir / "model_best.json"
    embed.save_model(state.best_model, model_path, extra={"config": run_config_to_dict(cfg)})
    embed.load_model(model_path)  # validate what we wrote

    write_atomic(out_dir / "history.csv", train.history_csv(state.history))

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
    db_rows = ingest.load_manifest_columns(args.db)
    query_rows = ingest.load_manifest_columns(args.queries)
    for path, rows in ((args.db, db_rows), (args.queries, query_rows)):
        if not len(rows):
            raise ManifestError(f"manifest {path} holds no records")
    db_ids, query_ids = db_rows.ids, query_rows.ids

    if args.checkpoint:
        model = embed.load_model(args.checkpoint)
        pool = train.store_reduce(embed.ModelConfig(model.output_dim, model.pooling, model.gem_p))

        def project(maps: np.ndarray) -> np.ndarray:
            # Finite maps through a finite model can overflow only by the checkpoint's magnitudes.
            try:
                with np.errstate(over="raise", invalid="raise"):
                    return embed.forward(model, pool(maps))[0]
            except FloatingPointError as exc:
                raise CheckpointError(f"model checkpoint {args.checkpoint} overflows float64: {exc}") from None

        # The checkpoint fixes pooling and projection, so each chunk of maps becomes descriptors as it
        # is read, and the loader's Fortran-ordered block is the matrix the index adopts.
        db_vecs = synth.load_features(args.db_features, db_ids, project).block
        q_vecs = synth.load_features(args.query_features or args.db_features, query_ids, project).block
    else:
        ids = db_ids + query_ids
        latents = synth.load_features(args.oracle_latents, ids)
        vecs = np.asarray(latents.block[latents.rows(ids)], dtype=np.float64)
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        if not norms.all():
            raise DomainError(f"oracle latent of record {ids[norms.argmin()]!r} in {args.oracle_latents} is zero")
        vecs /= norms
        # The index adopts the Fortran-ordered database side; the queries are copied out, so vecs can go.
        db_vecs, q_vecs = np.asfortranarray(vecs[: len(db_ids)]), vecs[len(db_ids) :].copy()
        del latents, vecs

    report = retrieval.evaluate(db_vecs, db_rows, q_vecs, query_rows, cfg.eval.ks, cfg.eval.threshold_m)
    doc = report.to_dict()
    doc["config"] = run_config_to_dict(cfg)
    if args.output:
        write_atomic(args.output, dump_json(doc))
        written = read_json(args.output, RetrievalError, "eval report")  # validate what we wrote
        check_header(written, retrieval.REPORT_FORMAT, retrieval.REPORT_VERSION, RetrievalError, "eval report")
    print(retrieval.format_report_table(report))
    return 0


def cmd_synth(args: argparse.Namespace, cfg: RunConfig) -> int:
    world = synth.generate_city(cfg.city)
    paths = synth.write_world(world, args.out_dir)
    _, val_db, val_queries = ingest.split_validation(world.rows, cfg.split.fraction, cfg.seed)
    ingest.save_manifest(val_db.records(), Path(args.out_dir) / "db.csv")
    ingest.save_manifest(val_queries.records(), Path(args.out_dir) / "queries.csv")
    summary = {
        "config": run_config_to_dict(cfg),
        "records": len(world.rows),
        "dropped_places": world.dropped_places,
        "max_cross_similarity": world.max_cross_similarity,
    }
    write_atomic(Path(args.out_dir) / "world.json", dump_json(summary))
    ingest.load_manifest_columns(paths["manifest"])  # validate what we wrote
    print(f"wrote {len(world.rows)} records under {args.out_dir}")
    return 0


def cmd_sweep(args: argparse.Namespace, cfg: RunConfig) -> int:
    values = [v for v in (s.strip() for s in args.values.split(",")) if v]
    if not values:
        raise ConfigError("sweep needs a non-empty comma-separated --values list")

    sub_cfgs = []
    for text in values:
        sub_cfg = run_config_from_dict(apply_overrides(run_config_to_dict(cfg), [f"{args.param}={text}"]))
        value = run_config_to_dict(sub_cfg)  # the value as the run's config stores it
        for key in key_path(args.param):
            value = value[key]
        if isinstance(value, dict):
            raise ConfigError(f"sweep parameter {args.param} names a config section, not a value")
        sub_cfgs.append((value, sub_cfg))

    # Open the output first: an unwritable path fails before any training, and an old file stays until the end.
    with AtomicFile(args.output, "wb") as out:
        rows = []
        for value, sub_cfg in sub_cfgs:
            state = _run_training_from_files(sub_cfg, args.manifest, args.features, args.query_features)
            recall_at = state.history[state.best_epoch].recall_at
            row = {"param": args.param, "value": value}
            row.update({f"recall_at_{k}": recall_at[k] for k in sub_cfg.eval.ks})
            rows.append(row)
            logger.info("sweep %s=%s -> R@1 %.3f", args.param, value, state.best_val_recall1)

        header = list(dict.fromkeys(h for row in rows for h in row))  # values of eval.ks bring their own columns
        lines = [",".join(header)] + [",".join(str(row.get(h, "")) for h in header) for row in rows]
        out.write(("\n".join(lines) + "\n").encode("utf-8"))
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
    _add_common(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("train", help="train with per-group heads and export the best model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--features", required=True, help="feature store (.npz keyed by record id)")
    p.add_argument("--query-features", help="feature store for validation queries (domain shift)")
    p.add_argument("--partition", help="partition file that must equal the one training builds")
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
    p.add_argument("--param", required=True, metavar="KEY.PATH", help="a --set key path; each value applies last")
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
        # One line, whatever the message holds (parser errors span several).
        message = " ".join(line.strip() for line in str(exc).splitlines())
        print(f"error[{exc.code}]: {message}", file=sys.stderr)
        return 1


def entrypoint() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
