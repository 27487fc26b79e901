"""Corrupted artifacts end in one ``error[<code>]:`` line, never a traceback.

Each artifact the pipeline reads is truncated, has one bit flipped, or loses
a required key, column or store member, and is then read the way the
pipeline reads it, through ``cli.main``. The seven kinds are the JSON and the
YAML config, the manifest (read by ``convert``), a lat/lon database manifest
(read by ``eval``), the partition, the model checkpoint and a feature store.

A truncated file or a dropped required key must fail. A flipped bit may
leave a valid file, so it may also succeed. Two formats have no end marker,
so a truncation can leave a valid file there too: a YAML config, and either
manifest cut at a line boundary. Config keys all have defaults, so dropping
one may succeed as well.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import zipfile
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from geoloc import cli, ingest
from geoloc.geodesy import UtmCoord, utm_to_latlon

CONFIG = {
    "seed": 5,
    "partition": {
        "cell_size_m": 10.0,
        "heading_bin_deg": 30.0,
        "cell_stride": 2,
        "heading_stride": 2,
        "min_images_per_class": 2,
    },
    "split": {"fraction": 0.15},
    "train": {
        "groups_used": 2,
        "iterations_per_epoch": 2,
        "total_epochs": 1,
        "batch_size": 8,
        "learning_rate": 0.01,
        "model": {"output_dim": 8, "pooling": "gem", "gem_p": 3.0},
        "seed": 5,
    },
    "city": {
        "extent_m": 100.0,
        "place_spacing_m": 50.0,
        "headings_per_place": 4,
        "images_per_place_heading": 6,
        "latent_dim": 8,
        "feature_map_shape": [8, 2, 2],
        "seed": 5,
    },
    "eval": {"threshold_m": 25.0, "ks": [1, 5]},
}

KINDS = ("config.json", "config.yaml", "manifest", "db-manifest", "partition", "checkpoint", "store")
MANIFESTS = ("manifest", "db-manifest")


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A tiny world and every artifact the pipeline writes for it."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = root / "run.json"
    cfg.write_text(json.dumps(CONFIG), encoding="utf-8")
    (root / "run.yaml").write_text(yaml.safe_dump(CONFIG), encoding="utf-8")
    world = root / "world"
    common = ["--config", str(cfg)]
    manifest = ["--manifest", str(world / "manifest.csv")]
    assert _run(["synth", *common, "--out-dir", str(world)])[0] == 0
    assert _run(["partition", *common, *manifest, "--output", str(root / "partition.json")])[0] == 0
    assert _run(["train", *common, *manifest, "--features", str(world / "features.npz"),
                 "--out-dir", str(root / "run")])[0] == 0
    db_records = ingest.load_manifest(world / "db.csv")
    db_ids = [r.id for r in db_records]
    # Positions as lat/lon only. The id comes last, so a cut inside the last row cannot leave a valid one.
    with open(root / "db_latlon.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["heading", "lat", "lon", "id"])
        for r in db_records:
            p = utm_to_latlon(UtmCoord(r.pose.east, r.pose.north, r.zone_number, r.hemisphere))
            writer.writerow([repr(r.pose.heading), repr(p.latitude), repr(p.longitude), r.id])
    with np.load(world / "features.npz") as store:
        np.savez(root / "db_features.npz", **{rid: store[rid] for rid in db_ids})

    queries = ["--queries", str(world / "queries.csv"), "--query-features", str(world / "query_features.npz")]
    evaluate = ["eval", *common, "--db", str(world / "db.csv"), *queries]
    checkpoint = ["--checkpoint", str(root / "run" / "model_best.json")]
    out = root / "out"
    out.mkdir()
    # kind -> (source file, argv reading a copy of it at the given path)
    return {
        "config.json": (cfg, lambda p: ["partition", "--config", str(p), *manifest, "--output", str(out / "p.json")]),
        "config.yaml": (root / "run.yaml",
                        lambda p: ["partition", "--config", str(p), *manifest, "--output", str(out / "p.json")]),
        "manifest": (world / "manifest.csv", lambda p: ["convert", "--input", str(p), "--output", str(out / "m.csv")]),
        "db-manifest": (root / "db_latlon.csv",
                        lambda p: ["eval", *common, "--db", str(p), *queries, *checkpoint,
                                   "--db-features", str(world / "features.npz")]),
        "partition": (root / "partition.json",
                      lambda p: ["train", *common, *manifest, "--features", str(world / "features.npz"),
                                 "--partition", str(p), "--out-dir", str(out / "run")]),
        "checkpoint": (root / "run" / "model_best.json",
                       lambda p: [*evaluate, "--checkpoint", str(p), "--db-features", str(world / "features.npz")]),
        "store": (root / "db_features.npz",
                  lambda p: [*evaluate, *checkpoint, "--db-features", str(p)]),
    }


def _required(kind: str, blob: bytes) -> list[str]:
    """Keys, columns or store members whose loss the reader must reject."""
    if kind in MANIFESTS:
        return ["id", "heading", *(["east", "north"] if kind == "manifest" else ["lat", "lon"])]
    if kind == "store":
        return [n.removesuffix(".npy") for n in zipfile.ZipFile(io.BytesIO(blob)).namelist()]
    if kind.startswith("config"):
        return sorted(CONFIG)
    optional = {"partition": {"run_config", "stats"}}.get(kind, {"config"})
    return sorted(set(json.loads(blob)) - optional)


def _drop(kind: str, blob: bytes, key: str) -> bytes:
    if kind in MANIFESTS:
        rows = list(csv.reader(io.StringIO(blob.decode("utf-8"))))
        col = rows[0].index(key)
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([r[:col] + r[col + 1 :] for r in rows])
        return out.getvalue().encode("utf-8")
    if kind == "store":
        src = zipfile.ZipFile(io.BytesIO(blob))
        out = io.BytesIO()
        with zipfile.ZipFile(out, "w") as dst:
            for name in src.namelist():
                if name != f"{key}.npy":
                    dst.writestr(name, src.read(name))
        return out.getvalue()
    if kind == "config.yaml":
        doc = yaml.safe_load(blob)
        del doc[key]
        return yaml.safe_dump(doc).encode("utf-8")
    doc = json.loads(blob)
    del doc[key]
    return json.dumps(doc).encode("utf-8")


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_corrupt_artifact_gives_one_error_line(pipeline, tmp_path_factory, kind, data):
    _check_corrupt_artifact(pipeline, tmp_path_factory, kind, data)


@pytest.mark.parametrize("kind", MANIFESTS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_corrupt_manifest_read_in_chunks_of_three_rows_gives_one_error_line(pipeline, tmp_path_factory, kind, data):
    # Each manifest spans several 3-row chunks, so a fault can land in a chunk after the first.
    with mock.patch.object(ingest, "MANIFEST_CHUNK_ROWS", 3):
        _check_corrupt_artifact(pipeline, tmp_path_factory, kind, data)


def _check_corrupt_artifact(pipeline, tmp_path_factory, kind, data):
    source, argv = pipeline[kind]
    blob = source.read_bytes()
    op = data.draw(st.sampled_from(["truncate", "flip", "drop"]), label="op")
    if op == "truncate":
        cut = data.draw(st.integers(0, len(blob.rstrip()) - 1), label="cut")
        mutated = blob[:cut]
        whole_lines = b"\n" in blob[cut - 1 : cut + 1] if cut else False
        must_fail = kind != "config.yaml" and not (kind in MANIFESTS and whole_lines)
    elif op == "flip":
        at = data.draw(st.integers(0, len(blob) - 1), label="byte")
        mutated = blob[:at] + bytes([blob[at] ^ (1 << data.draw(st.integers(0, 7), label="bit"))]) + blob[at + 1 :]
        must_fail = False
    else:
        mutated = _drop(kind, blob, data.draw(st.sampled_from(_required(kind, blob)), label="key"))
        must_fail = not kind.startswith("config")
    path = tmp_path_factory.mktemp("mutant") / source.name
    path.write_bytes(mutated)

    rc, err = _run(argv(path))
    lines = err.strip().splitlines()
    if rc == 0:
        assert not must_fail, f"{op} of {kind} exited 0"
    else:
        assert rc == 1 and len(lines) == 1 and lines[0].startswith("error["), err
