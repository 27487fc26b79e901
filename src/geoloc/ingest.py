"""Dataset manifests: parsing, validation, serialization, and splits.

A manifest is a UTF-8 CSV whose header names a subset of the known columns.
``id`` and ``heading`` are always required; positions come either from
``east``/``north`` (UTM meters) or from ``lat``/``lon``. Lat/lon rows are
projected to UTM after every row has been checked, all in one
``geodesy.latlon_to_utm_arrays`` call, which also gives the zone when no
row names one. Optional ``zone``/``hemisphere`` columns pin the UTM zone
explicitly, ``uri`` records a source location. All records of one
manifest must live in a single zone and hemisphere.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .atomic import AtomicFile
from .errors import DomainError, ManifestError
from .geodesy import HEMISPHERES, MAX_UTM_LATITUDE, NORTH, SOUTH, latlon_to_utm_arrays
# latlon_to_utm stays importable from this module, where the benchmark's
# tracer test looks it up.
from .geodesy import latlon_to_utm  # noqa: F401
from .partition import GeoPose

# Zone assumed when a manifest carries neither explicit zone columns nor
# lat/lon to derive one from. Matches the synthetic-world convention.
DEFAULT_ZONE_NUMBER = 10
DEFAULT_HEMISPHERE = NORTH

_KNOWN_COLUMNS = ("id", "east", "north", "heading", "lat", "lon", "uri", "zone", "hemisphere")
_REQUIRED_COLUMNS = ("id", "heading")


@dataclass(frozen=True)
class ImageRecord:
    """One geo-tagged image: opaque id, pose, zone, and optional metadata."""

    id: str
    pose: GeoPose
    zone_number: int = DEFAULT_ZONE_NUMBER
    hemisphere: str = DEFAULT_HEMISPHERE
    source_uri: str | None = None
    lat: float | None = None
    lon: float | None = None


def _parse_float(text: str, column: str, line: int) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ManifestError(f"line {line}: column {column!r} is not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise ManifestError(f"line {line}: column {column!r} must be finite, got {text!r}")
    return value


def _parse_row(row: dict, line: int) -> tuple[list, tuple[int, str] | None, bool]:
    """One row's fields, its explicit zone (if any) and whether it is projected.

    The fields are ``[id, east, north, heading, uri, lat, lon]``. A lat/lon
    row is projected when it lacks east/north (which are then None) or a
    zone; its latitude is checked against the UTM band here, so the first
    bad row is the one reported.
    """
    heading_raw = _parse_float(row["heading"], "heading", line)
    if not 0.0 <= heading_raw < 720.0:
        raise ManifestError(f"line {line}: heading {heading_raw} outside [0, 720)")

    lat = lon = None
    if row.get("lat") not in (None, "") and row.get("lon") not in (None, ""):
        lat = _parse_float(row["lat"], "lat", line)
        lon = _parse_float(row["lon"], "lon", line)
        if not -90.0 <= lat <= 90.0:  # checked even when the row is not projected
            raise ManifestError(f"line {line}: latitude {lat} outside [-90, 90]")

    zone: tuple[int, str] | None = None
    if row.get("zone") not in (None, ""):
        zone_number = _parse_float(row["zone"], "zone", line)
        if not (zone_number.is_integer() and 1 <= zone_number <= 60):
            raise ManifestError(f"line {line}: zone must be an integer in [1, 60], got {row['zone']!r}")
        hemisphere = (row.get("hemisphere") or "").strip()
        if hemisphere not in HEMISPHERES:
            raise ManifestError(f"line {line}: hemisphere must be one of {HEMISPHERES}, got {hemisphere!r}")
        zone = (int(zone_number), hemisphere)

    has_utm = row.get("east") not in (None, "") and row.get("north") not in (None, "")
    if not has_utm and lat is None:
        raise ManifestError(f"line {line}: neither east/north nor lat/lon present")
    projected = lat is not None and (zone is None or not has_utm)
    if projected and abs(lat) > MAX_UTM_LATITUDE:
        raise ManifestError(f"line {line}: latitude {lat} outside the +/-{MAX_UTM_LATITUDE} degree UTM band")
    east = north = None
    if has_utm:
        east = _parse_float(row["east"], "east", line)
        north = _parse_float(row["north"], "north", line)
    uri = (row.get("uri") or "").strip() or None
    return [row["id"].strip(), east, north, heading_raw % 360.0, uri, lat, lon], zone, projected


def parse_manifest(stream: Iterable[str]) -> list[ImageRecord]:
    """Parse and validate a manifest, reporting offending line numbers.

    Headings must lie in [0, 720) before normalization into [0, 360).
    Duplicate ids, unknown columns, and mixed zones are rejected. Every row
    is checked, in file order, before any is projected: the lat/lon rows
    that need UTM positions are then projected in one call, which also
    gives the zone of a manifest without zone columns.
    """
    reader = csv.DictReader(stream)
    if reader.fieldnames is None:
        raise ManifestError("manifest is empty (no header row)")
    unknown = [c for c in reader.fieldnames if c not in _KNOWN_COLUMNS]
    if unknown:
        raise ManifestError(f"unknown manifest columns: {unknown}")
    missing = [c for c in _REQUIRED_COLUMNS if c not in reader.fieldnames]
    if missing:
        raise ManifestError(f"manifest header lacks required columns: {missing}")
    has_position = ("east" in reader.fieldnames and "north" in reader.fieldnames) or (
        "lat" in reader.fieldnames and "lon" in reader.fieldnames
    )
    if not has_position:
        raise ManifestError("manifest needs east/north or lat/lon columns")

    rows: list[tuple[int, dict]] = []
    seen: dict[str, int] = {}
    for row in reader:
        line = reader.line_num
        if None in row:
            raise ManifestError(f"line {line}: more cells than header columns")
        if None in row.values():
            raise ManifestError(f"line {line}: fewer cells than header columns")
        rid = (row.get("id") or "").strip()
        if not rid:
            raise ManifestError(f"line {line}: empty id")
        if rid in seen:
            raise ManifestError(f"duplicate id {rid!r} on lines {seen[rid]} and {line}")
        seen[rid] = line
        rows.append((line, row))

    # [id, east, north, heading, uri, lat, lon] per row; records are built
    # once the projected rows have their positions and zones.
    fields: list[list] = []
    zone_of: list[tuple[int, str] | None] = []
    projected: list[int] = []
    for line, row in rows:
        row_fields, zone, project = _parse_row(row, line)
        if project:
            projected.append(len(fields))
        fields.append(row_fields)
        zone_of.append(zone)

    if projected:
        utm = latlon_to_utm_arrays(
            np.array([fields[i][5] for i in projected]), np.array([fields[i][6] for i in projected])
        )
        for i, east, north, zone_number, south in zip(projected, *(a.tolist() for a in utm)):
            if fields[i][1] is None:
                fields[i][1:3] = east, north
            if zone_of[i] is None:
                zone_of[i] = (zone_number, SOUTH if south else NORTH)

    explicit = sorted({z for z in zone_of if z is not None})
    if len(explicit) > 1:
        raise ManifestError(f"manifest mixes zones/hemispheres: {explicit}")
    zone_number, hemisphere = explicit[0] if explicit else (DEFAULT_ZONE_NUMBER, DEFAULT_HEMISPHERE)
    return [
        ImageRecord(
            id=rid,
            pose=GeoPose(east=east, north=north, heading=heading),
            zone_number=zone_number,
            hemisphere=hemisphere,
            source_uri=uri,
            lat=lat,
            lon=lon,
        )
        for rid, east, north, heading, uri, lat, lon in fields
    ]


def serialize_manifest(records: Sequence[ImageRecord], stream: io.TextIOBase) -> None:
    """Write records as a manifest; parse(serialize(parse(x))) is the identity."""
    with_latlon = any(r.lat is not None for r in records)
    with_uri = any(r.source_uri is not None for r in records)
    columns = ["id", "east", "north", "heading", "zone", "hemisphere"]
    if with_latlon:
        columns += ["lat", "lon"]
    if with_uri:
        columns += ["uri"]
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for r in records:
        row = [
            r.id,
            repr(float(r.pose.east)),
            repr(float(r.pose.north)),
            repr(float(r.pose.heading)),
            r.zone_number,
            r.hemisphere,
        ]
        if with_latlon:
            row += ["" if r.lat is None else repr(float(r.lat)), "" if r.lon is None else repr(float(r.lon))]
        if with_uri:
            row += [r.source_uri or ""]
        writer.writerow(row)


def load_manifest(path: str | Path) -> list[ImageRecord]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return parse_manifest(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc


def save_manifest(records: Sequence[ImageRecord], path: str | Path) -> None:
    with AtomicFile(path, "w", encoding="utf-8", newline="") as fh:
        serialize_manifest(records, fh)


def split_validation(
    records: Sequence[ImageRecord], fraction: float, seed: int
) -> tuple[list[ImageRecord], list[ImageRecord], list[ImageRecord]]:
    """Deterministically split records into (train, val database, val queries).

    ``fraction`` of the records goes to the validation database and the same
    amount to the validation queries; the three parts are disjoint and cover
    the input. Record order within each part follows the input order.
    """
    if not 0.0 < fraction <= 0.5:
        raise DomainError(f"validation fraction must be in (0, 0.5], got {fraction}")
    n = len(records)
    n_val = int(round(n * fraction))
    if n_val < 1 or n - 2 * n_val < 1:
        raise DomainError(f"{n} records are too few for a {fraction} validation split")
    order = list(range(n))
    random.Random(seed).shuffle(order)
    query_idx = set(order[:n_val])
    db_idx = set(order[n_val : 2 * n_val])
    train = [r for i, r in enumerate(records) if i not in query_idx and i not in db_idx]
    val_db = [r for i, r in enumerate(records) if i in db_idx]
    val_queries = [r for i, r in enumerate(records) if i in query_idx]
    return train, val_db, val_queries
