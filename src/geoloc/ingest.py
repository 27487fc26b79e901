"""Dataset manifests: parsing, validation, serialization, and splits.

A manifest is a UTF-8 CSV (a leading byte order mark is dropped) whose header
names a subset of the known columns. ``id`` and ``heading`` are always
required; positions come either from ``east``/``north`` (UTM meters) or from
``lat``/``lon``. The file is read as columns, ``MANIFEST_CHUNK_ROWS`` (1 024)
rows at a time: one ``csv.reader`` pass reads the rows, and each chunk's
cells become ids and arrays before the next chunk is read, so one chunk of
cell strings is alive at a time. A chunk's cell counts and ids are checked
on whole lists, then each numeric column is parsed with ``float`` and checked
as arrays; a numeric cell that is not ASCII or holds ``_`` is not a number,
though ``float`` reads it. A structural fault (cell count, empty or
duplicate id) anywhere is reported before any value fault; otherwise the
fault reported is the earliest faulty row's first failed check. The one
parser, ``parse_manifest_columns``, returns ``ManifestColumns`` (ids and
arrays), the one row type the pipeline splits, partitions, trains and
evaluates on; ``parse_manifest`` builds an ``ImageRecord`` per row from them,
for ``geoloc convert`` and library callers. Lat/lon rows
are projected to UTM after every row has been checked, all in one
``geodesy.latlon_to_utm_arrays`` call, which also gives the zone when no
row names one. Optional ``zone``/``hemisphere`` columns pin the UTM zone
explicitly, ``uri`` records a source location. All records of one
manifest must live in a single zone and hemisphere.
"""

from __future__ import annotations

import csv
import io
import random
from array import array
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

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

# Rows of cells read at a time: each chunk becomes ids and arrays before the next is read.
MANIFEST_CHUNK_ROWS = 1024

_KNOWN_COLUMNS = ("id", "east", "north", "heading", "lat", "lon", "uri", "zone", "hemisphere")
_REQUIRED_COLUMNS = ("id", "heading")


@dataclass(frozen=True, slots=True)
class ImageRecord:
    """One geo-tagged image: opaque id, pose, zone, and optional metadata."""

    id: str
    pose: GeoPose
    zone_number: int = DEFAULT_ZONE_NUMBER
    hemisphere: str = DEFAULT_HEMISPHERE
    source_uri: str | None = None
    lat: float | None = None
    lon: float | None = None


def _floats(cells: Sequence[str], use: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``float`` of each used cell (NaN elsewhere) and the mask of used cells it rejects.

    A cell that is not ASCII or that holds ``_`` is rejected too, though ``float`` reads ``1_000`` and ``١``.
    """
    values, rejected = np.full(len(cells), np.nan), np.zeros(len(cells), bool)
    rows = np.flatnonzero(use)
    used = cells if rows.size == len(cells) else [cells[i] for i in rows]
    joined = "".join(used)  # one test for the whole column, not one per cell
    if joined.isascii() and "_" not in joined:
        try:
            values[rows] = list(map(float, used))
            return values, rejected
        except ValueError:
            pass
    for i in rows:
        cell = cells[i]
        if cell.isascii() and "_" not in cell:
            try:
                values[i] = float(cell)
                continue
            except ValueError:
                pass
        rejected[i] = True
    return values, rejected


@dataclass(frozen=True, slots=True, eq=False)
class ManifestColumns:
    """A manifest as columns: row ``i`` is ``ids[i]`` at ``(east[i], north[i])``, facing ``heading[i]``.

    ``heading`` lies in [0, 360). ``lat``/``lon`` are NaN on rows that give no lat/lon, and ``uris``
    is None when the manifest has no ``uri`` column. Every row lies in one zone and hemisphere.
    """

    ids: list[str]
    east: np.ndarray
    north: np.ndarray
    heading: np.ndarray
    zone_number: int
    hemisphere: str
    lat: np.ndarray
    lon: np.ndarray
    uris: list[str | None] | None

    def __len__(self) -> int:
        return len(self.ids)

    def positions(self) -> np.ndarray:
        """The ``(N, 2)`` (east, north) array."""
        return np.column_stack((self.east, self.north))

    def records(self) -> list[ImageRecord]:
        """One ``ImageRecord`` per row, with None for an absent lat/lon or uri."""
        lats, lons = ([None if v != v else v for v in a.tolist()] for a in (self.lat, self.lon))  # NaN: absent
        uris = self.uris or [None] * len(self.ids)
        zone_number, hemisphere = self.zone_number, self.hemisphere
        # Positional arguments, in field order: keywords cost a third more per row.
        return [
            ImageRecord(rid, GeoPose(e, n, h), zone_number, hemisphere, uri, la, lo)
            for rid, e, n, h, uri, la, lo in zip(
                self.ids, self.east.tolist(), self.north.tolist(), self.heading.tolist(), uris, lats, lons
            )
        ]

    def take(self, rows: np.ndarray) -> ManifestColumns:
        """The columns of ``rows``, an integer array of row indices, in its order."""
        picks = rows.tolist()
        uris = None if self.uris is None else [self.uris[i] for i in picks]
        return ManifestColumns([self.ids[i] for i in picks], self.east[rows], self.north[rows], self.heading[rows],
                               self.zone_number, self.hemisphere, self.lat[rows], self.lon[rows], uris)


def _chunks(reader: Iterator[list[str]], size: int) -> Iterator[tuple[list[list[str]], list[int], Exception | None]]:
    """``(rows, lines, None)`` for every ``size`` non-blank rows of ``reader``, with its line count after each row.

    The last chunk may be short or empty. A read error ends the chunks with ``(the rows read before it, lines, error)``.
    """
    rows: list[list[str]] = []
    lines: list[int] = []
    try:
        for row in reader:
            if row:  # a blank line reads as no cells
                rows.append(row)
                lines.append(reader.line_num)
                if len(rows) == size:
                    yield rows, lines, None
                    rows, lines = [], []
    except Exception as exc:  # csv.Error, a decode or an OS error: the caller checks the rows read first
        yield rows, lines, exc
        return
    yield rows, lines, None


def _structure_fault(
    ids: Iterable[str],
    id_lines: Iterable[int],
    rows: Iterable[list[str]],
    lines: Iterable[int],
    width: int,
    id_col: int,
) -> ManifestError | None:
    """The first structural fault of the rows read so far, in the order a row-by-row check meets them.

    ``ids`` (read on ``id_lines``) come from earlier rows, which passed the cell count and id checks;
    ``rows`` (read on ``lines``) follow them. A row is checked for its cell count, then an empty id,
    then a duplicate id; None when every row passes.
    """
    seen: dict[str, int] = {}
    for rid, line in zip(ids, id_lines):
        if seen.setdefault(rid, line) != line:
            return ManifestError(f"duplicate id {rid!r} on lines {seen[rid]} and {line}")
    for row, line in zip(rows, lines):
        if len(row) != width:
            count = "more" if len(row) > width else "fewer"
            return ManifestError(f"line {line}: {count} cells than header columns")
        rid = row[id_col].strip()
        if not rid:
            return ManifestError(f"line {line}: empty id")
        if seen.setdefault(rid, line) != line:
            return ManifestError(f"duplicate id {rid!r} on lines {seen[rid]} and {line}")
    return None


def _chunk_columns(
    header: list[str], rows: list[list[str]], lines: list[int]
) -> tuple[dict[str, np.ndarray], set[tuple[int, str]], list[str | None] | None]:
    """The value columns of structurally sound ``rows`` (read on ``lines``), their zones and their uris.

    Each row meets the value checks in one fixed order (``checks``); the first failure of the
    earliest faulty row raises ManifestError. The columns are ``heading`` (not yet in [0, 360)),
    ``lat``/``lon``/``east``/``north`` before projection, and the masks projection reads.
    """
    n = len(rows)
    # A repeated header name reads its last column, as a csv.DictReader row does.
    cells = dict(zip(header, zip(*rows) if rows else [()] * len(header)))
    blank = ("",) * n

    def present(*names: str) -> np.ndarray:
        return np.logical_and.reduce([np.fromiter(map(bool, cells.get(c, blank)), bool, n) for c in names])

    # (mask of faulty rows, message for row i), in the order one row is checked.
    checks: list[tuple[np.ndarray, Callable[[int], str]]] = []

    def numbers(name: str, use: np.ndarray) -> np.ndarray:
        values, rejected = _floats(cells.get(name, blank), use)
        checks.append((rejected, lambda i: f"column {name!r} is not a number: {cells[name][i]!r}"))
        checks.append((use & ~np.isfinite(values), lambda i: f"column {name!r} must be finite, got {cells[name][i]!r}"))
        return values

    heading = numbers("heading", np.ones(n, bool))
    checks.append((~((heading >= 0.0) & (heading < 720.0)), lambda i: f"heading {heading[i].item()} outside [0, 720)"))
    latlon = present("lat", "lon")
    lat, lon = numbers("lat", latlon), numbers("lon", latlon)
    checks.append((latlon & ~(np.abs(lat) <= 90.0), lambda i: f"latitude {lat[i].item()} outside [-90, 90]"))
    zoned = present("zone")
    zone = numbers("zone", zoned)
    bad_zone = zoned & ~((zone == np.floor(zone)) & (zone >= 1.0) & (zone <= 60.0))
    checks.append((bad_zone, lambda i: f"zone must be an integer in [1, 60], got {cells['zone'][i]!r}"))
    hemispheres = list(map(str.strip, cells.get("hemisphere", blank)))
    bad_hemisphere = zoned & ~np.fromiter(map(HEMISPHERES.__contains__, hemispheres), bool, n)
    checks.append((bad_hemisphere, lambda i: f"hemisphere must be one of {HEMISPHERES}, got {hemispheres[i]!r}"))
    has_utm = present("east", "north")
    checks.append((~has_utm & ~latlon, lambda i: "neither east/north nor lat/lon present"))
    projected = latlon & (~zoned | ~has_utm)
    outside_band = projected & (np.abs(lat) > MAX_UTM_LATITUDE)
    checks.append(
        (outside_band, lambda i: f"latitude {lat[i].item()} outside the +/-{MAX_UTM_LATITUDE} degree UTM band")
    )
    east, north = numbers("east", has_utm), numbers("north", has_utm)
    faulty = np.logical_or.reduce([mask for mask, _ in checks])
    if faulty.any():
        i = int(faulty.argmax())
        raise ManifestError(f"line {lines[i]}: {next(message for mask, message in checks if mask[i])(i)}")
    uris = [u.strip() or None for u in cells["uri"]] if "uri" in cells else None
    zones = set(zip(zone[zoned].astype(int).tolist(), compress(hemispheres, zoned.tolist())))
    columns = {
        "heading": heading, "lat": lat, "lon": lon, "east": east, "north": north,
        "projected": projected, "zoned": zoned, "has_utm": has_utm,
    }
    return columns, zones, uris


def parse_manifest_columns(stream: Iterable[str]) -> ManifestColumns:
    """Parse and validate a manifest into columns, reporting offending line numbers.

    Headings must lie in [0, 720) before normalization into [0, 360).
    Duplicate ids, unknown columns, and mixed zones are rejected. The rows
    are read ``MANIFEST_CHUNK_ROWS`` at a time, and each chunk becomes ids
    and arrays before the next is read. Its structural checks (cell count,
    empty id) run on whole lists, and ids are checked for duplicates once
    all are read; each row then meets the value checks in one fixed order
    (``_chunk_columns``). A fault names the earliest faulty row and the first
    check it fails, as a row-by-row parse would, except that a structural
    fault anywhere is reported before any value fault; a structural fault
    before a row the reader cannot read is reported before the read error.
    """
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None:
        raise ManifestError("manifest is empty (no header row)")
    unknown = [c for c in header if c not in _KNOWN_COLUMNS]
    if unknown:
        raise ManifestError(f"unknown manifest columns: {unknown}")
    missing = [c for c in _REQUIRED_COLUMNS if c not in header]
    if missing:
        raise ManifestError(f"manifest header lacks required columns: {missing}")
    if not ({"east", "north"} <= set(header) or {"lat", "lon"} <= set(header)):
        raise ManifestError("manifest needs east/north or lat/lon columns")

    id_col = max(i for i, c in enumerate(header) if c == "id")  # a repeated name reads its last column
    ids: list[str] = []
    id_lines = array("q")
    parts: dict[str, list[np.ndarray]] = {}
    zones: set[tuple[int, str]] = set()
    uris: list[str | None] | None = [] if "uri" in header else None
    fault: ManifestError | None = None  # the first value fault, raised once every row's structure passed
    for rows, lines, error in _chunks(reader, MANIFEST_CHUNK_ROWS):
        whole = set(map(len, rows)) <= {len(header)}
        chunk_ids = list(map(str.strip, map(itemgetter(id_col), rows))) if whole else []
        if error is not None or not whole or not all(chunk_ids):
            # A faulty chunk always holds a structural fault; after a read error there may be none.
            raise _structure_fault(ids, id_lines, rows, lines, len(header), id_col) or error
        ids += chunk_ids
        id_lines.extend(lines)
        if fault is None:
            try:
                columns, chunk_zones, chunk_uris = _chunk_columns(header, rows, lines)
            except ManifestError as exc:
                fault = exc.with_traceback(None)  # its traceback would keep the chunk's cells
            else:
                for name, values in columns.items():
                    parts.setdefault(name, []).append(values)
                zones |= chunk_zones
                if uris is not None:
                    uris += chunk_uris
        del rows, lines, chunk_ids  # the next chunk's cells are the only ones alive while it is read
    if len(dict.fromkeys(ids)) != len(ids):  # a dict of many ids peaks at about a quarter of a set's memory
        raise _structure_fault(ids, id_lines, (), (), len(header), id_col)
    if fault is not None:
        raise fault
    del id_lines

    # One column at a time, so the chunks of one column are all that is held twice.
    heading, lat, lon, east, north, projected, zoned, has_utm = (
        np.concatenate(parts.pop(name))
        for name in ("heading", "lat", "lon", "east", "north", "projected", "zoned", "has_utm")
    )
    np.remainder(heading, 360.0, out=heading)  # in place: no kept column is allocated after the projection
    rows_projected = np.flatnonzero(projected)
    if rows_projected.size:
        utm_east, utm_north, utm_zone, south = latlon_to_utm_arrays(lat[rows_projected], lon[rows_projected])
        fill = ~has_utm[rows_projected]
        east[rows_projected[fill]], north[rows_projected[fill]] = utm_east[fill], utm_north[fill]
        derived = ~zoned[rows_projected]
        zones.update(zip(utm_zone[derived].tolist(), np.where(south[derived], SOUTH, NORTH).tolist()))
    if len(zones) > 1:
        raise ManifestError(f"manifest mixes zones/hemispheres: {sorted(zones)}")
    zone_number, hemisphere = zones.pop() if zones else (DEFAULT_ZONE_NUMBER, DEFAULT_HEMISPHERE)
    return ManifestColumns(ids, east, north, heading, zone_number, hemisphere, lat, lon, uris)


def parse_manifest(stream: Iterable[str]) -> list[ImageRecord]:
    """The records of a manifest: ``parse_manifest_columns``, one ``ImageRecord`` per row."""
    return parse_manifest_columns(stream).records()


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


def _read_manifest(path: str | Path, parse: Callable[[Iterable[str]], Any]) -> Any:
    """``parse`` of the file at ``path``, read as UTF-8 with or without a byte order mark."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            return parse(fh)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc


def load_manifest_columns(path: str | Path) -> ManifestColumns:
    return _read_manifest(path, parse_manifest_columns)


def load_manifest(path: str | Path) -> list[ImageRecord]:
    return _read_manifest(path, parse_manifest)


def save_manifest(records: Sequence[ImageRecord], path: str | Path) -> None:
    with AtomicFile(path, "w", encoding="utf-8", newline="") as fh:
        serialize_manifest(records, fh)


def split_validation(
    rows: ManifestColumns, fraction: float, seed: int
) -> tuple[ManifestColumns, ManifestColumns, ManifestColumns]:
    """Deterministically split manifest rows into (train, val database, val queries).

    ``fraction`` of the rows goes to the validation database and the same
    amount to the validation queries; the three parts are disjoint and cover
    the input. Row order within each part follows the input order.
    """
    if not 0.0 < fraction <= 0.5:
        raise DomainError(f"validation fraction must be in (0, 0.5], got {fraction}")
    n = len(rows)
    n_val = int(round(n * fraction))
    if n_val < 1 or n - 2 * n_val < 1:
        raise DomainError(f"{n} records are too few for a {fraction} validation split")
    order = list(range(n))
    random.Random(seed).shuffle(order)
    part = np.zeros(n, np.int8)  # 0: train, 1: val database, 2: val queries
    part[order[n_val : 2 * n_val]] = 1
    part[order[:n_val]] = 2
    train, val_db, val_queries = (rows.take(np.flatnonzero(part == k)) for k in range(3))
    return train, val_db, val_queries
