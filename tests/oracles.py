"""Reference oracles the suite checks the package against.

Each oracle recomputes its answer from definitions and imports nothing from
``geoloc`` but ``geoloc.errors``, so none of them shares a code path with
the code under test: the partition oracles redo the floor/modulo arithmetic
inline (``assign_class`` is the scalar class of one pose), gradients are checked against central differences, and zip members
are read with the standard library's ``zipfile``. ``parse_manifest_whole``
is the manifest parser as it was before it read in chunks, frozen as a parity
oracle; it takes the lat/lon projection as an argument. ``generate_city_per_image``
is the synthetic world generator as it was when it drew and computed image by
image, frozen the same way; it takes the latent spreading as an argument.
"""

from __future__ import annotations

import csv
import math
import zipfile
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter

import numpy as np

from geoloc.errors import DomainError, ManifestError


def central_difference(f, x, eps):
    """Numerical gradient of the scalar ``f`` at ``x``: central differences per entry, step ``eps``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        grad.reshape(-1)[i] = (hi - lo) / (2.0 * eps)
    return grad


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


def zip_members(path):
    """``(name, header offset, compressed size, size, CRC-32)`` of each member of the zip file ``path``, as ``zipfile`` reads them.

    Entries come in central directory order, zip64 fields applied; offsets count any bytes before the archive.
    """
    with zipfile.ZipFile(path) as zf:
        return [(i.filename, i.header_offset, i.compress_size, i.file_size, i.CRC) for i in zf.infolist()]


def unit_rows(a):
    a = np.asarray(a, dtype=np.float64)
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def assign_class(pose, cfg) -> tuple[int, int, int]:
    """The (cell east, cell north, heading bin) class of a pose: ``math.floor`` of each coordinate over its cell or bin.

    ``pose`` has ``east``, ``north`` and ``heading``; ``cfg`` is a ``PartitionConfig``. The scalar
    reference that ``build_partition``'s array quantization is compared with; a ``ClassId`` equals
    the tuple.
    """
    return (
        math.floor(pose.east / cfg.cell_size_m),
        math.floor(pose.north / cfg.cell_size_m),
        math.floor(pose.heading / cfg.heading_bin_deg),
    )


def circular_bin_distance(a: int, b: int, bins: int) -> int:
    d = abs(a - b) % bins
    return min(d, bins - d)


def adjacent(a, b, cfg) -> bool:
    """True when an infinitesimal pose change could move an image between the classes.

    ``a`` and ``b`` are ``ClassId``s of the ``PartitionConfig`` ``cfg``. Cell
    adjacency is Chebyshev (diagonal corners count); heading adjacency is
    circular, so bin 0 and the last bin touch.
    """
    if a == b:
        raise DomainError("adjacency is defined for distinct classes")
    return (
        abs(a.cell_east - b.cell_east) <= 1
        and abs(a.cell_north - b.cell_north) <= 1
        and circular_bin_distance(a.heading_bin, b.heading_bin, round(360.0 / cfg.heading_bin_deg)) <= 1
    )


@dataclass(frozen=True)
class Violation:
    kind: str
    classes: tuple
    detail: str


def oracle_pairwise_check(world, part) -> list[Violation]:
    """Exhaustively verify the partition's structural guarantees from definitions.

    ``world`` is anything with the posed ``records`` the partition ``part``
    was built from. Recomputes class and group assignments with inline
    floor/modulo arithmetic (independent of the partition module's own code
    paths) and scans all image pairs per group for the separation guarantee
    and all class pairs per group for adjacency. Returns the list of
    violations, which is empty for a correct partition.
    """
    cfg = part.config
    violations: list[Violation] = []
    strides = (cfg.cell_stride, cfg.cell_stride, cfg.heading_stride)
    n_bins = round(360.0 / cfg.heading_bin_deg)

    # Recompute every record's class from its pose.
    expected_members: dict[tuple[int, int, int], list[str]] = {}
    pose_of = {}
    for r in world.records:
        cid = (
            math.floor(r.pose.east / cfg.cell_size_m),
            math.floor(r.pose.north / cfg.cell_size_m),
            math.floor(r.pose.heading / cfg.heading_bin_deg),
        )
        expected_members.setdefault(cid, []).append(r.id)
        pose_of[r.id] = r.pose

    # Membership: every retained class must hold exactly the records that
    # quantize into it; discarded classes must be exactly the thin ones.
    for cid, members in part.class_members.items():
        expected = sorted(expected_members.get(tuple(cid), []))
        if sorted(members) != expected:
            violations.append(
                Violation("class-membership", (cid,), f"stored members differ from recomputed set")
            )
    retained = set(tuple(c) for c in part.class_members)
    for cid, members in expected_members.items():
        if len(members) >= cfg.min_images_per_class and cid not in retained:
            violations.append(Violation("class-membership", (cid,), "class missing from partition"))

    # Group function (property 1) and assignment correctness.
    listed_in: dict[tuple, list] = {}
    for gid, classes in part.group_classes.items():
        for cid in classes:
            listed_in.setdefault(tuple(cid), []).append(gid)
    for cid in part.class_members:
        expected_gid = tuple(v % s for v, s in zip(cid, strides))
        lists = listed_in.get(tuple(cid), [])
        if len(lists) != 1:
            violations.append(
                Violation("group-assignment", (cid,), f"listed under groups {lists}")
            )
        elif tuple(lists[0]) != expected_gid:
            violations.append(
                Violation(
                    "group-assignment",
                    (cid,),
                    f"assigned {tuple(lists[0])}, definition gives {expected_gid}",
                )
            )

    # Group count (property 3).
    all_groups = {
        (u, v, w)
        for u in range(cfg.cell_stride)
        for v in range(cfg.cell_stride)
        for w in range(cfg.heading_stride)
    }
    if len(all_groups) != cfg.cell_stride * cfg.cell_stride * cfg.heading_stride:
        violations.append(Violation("group-count", (), "enumeration size mismatch"))
    for gid, classes in part.group_classes.items():
        if tuple(gid) not in all_groups:
            for cid in classes:
                violations.append(Violation("group-count", (cid,), f"group {tuple(gid)} outside enumeration"))

    # Separation (property 2): same group, different classes -> far apart in
    # space or in heading. Scanned exhaustively over image pairs, chunked.
    min_dist = cfg.cell_size_m * (cfg.cell_stride - 1)
    min_head = cfg.heading_bin_deg * (cfg.heading_stride - 1)
    for gid, classes in part.group_classes.items():
        ids = [rid for cid in classes for rid in part.class_members[cid]]
        if len(ids) < 2:
            continue
        east = np.array([pose_of[r].east for r in ids])
        north = np.array([pose_of[r].north for r in ids])
        heading = np.array([pose_of[r].heading for r in ids])
        cls = np.array(
            [classes.index(cid) for cid in classes for _ in part.class_members[cid]]
        )
        n = len(ids)
        for start in range(0, n, 1024):
            stop = min(start + 1024, n)
            de = east[start:stop, None] - east[None, :]
            dn = north[start:stop, None] - north[None, :]
            dist = np.hypot(de, dn)
            dh = np.abs(heading[start:stop, None] - heading[None, :])
            dh = np.minimum(dh, 360.0 - dh)
            diff_class = cls[start:stop, None] != cls[None, :]
            bad = diff_class & (dist < min_dist) & (dh <= min_head)
            for bi, bj in zip(*np.nonzero(bad)):
                i, j = start + bi, bj
                if i < j:
                    violations.append(
                        Violation(
                            "separation",
                            (classes[cls[i]], classes[cls[j]]),
                            f"images {ids[i]!r}/{ids[j]!r}: {dist[bi, bj]:.2f} m apart, "
                            f"{dh[bi, bj]:.2f} deg apart in group {tuple(gid)}",
                        )
                    )

    # Adjacency (property 4) only holds when both strides exceed one.
    if cfg.cell_stride > 1 and cfg.heading_stride > 1:
        for gid, classes in part.group_classes.items():
            if len(classes) < 2:
                continue
            arr = np.array([list(c) for c in classes])
            for i in range(len(classes)):
                de = np.abs(arr[:, 0] - arr[i, 0])
                dn = np.abs(arr[:, 1] - arr[i, 1])
                dh = np.abs(arr[:, 2] - arr[i, 2]) % n_bins
                dh = np.minimum(dh, n_bins - dh)
                hit = (de <= 1) & (dn <= 1) & (dh <= 1)
                hit[i] = False
                for j in np.nonzero(hit)[0]:
                    if i < j:
                        violations.append(
                            Violation(
                                "adjacency",
                                (classes[i], classes[int(j)]),
                                f"adjacent classes share group {tuple(gid)}",
                            )
                        )
    return violations


_MANIFEST_COLUMNS = ("id", "east", "north", "heading", "lat", "lon", "uri", "zone", "hemisphere")
_HEMISPHERES = ("north", "south")


def _whole_floats(cells, use):
    values, rejected = np.full(len(cells), np.nan), np.zeros(len(cells), bool)
    rows = np.flatnonzero(use)
    used = cells if rows.size == len(cells) else [cells[i] for i in rows]
    try:
        values[rows] = list(map(float, used))
    except ValueError:
        for i in rows:
            try:
                values[i] = float(cells[i])
            except ValueError:
                rejected[i] = True
    return values, rejected


def _whole_structure_fault(rows, lines, width, id_col):
    seen = {}
    for row, line in zip(rows, lines):
        if len(row) != width:
            count = "more" if len(row) > width else "fewer"
            return ManifestError(f"line {line}: {count} cells than header columns")
        rid = row[id_col].strip()
        if not rid:
            return ManifestError(f"line {line}: empty id")
        if rid in seen:
            return ManifestError(f"duplicate id {rid!r} on lines {seen[rid]} and {line}")
        seen[rid] = line
    return None


def parse_manifest_whole(stream, latlon_to_utm_arrays):
    """``(ids, east, north, heading, zone_number, hemisphere, lat, lon, uris)`` of a manifest, read whole.

    Every row is read before any is checked: the structural checks run on all rows, then the value
    checks on whole columns. ``latlon_to_utm_arrays(lat, lon)`` returns ``(east, north, zone, south)``
    arrays. Numbers are read with ``float`` alone, so ``1_000`` and non-ASCII digits pass.
    """
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None:
        raise ManifestError("manifest is empty (no header row)")
    unknown = [c for c in header if c not in _MANIFEST_COLUMNS]
    if unknown:
        raise ManifestError(f"unknown manifest columns: {unknown}")
    missing = [c for c in ("id", "heading") if c not in header]
    if missing:
        raise ManifestError(f"manifest header lacks required columns: {missing}")
    if not ({"east", "north"} <= set(header) or {"lat", "lon"} <= set(header)):
        raise ManifestError("manifest needs east/north or lat/lon columns")

    id_col = max(i for i, c in enumerate(header) if c == "id")
    rows, lines = [], []
    try:
        for row in reader:
            if row:
                rows.append(row)
                lines.append(reader.line_num)
    except Exception:
        fault = _whole_structure_fault(rows, lines, len(header), id_col)
        if fault is None:
            raise
        raise fault from None
    whole = set(map(len, rows)) <= {len(header)}
    ids = list(map(str.strip, map(itemgetter(id_col), rows))) if whole else []
    if not whole or not all(ids) or len(dict.fromkeys(ids)) != len(ids):
        raise _whole_structure_fault(rows, lines, len(header), id_col)
    n = len(rows)
    cells = dict(zip(header, zip(*rows) if rows else [()] * len(header)))
    blank = ("",) * n

    def present(*names):
        return np.logical_and.reduce([np.fromiter(map(bool, cells.get(c, blank)), bool, n) for c in names])

    checks = []

    def numbers(name, use):
        values, rejected = _whole_floats(cells.get(name, blank), use)
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
    bad_hemisphere = zoned & ~np.fromiter(map(_HEMISPHERES.__contains__, hemispheres), bool, n)
    checks.append((bad_hemisphere, lambda i: f"hemisphere must be one of {_HEMISPHERES}, got {hemispheres[i]!r}"))
    has_utm = present("east", "north")
    checks.append((~has_utm & ~latlon, lambda i: "neither east/north nor lat/lon present"))
    projected = latlon & (~zoned | ~has_utm)
    outside_band = projected & (np.abs(lat) > 84.0)
    checks.append((outside_band, lambda i: f"latitude {lat[i].item()} outside the +/-84.0 degree UTM band"))
    east, north = numbers("east", has_utm), numbers("north", has_utm)
    faulty = np.logical_or.reduce([mask for mask, _ in checks])
    if faulty.any():
        i = int(faulty.argmax())
        raise ManifestError(f"line {lines[i]}: {next(message for mask, message in checks if mask[i])(i)}")
    uris = [u.strip() or None for u in cells["uri"]] if "uri" in cells else None

    zones = set(zip(zone[zoned].astype(int).tolist(), compress(hemispheres, zoned.tolist())))
    rows_projected = np.flatnonzero(projected)
    if rows_projected.size:
        utm_east, utm_north, utm_zone, south = latlon_to_utm_arrays(lat[rows_projected], lon[rows_projected])
        fill = ~has_utm[rows_projected]
        east[rows_projected[fill]], north[rows_projected[fill]] = utm_east[fill], utm_north[fill]
        derived = ~zoned[rows_projected]
        zones.update(zip(utm_zone[derived].tolist(), np.where(south[derived], "south", "north").tolist()))
    if len(zones) > 1:
        raise ManifestError(f"manifest mixes zones/hemispheres: {sorted(zones)}")
    zone_number, hemisphere = zones.pop() if zones else (10, "north")
    return ids, east, north, np.remainder(heading, 360.0), zone_number, hemisphere, lat, lon, uris


def generate_city_per_image(cfg, spread_unit_vectors):
    """The world of the ``CityConfig`` ``cfg``, drawn and computed one image at a time.

    Returns ``(ids, poses, block, query_block, latents, latent_key_of, max_cross, dropped)``:
    ``poses`` holds ``(east, north, heading)`` tuples and ``query_block`` is ``block`` unless
    the world has a domain shift. ``spread_unit_vectors(rng, count, dim, iterations)`` gives
    the unit latents.
    """
    if cfg.place_spacing_m < cfg.cell_size_m:
        raise DomainError("place spacing below the cell size would merge places into one class")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed & 0xFFFFFFFF, 0x51714]))
    m = cfg.cell_size_m
    alpha = cfg.heading_bin_deg
    n_bins = round(360.0 / alpha)
    n_side = int(cfg.extent_m // cfg.place_spacing_m)

    grid_x, grid_y = np.meshgrid(np.arange(n_side), np.arange(n_side))
    cells = np.floor((np.stack([grid_x.ravel(), grid_y.ravel()], axis=1) + 0.5) * cfg.place_spacing_m / m)
    cells = cells[((cells + 1.0) * m).max(axis=1) <= cfg.extent_m + 1e-9]
    if not len(cells):
        raise DomainError("no place cell fits fully inside the extent")
    dropped = n_side * n_side - len(cells)
    positions = (cells + 0.5) * m + rng.uniform(-m / 8.0, m / 8.0, size=(len(cells), 2))

    slot_bins = [int(k * 360.0 / cfg.headings_per_place // alpha) % n_bins for k in range(cfg.headings_per_place)]
    slot_centers = (np.array(slot_bins) + 0.5) * alpha + rng.uniform(
        -alpha / 8.0, alpha / 8.0, size=(len(positions), cfg.headings_per_place)
    )

    latent_keys = [(p, b) for p in range(len(positions)) for b in sorted(set(slot_bins))]
    vectors = spread_unit_vectors(rng, len(latent_keys), cfg.latent_dim, cfg.repel_iterations)
    latents = {key: vectors[i] for i, key in enumerate(latent_keys)}
    gram = vectors @ vectors.T
    np.fill_diagonal(gram, -1.0)
    max_cross = float(gram.max()) if len(latent_keys) > 1 else -1.0

    c, h, w = cfg.feature_map_shape
    lift = rng.standard_normal((c, cfg.latent_dim))
    nuisance_lift = None
    if cfg.nuisance_dim > 0:
        nuisance_lift = rng.standard_normal((c, cfg.nuisance_dim)) / math.sqrt(cfg.nuisance_dim)
    signal = vectors @ lift.T
    offset = float(-signal.min()) + 1.0 + 4.0 * (cfg.noise_sigma + cfg.nuisance_sigma + cfg.domain_shift_sigma)

    ids, poses = [], []
    n_images = len(positions) * cfg.headings_per_place * cfg.images_per_place_heading
    block = np.empty((n_images, c, h, w), dtype=np.float32)
    shifted = cfg.domain_shift_sigma > 0.0
    query_block = np.empty_like(block) if shifted else block
    latent_key_of = {}
    for p, pos in enumerate(positions):
        for k, h_bin in enumerate(slot_bins):
            slot_chan = lift @ latents[(p, h_bin)] + offset
            for i in range(cfg.images_per_place_heading):
                xy = pos + rng.uniform(-m / 5.0, m / 5.0, size=2)
                heading = (slot_centers[p, k] + rng.uniform(-alpha / 5.0, alpha / 5.0)) % 360.0
                rid = f"p{p:04d}h{k:02d}i{i:03d}"
                chan = slot_chan
                if nuisance_lift is not None and cfg.nuisance_sigma > 0.0:
                    chan = chan + cfg.nuisance_sigma * (
                        nuisance_lift @ rng.standard_normal(cfg.nuisance_dim)
                    )
                row = len(ids)
                fmap = chan[:, None, None] + cfg.noise_sigma * rng.standard_normal((c, h, w))
                block[row] = fmap
                if shifted:
                    query_block[row] = fmap + cfg.domain_shift_sigma * rng.standard_normal((c, h, w))
                ids.append(rid)
                poses.append((float(550_000.0 + xy[0]), float(4_180_000.0 + xy[1]), float(heading)))
                latent_key_of[rid] = (p, h_bin)
    return ids, poses, block, query_block, latents, latent_key_of, max_cross, dropped
