"""Reference oracles the suite checks the package against.

Each oracle recomputes its answer from definitions and imports nothing from
``geoloc`` but ``geoloc.errors``, so none of them shares a code path with
the code under test: the partition oracles redo the floor/modulo arithmetic
inline, gradients are checked against central differences, and zip members
are read with the standard library's ``zipfile``.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass

import numpy as np

from geoloc.errors import DomainError


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
