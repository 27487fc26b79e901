"""Grid partitioning of geo-poses into classes and well-separated groups.

A pose is quantized into a class by flooring its planar coordinates on a
square grid of ``cell_size_m`` meters and its heading on bins of
``heading_bin_deg`` degrees. Classes are then spread across groups by
reducing the cell indices modulo ``cell_stride`` and the heading bin modulo
``heading_stride``: two distinct classes that land in the same group are
guaranteed to be either at least ``cell_size_m * (cell_stride - 1)`` meters
apart or more than ``heading_bin_deg * (heading_stride - 1)`` degrees apart
in heading, so a group never contains adjacent classes (when both strides
exceed one) and can be trained as a plain classification dataset.

Floors are taken toward minus infinity and moduli are non-negative, so the
construction is well defined for negative coordinates too (``np.floor`` on
a manifest's columns gives ``math.floor``'s results). Heading bins are
circular: the last bin is adjacent to bin zero, which is why the number of
bins must be an exact multiple of ``heading_stride``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .atomic import dump_json, write_atomic
from .errors import DomainError, EmptyPartitionError, PartitionError

if TYPE_CHECKING:  # pragma: no cover
    from .ingest import ManifestColumns

PARTITION_FORMAT = "geo-partition"
PARTITION_VERSION = 2


@dataclass(frozen=True, slots=True)
class GeoPose:
    """A capture location in UTM meters plus a heading in [0, 360) degrees."""

    east: float
    north: float
    heading: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.east) and math.isfinite(self.north) and math.isfinite(self.heading)):
            raise DomainError("pose fields must be finite")
        if not 0.0 <= self.heading < 360.0:
            raise DomainError(f"heading {self.heading} outside [0, 360)")


class ClassId(NamedTuple):
    cell_east: int
    cell_north: int
    heading_bin: int


class GroupId(NamedTuple):
    east_residue: int
    north_residue: int
    heading_residue: int


@dataclass(frozen=True)
class PartitionConfig:
    """Geometry of the class grid and the group strides.

    ``heading_bin_deg`` must divide 360 exactly and the resulting bin count
    must be a multiple of ``heading_stride`` so that the circular wrap keeps
    same-group heading bins a full stride apart. A 360 degree bin collapses
    heading information entirely, in which case the heading stride must be 1.
    """

    cell_size_m: float = 10.0
    heading_bin_deg: float = 30.0
    cell_stride: int = 5
    heading_stride: int = 2
    min_images_per_class: int = 10

    def __post_init__(self) -> None:
        if not (math.isfinite(self.cell_size_m) and self.cell_size_m > 0):
            raise DomainError(f"cell size must be positive, got {self.cell_size_m}")
        if not (math.isfinite(self.heading_bin_deg) and self.heading_bin_deg > 0):
            raise DomainError(f"heading bin must be positive, got {self.heading_bin_deg}")
        bins = 360.0 / self.heading_bin_deg
        if abs(bins - round(bins)) > 1e-9:
            raise DomainError(f"heading bin {self.heading_bin_deg} does not divide 360 exactly")
        if self.cell_stride < 1:
            raise DomainError(f"cell stride must be >= 1, got {self.cell_stride}")
        if self.heading_stride < 1:
            raise DomainError(f"heading stride must be >= 1, got {self.heading_stride}")
        if round(bins) % self.heading_stride != 0:
            raise DomainError(
                f"{round(bins)} heading bins are not divisible by heading stride {self.heading_stride}"
            )
        if self.heading_bin_deg == 360.0 and self.heading_stride != 1:
            raise DomainError("a single 360 degree heading bin requires heading stride 1")
        if self.min_images_per_class < 0:
            raise DomainError("min_images_per_class must be >= 0")

    @property
    def group_count(self) -> int:
        return self.cell_stride * self.cell_stride * self.heading_stride


def assign_group(c: ClassId, cfg: PartitionConfig) -> GroupId:
    """Reduce class indices modulo the strides; results are non-negative."""
    return GroupId(
        east_residue=c.cell_east % cfg.cell_stride,
        north_residue=c.cell_north % cfg.cell_stride,
        heading_residue=c.heading_bin % cfg.heading_stride,
    )


def enumerate_groups(cfg: PartitionConfig) -> list[GroupId]:
    """All group ids in lexicographic order; exactly stride^2 * heading_stride of them."""
    return [
        GroupId(u, v, w)
        for u, v, w in itertools.product(
            range(cfg.cell_stride), range(cfg.cell_stride), range(cfg.heading_stride)
        )
    ]


@dataclass
class Partition:
    """The complete class/group structure over a set of manifest rows.

    ``group_classes`` is derived from the classes: it has one entry per
    enumerated group (possibly empty), each list is sorted by class id, and
    the position of a class inside its group's list is that class's label
    index for the group's classifier head. Member id lists are sorted, so the
    whole structure is independent of the input row order.
    """

    config: PartitionConfig
    class_members: dict[ClassId, list[str]]
    discarded_classes: int
    discarded_images: int
    group_classes: dict[GroupId, list[ClassId]] = field(init=False)

    def __post_init__(self) -> None:
        self.group_classes = {g: [] for g in enumerate_groups(self.config)}
        for cid in sorted(self.class_members):
            self.group_classes[assign_group(cid, self.config)].append(cid)


def build_partition(rows: "ManifestColumns", cfg: PartitionConfig) -> Partition:
    """Assign every manifest row to its class, filter thin classes, and group the rest.

    The rows share their manifest's one zone, inside which the raw east/north grid is meaningful.
    """
    size, bin_deg = cfg.cell_size_m, cfg.heading_bin_deg
    cells = zip(*(np.floor(v).tolist() for v in (rows.east / size, rows.north / size, rows.heading / bin_deg)))
    members: dict[tuple[float, float, float], list[str]] = {}  # integral floats order as their ints do
    for cell, rid in zip(cells, rows.ids):
        members.setdefault(cell, []).append(rid)

    class_members: dict[ClassId, list[str]] = {}
    discarded_classes = 0
    discarded_images = 0
    for cell in sorted(members):
        ids = sorted(members[cell])
        if len(ids) < cfg.min_images_per_class:
            discarded_classes += 1
            discarded_images += len(ids)
        else:
            class_members[ClassId(*map(int, cell))] = ids

    if not class_members:
        raise EmptyPartitionError(
            f"no class kept at least {cfg.min_images_per_class} images "
            f"({discarded_classes} classes / {discarded_images} images discarded)"
        )

    return Partition(cfg, class_members, discarded_classes, discarded_images)


def partition_stats(p: Partition) -> dict:
    """Counts of a partition, as ``partition.json`` stores them under ``stats``.

    Group keys are ``"<east>_<north>_<heading>"`` residues; an empty
    partition gives zero sizes.
    """
    sizes = [len(m) for m in p.class_members.values()]
    return {
        "group_count": p.config.group_count,
        "retained_classes": len(p.class_members),
        "retained_images": sum(sizes),
        "discarded_classes": p.discarded_classes,
        "discarded_images": p.discarded_images,
        "group_class_counts": {"_".join(map(str, g)): len(cs) for g, cs in p.group_classes.items()},
        "class_size_min": min(sizes, default=0),
        "class_size_mean": sum(sizes) / len(sizes) if sizes else 0.0,
        "class_size_max": max(sizes, default=0),
    }


def format_stats_table(stats: dict) -> str:
    """The table ``geoloc partition`` prints for ``partition_stats``'s dict."""
    counts = list(stats["group_class_counts"].values())
    nonempty = sum(1 for n in counts if n > 0)
    lines = [
        f"groups              {stats['group_count']}",
        f"non-empty groups    {nonempty}",
        f"retained classes    {stats['retained_classes']}",
        f"retained images     {stats['retained_images']}",
        f"discarded classes   {stats['discarded_classes']}",
        f"discarded images    {stats['discarded_images']}",
        f"class size          min {stats['class_size_min']} / mean {stats['class_size_mean']:.2f}"
        f" / max {stats['class_size_max']}",
    ]
    if counts:
        lines.append(
            f"classes per group   min {min(counts)} / mean {sum(counts) / len(counts):.2f} / max {max(counts)}"
        )
    return "\n".join(lines)


def partition_to_dict(p: Partition, extra: dict | None = None) -> dict:
    doc = {
        "format": PARTITION_FORMAT,
        "version": PARTITION_VERSION,
        "config": asdict(p.config),
        "discarded_classes": p.discarded_classes,
        "discarded_images": p.discarded_images,
        "classes": [
            {
                "cell": list(cid),
                "members": p.class_members[cid],
            }
            for cid in sorted(p.class_members)
        ],
    }
    if extra:
        collisions = set(extra) & set(doc)
        if collisions:
            raise PartitionError(f"extra metadata would overwrite document keys: {sorted(collisions)}")
        doc.update(extra)
    return doc


def save_partition(p: Partition, path: str | Path, extra: dict | None = None) -> bytes:
    """Write ``partition_to_dict(p, extra)`` to ``path`` atomically; returns the bytes written."""
    data = dump_json(partition_to_dict(p, extra)).encode("utf-8")
    write_atomic(path, data)
    return data

