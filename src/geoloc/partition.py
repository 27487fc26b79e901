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
construction is well defined for negative coordinates too. Heading bins are
circular: the last bin is adjacent to bin zero, which is why the number of
bins must be an exact multiple of ``heading_stride``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import DomainError, EmptyPartitionError, PartitionError

if TYPE_CHECKING:  # pragma: no cover
    from .ingest import ImageRecord

PARTITION_FORMAT = "geo-partition"
PARTITION_VERSION = 1


@dataclass(frozen=True)
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
    def heading_bins(self) -> int:
        return round(360.0 / self.heading_bin_deg)

    @property
    def group_count(self) -> int:
        return self.cell_stride * self.cell_stride * self.heading_stride


def assign_class(pose: GeoPose, cfg: PartitionConfig) -> ClassId:
    """Quantize a pose onto the class grid (floor toward minus infinity)."""
    return ClassId(
        cell_east=math.floor(pose.east / cfg.cell_size_m),
        cell_north=math.floor(pose.north / cfg.cell_size_m),
        heading_bin=math.floor(pose.heading / cfg.heading_bin_deg),
    )


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


def circular_bin_distance(a: int, b: int, bins: int) -> int:
    d = abs(a - b) % bins
    return min(d, bins - d)


def adjacent(a: ClassId, b: ClassId, cfg: PartitionConfig) -> bool:
    """True when an infinitesimal pose change could move an image between the classes.

    Cell adjacency is Chebyshev (diagonal corners count); heading adjacency is
    circular, so bin 0 and the last bin touch.
    """
    if a == b:
        raise DomainError("adjacency is defined for distinct classes")
    return (
        abs(a.cell_east - b.cell_east) <= 1
        and abs(a.cell_north - b.cell_north) <= 1
        and circular_bin_distance(a.heading_bin, b.heading_bin, cfg.heading_bins) <= 1
    )


@dataclass
class Partition:
    """The complete class/group structure over a set of image records.

    ``group_classes`` has one entry per enumerated group (possibly empty);
    each list is sorted by class id and the position of a class inside its
    group's list is that class's label index for the group's classifier head.
    Member id lists are sorted, so the whole structure is independent of the
    input record order.
    """

    config: PartitionConfig
    class_members: dict[ClassId, list[str]]
    class_group: dict[ClassId, GroupId]
    group_classes: dict[GroupId, list[ClassId]]
    discarded_classes: int
    discarded_images: int

    @property
    def retained_images(self) -> int:
        return sum(len(m) for m in self.class_members.values())


def build_partition(records: Sequence["ImageRecord"], cfg: PartitionConfig) -> Partition:
    """Assign every record to its class, filter thin classes, and group the rest.

    All records must share one UTM zone and hemisphere; the raw east/north
    quantization of the class grid is only meaningful inside a single zone.
    """
    zones = {(r.zone_number, r.hemisphere) for r in records}
    if len(zones) > 1:
        raise DomainError(f"records span multiple zones/hemispheres: {sorted(zones)}")

    members: dict[ClassId, list[str]] = {}
    for r in records:
        members.setdefault(assign_class(r.pose, cfg), []).append(r.id)

    class_members: dict[ClassId, list[str]] = {}
    discarded_classes = 0
    discarded_images = 0
    for cid in sorted(members):
        ids = sorted(members[cid])
        if len(ids) < cfg.min_images_per_class:
            discarded_classes += 1
            discarded_images += len(ids)
        else:
            class_members[cid] = ids

    if not class_members:
        raise EmptyPartitionError(
            f"no class kept at least {cfg.min_images_per_class} images "
            f"({discarded_classes} classes / {discarded_images} images discarded)"
        )

    class_group = {cid: assign_group(cid, cfg) for cid in class_members}
    group_classes: dict[GroupId, list[ClassId]] = {g: [] for g in enumerate_groups(cfg)}
    for cid in sorted(class_members):
        group_classes[class_group[cid]].append(cid)

    return Partition(
        config=cfg,
        class_members=class_members,
        class_group=class_group,
        group_classes=group_classes,
        discarded_classes=discarded_classes,
        discarded_images=discarded_images,
    )


@dataclass
class PartitionStats:
    group_count: int
    retained_classes: int
    retained_images: int
    discarded_classes: int
    discarded_images: int
    group_class_counts: dict[GroupId, int]
    class_size_min: int
    class_size_mean: float
    class_size_max: int

    def to_dict(self) -> dict:
        return {
            "group_count": self.group_count,
            "retained_classes": self.retained_classes,
            "retained_images": self.retained_images,
            "discarded_classes": self.discarded_classes,
            "discarded_images": self.discarded_images,
            "group_class_counts": {
                "_".join(map(str, g)): n for g, n in sorted(self.group_class_counts.items())
            },
            "class_size_min": self.class_size_min,
            "class_size_mean": self.class_size_mean,
            "class_size_max": self.class_size_max,
        }


def partition_stats(p: Partition) -> PartitionStats:
    sizes = [len(m) for m in p.class_members.values()]
    return PartitionStats(
        group_count=p.config.group_count,
        retained_classes=len(p.class_members),
        retained_images=sum(sizes),
        discarded_classes=p.discarded_classes,
        discarded_images=p.discarded_images,
        group_class_counts={g: len(cs) for g, cs in p.group_classes.items()},
        class_size_min=min(sizes) if sizes else 0,
        class_size_mean=(sum(sizes) / len(sizes)) if sizes else 0.0,
        class_size_max=max(sizes) if sizes else 0,
    )


def format_stats_table(stats: PartitionStats) -> str:
    counts = [n for n in stats.group_class_counts.values()]
    nonempty = sum(1 for n in counts if n > 0)
    lines = [
        f"groups              {stats.group_count}",
        f"non-empty groups    {nonempty}",
        f"retained classes    {stats.retained_classes}",
        f"retained images     {stats.retained_images}",
        f"discarded classes   {stats.discarded_classes}",
        f"discarded images    {stats.discarded_images}",
        f"class size          min {stats.class_size_min} / mean {stats.class_size_mean:.2f} / max {stats.class_size_max}",
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
                "group": list(p.class_group[cid]),
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


def partition_from_dict(doc: dict) -> Partition:
    if doc.get("format") != PARTITION_FORMAT:
        raise PartitionError(f"not a partition document: format={doc.get('format')!r}")
    if doc.get("version") != PARTITION_VERSION:
        raise PartitionError(f"unsupported partition version {doc.get('version')!r}")
    try:
        cfg = PartitionConfig(**doc["config"])
        class_members: dict[ClassId, list[str]] = {}
        class_group: dict[ClassId, GroupId] = {}
        group_classes: dict[GroupId, list[ClassId]] = {g: [] for g in enumerate_groups(cfg)}
        for entry in doc["classes"]:
            cid = ClassId(*entry["cell"])
            gid = GroupId(*entry["group"])
            if cid in class_members:
                raise PartitionError(f"class {cid} appears twice in the document")
            if assign_group(cid, cfg) != gid:
                raise PartitionError(f"class {cid} stored under group {gid}, expected {assign_group(cid, cfg)}")
            class_members[cid] = list(entry["members"])
            class_group[cid] = gid
            group_classes[gid].append(cid)
        discarded_classes = int(doc["discarded_classes"])
        discarded_images = int(doc["discarded_images"])
    except (KeyError, TypeError, ValueError) as exc:
        raise PartitionError(f"partition document has a missing or malformed field: {exc!r}") from exc
    for gid in group_classes:
        group_classes[gid].sort()
    return Partition(
        config=cfg,
        class_members=class_members,
        class_group=class_group,
        group_classes=group_classes,
        discarded_classes=discarded_classes,
        discarded_images=discarded_images,
    )


def save_partition(p: Partition, path: str | Path, extra: dict | None = None) -> None:
    Path(path).write_text(
        json.dumps(partition_to_dict(p, extra), sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )


def load_partition(path: str | Path) -> Partition:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise PartitionError(f"cannot read partition file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise PartitionError(f"partition file {path} does not hold a JSON object")
    return partition_from_dict(doc)
