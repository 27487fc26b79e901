"""Descriptor indexing, exhaustive inner-product search, and recall@K.

Descriptors are unit vectors, so ranking by inner product is ranking by
cosine similarity. Search is an exhaustive scan whose cost is exactly
rows x dim multiply-accumulates per query; ties are broken by insertion
order. A retrieved item counts as correct for a query when its pose lies
within the metric threshold of the query pose, both taken in one shared
UTM zone.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DomainError, RetrievalError
from .geodesy import HEMISPHERES
from .ingest import ImageRecord
from .partition import GeoPose

INDEX_MAGIC = b"GLIX"
INDEX_VERSION = 1

_UNIT_TOL = 1e-5
DEFAULT_KS = (1, 5, 10, 20)
DEFAULT_THRESHOLD_M = 25.0
_HEMISPHERE_OF_BYTE = {255: None, 0: "north", 1: "south"}


@dataclass
class OpCounter:
    """Counts the multiply-accumulates spent by exhaustive search."""

    madds: int = 0


@dataclass
class DescriptorIndex:
    """Immutable row-aligned (ids, unit-descriptor matrix, poses) store."""

    ids: list[str]
    matrix: np.ndarray
    poses: list[GeoPose]
    zone_number: int | None = None
    hemisphere: str | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.ids)


def build_index(
    descriptors: np.ndarray | Sequence[np.ndarray],
    ids: Sequence[str],
    poses: Sequence[GeoPose],
    zone_number: int | None = None,
    hemisphere: str | None = None,
) -> DescriptorIndex:
    """Validate and freeze descriptors into an index, preserving insertion order."""
    if len(ids) != len(poses):
        raise RetrievalError(f"{len(ids)} ids vs {len(poses)} poses")
    if len(ids) == 0:
        matrix = np.empty((0, 0))
    else:
        matrix = np.asarray(descriptors, dtype=np.float64)
    if matrix.ndim != 2:
        raise RetrievalError(f"descriptors must be (n, D), got shape {matrix.shape}")
    if matrix.shape[0] != len(ids):
        raise RetrievalError(f"{matrix.shape[0]} descriptors vs {len(ids)} ids")
    seen: set[str] = set()
    for rid in ids:
        if rid in seen:
            raise RetrievalError(f"duplicate id {rid!r} in index")
        seen.add(rid)
    if hemisphere is not None and hemisphere not in HEMISPHERES:
        raise DomainError(f"hemisphere must be one of {HEMISPHERES}, got {hemisphere!r}")
    norms = np.linalg.norm(matrix, axis=1)
    bad = np.nonzero(~(np.abs(norms - 1.0) <= _UNIT_TOL))[0]  # NaN rows fail too
    if bad.size:
        raise RetrievalError(f"descriptor for id {ids[bad[0]]!r} is not unit-norm ({norms[bad[0]]:.6f})")
    return DescriptorIndex(
        ids=list(ids),
        matrix=matrix.copy(),
        poses=list(poses),
        zone_number=zone_number,
        hemisphere=hemisphere,
    )


def _knn_rows(
    index: DescriptorIndex,
    query: np.ndarray,
    k: int,
    counter: OpCounter | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if len(index) == 0:
        return np.empty(0, dtype=np.intp), np.empty(0)
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (index.dim,):
        raise RetrievalError(f"query has shape {query.shape}, index dimension is {index.dim}")
    if abs(float(np.linalg.norm(query)) - 1.0) > _UNIT_TOL:
        raise RetrievalError("query descriptor is not unit-norm")
    sims = index.matrix @ query
    if counter is not None:
        counter.madds += len(index) * index.dim
    order = np.argsort(-sims, kind="stable")[:k]
    return order, sims[order]


def knn(
    index: DescriptorIndex,
    query: np.ndarray,
    k: int,
    counter: OpCounter | None = None,
) -> list[tuple[str, float]]:
    """Top-k (id, similarity) by exhaustive inner-product scan, descending.

    Equal similarities keep index insertion order. Identical to a brute-force
    full sort by construction.
    """
    rows, sims = _knn_rows(index, query, k, counter)
    return [(index.ids[i], float(s)) for i, s in zip(rows, sims)]


@dataclass
class EvalReport:
    """Recall@K at one distance threshold over a query set."""

    threshold_m: float
    num_queries: int
    recall_at: dict[int, float]
    first_correct_rank: list[int | None] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "format": "eval-report",
            "version": 1,
            "threshold_m": self.threshold_m,
            "num_queries": self.num_queries,
            "recall_at": {str(k): v for k, v in sorted(self.recall_at.items())},
            "first_correct_rank": self.first_correct_rank,
        }


def format_report_table(report: EvalReport) -> str:
    ks = sorted(report.recall_at)
    header = "  ".join(f"R@{k}".ljust(6) for k in ks)
    values = "  ".join(f"{100.0 * report.recall_at[k]:.1f}".ljust(6) for k in ks)
    return f"{header}\n{values}"


def recall_at_n(
    index: DescriptorIndex,
    queries: Sequence[tuple[np.ndarray, GeoPose]],
    ks: Sequence[int] = DEFAULT_KS,
    threshold_m: float = DEFAULT_THRESHOLD_M,
    query_zone_number: int | None = None,
    query_hemisphere: str | None = None,
    counter: OpCounter | None = None,
) -> EvalReport:
    """Fraction of queries with a correct item in the top K, for each K.

    A database item is correct when its pose is within ``threshold_m`` meters
    of the query pose (planar fixed-zone metric). Query and database zones
    must agree when both are specified.
    """
    if not queries:
        raise RetrievalError("empty query list")
    ks = list(ks)
    if any(k < 1 for k in ks) or ks != sorted(ks):
        raise DomainError(f"ks must be positive and ascending, got {ks}")
    if threshold_m < 0.0:
        raise DomainError(f"threshold must be >= 0, got {threshold_m}")
    if (
        index.zone_number is not None
        and query_zone_number is not None
        and (index.zone_number, index.hemisphere) != (query_zone_number, query_hemisphere)
    ):
        raise DomainError(
            f"query zone {query_zone_number} {query_hemisphere} does not match "
            f"database zone {index.zone_number} {index.hemisphere}"
        )
    kmax = min(max(ks), len(index))
    first_correct: list[int | None] = []
    for descriptor, pose in queries:
        rank: int | None = None
        if kmax:
            rows, _ = _knn_rows(index, descriptor, kmax, counter)
            for pos, row in enumerate(rows, start=1):
                db_pose = index.poses[row]
                if math.hypot(db_pose.east - pose.east, db_pose.north - pose.north) <= threshold_m:
                    rank = pos
                    break
        first_correct.append(rank)
    recall = {
        k: sum(1 for r in first_correct if r is not None and r <= k) / len(queries) for k in ks
    }
    return EvalReport(
        threshold_m=threshold_m,
        num_queries=len(queries),
        recall_at=recall,
        first_correct_rank=first_correct,
    )


def evaluate(
    db_vecs: np.ndarray,
    db_records: Sequence[ImageRecord],
    query_vecs: np.ndarray,
    query_records: Sequence[ImageRecord],
    ks: Sequence[int] = DEFAULT_KS,
    threshold_m: float = DEFAULT_THRESHOLD_M,
) -> EvalReport:
    """Recall@K of query descriptors searched against database descriptors.

    Row i of ``db_vecs``/``query_vecs`` belongs to record i of its list. The
    index takes the database records' ids and poses, and the zone of the
    first record (a manifest holds one zone); the query zone must match it.
    """
    if not db_records or not query_records:
        raise RetrievalError("evaluation needs a non-empty database and query set")
    if len(query_vecs) != len(query_records):
        raise RetrievalError(f"{len(query_vecs)} query descriptors vs {len(query_records)} query records")
    index = build_index(
        db_vecs,
        [r.id for r in db_records],
        [r.pose for r in db_records],
        zone_number=db_records[0].zone_number,
        hemisphere=db_records[0].hemisphere,
    )
    return recall_at_n(
        index,
        list(zip(query_vecs, [r.pose for r in query_records])),
        ks=ks,
        threshold_m=threshold_m,
        query_zone_number=query_records[0].zone_number,
        query_hemisphere=query_records[0].hemisphere,
    )


def save_index(index: DescriptorIndex, path: str | Path) -> None:
    """Versioned binary layout: header (count, dim, zone), ids, poses, matrix."""
    zone = index.zone_number if index.zone_number is not None else 0
    hemi = {h: b for b, h in _HEMISPHERE_OF_BYTE.items()}[index.hemisphere]
    parts = [
        INDEX_MAGIC,
        struct.pack("<HBiB", INDEX_VERSION, 0, zone, hemi),
        struct.pack("<QQ", len(index), index.dim),
    ]
    for rid in index.ids:
        raw = rid.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
    for p in index.poses:
        parts.append(struct.pack("<ddd", p.east, p.north, p.heading))
    parts.append(np.ascontiguousarray(index.matrix, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_index(path: str | Path) -> DescriptorIndex:
    """Read a ``save_index`` file; any corrupt, truncated or padded file raises RetrievalError."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise RetrievalError(f"cannot read index {path}: {exc}") from exc
    if blob[:4] != INDEX_MAGIC:
        raise RetrievalError(f"{path} is not a descriptor index (bad magic)")
    try:
        version, _flags, zone, hemi = struct.unpack_from("<HBiB", blob, 4)
        if version != INDEX_VERSION:
            raise RetrievalError(f"unsupported index version {version}")
        if hemi not in _HEMISPHERE_OF_BYTE:
            raise RetrievalError(f"index {path} has an unknown hemisphere byte {hemi}")
        count, dim = struct.unpack_from("<QQ", blob, 12)
        offset = 28
        ids = []
        for _ in range(count):
            (length,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            ids.append(blob[offset : offset + length].decode("utf-8"))
            offset += length
        poses = []
        for _ in range(count):
            east, north, heading = struct.unpack_from("<ddd", blob, offset)
            offset += 24
            poses.append(GeoPose(east=east, north=north, heading=heading))
        matrix = np.frombuffer(blob, dtype="<f8", count=count * dim, offset=offset)
    except (struct.error, ValueError, UnicodeDecodeError, DomainError) as exc:
        raise RetrievalError(f"index {path} is truncated or corrupt: {exc}") from exc
    trailing = len(blob) - offset - matrix.nbytes
    if trailing:
        raise RetrievalError(f"index {path} has {trailing} trailing bytes after its matrix")
    return build_index(
        matrix.reshape(count, dim),
        ids,
        poses,
        zone_number=zone if zone else None,
        hemisphere=_HEMISPHERE_OF_BYTE[hemi],
    )
