"""Descriptor indexing, exhaustive inner-product search, and recall@K.

Descriptors are unit vectors, so ranking by inner product is ranking by
cosine similarity. Search is an exhaustive scan whose cost is exactly
rows x dim multiply-accumulates per query; exactly equal computed
similarities rank in insertion order, but BLAS may round duplicate rows'
products differently by position, so duplicates can rank by that rounding.
``build_index`` holds the descriptors in Fortran order, so the C-contiguous
``(dim, rows)`` database that ``recall_at_n`` multiplies with is a view of the
index, not a copy. It adopts a Fortran-ordered float64 array as it is and
copies anything else once; either way it freezes the array read-only.
``recall_at_n`` scores queries in blocks, one matrix product per block, into
one similarity buffer that every block reuses. A block holds at most 128
queries (``SEARCH_BLOCK_ROWS``) and at most about 4 MiB of similarities
(``SEARCH_BLOCK_BYTES``): a 720 x 720 search is six blocks whose buffer takes
737 280 B, and a 1 000 x 20 000 search is 39 blocks of 26 rows. More rows
buy no measurable speed (README, "Search"). The search selects the top K in
steps of rows whose copy takes at most 256 KiB (``TOP_K_STEP_BYTES``): one
partial partition per step, then one exact sort of the step's candidates
(exact flat inner-product search, as in FAISS). A retrieved item counts as
correct for a query when its pose lies within the metric threshold of the
query pose, both taken in one shared UTM zone. The search reads ids and
``(N, 2)`` east/north arrays: ``evaluate`` takes them from manifest columns,
and ``build_index``/``recall_at_n`` also accept GeoPoses and
``(descriptor, GeoPose)`` pairs and turn them into arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError, RetrievalError
from .ingest import ManifestColumns
from .partition import GeoPose

_UNIT_TOL = 1e-5
DEFAULT_KS = (1, 5, 10, 20)
DEFAULT_THRESHOLD_M = 25.0
# Bytes of one search block's (queries x rows) similarity matrix.
SEARCH_BLOCK_BYTES = 4 << 20
# Queries in one search block, whatever the database size.
SEARCH_BLOCK_ROWS = 128
# Bytes of the copy of one step of a block's rows that the top-K selection partitions.
TOP_K_STEP_BYTES = 256 << 10
REPORT_FORMAT = "eval-report"
REPORT_VERSION = 1


@dataclass
class DescriptorIndex:
    """Row-aligned ids, unit-descriptor matrix and (N, 2) (east, north) positions."""

    ids: list[str]
    matrix: np.ndarray
    positions: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.ids)


def build_index(
    descriptors: np.ndarray | Sequence[np.ndarray],
    ids: Sequence[str],
    poses: Sequence[GeoPose] | np.ndarray,
) -> DescriptorIndex:
    """Validate and freeze descriptors into an index, preserving insertion order.

    ``poses`` is a GeoPose per id or an ``(N, 2)`` (east, north) array. A Fortran-ordered float64
    ``descriptors`` array becomes ``index.matrix`` without a copy, and is made read-only; any other
    input is copied once.
    """
    if len(ids) != len(poses):
        raise RetrievalError(f"{len(ids)} ids vs {len(poses)} poses")
    if len(ids) == 0:
        matrix = np.empty((0, 0))
    else:
        # Fortran order: ``matrix.T`` is the C-contiguous (dim, rows) array the search multiplies with.
        matrix = np.asarray(descriptors, dtype=np.float64, order="F")
    if matrix.ndim != 2:
        raise RetrievalError(f"descriptors must be (n, D), got shape {matrix.shape}")
    if matrix.shape[0] != len(ids):
        raise RetrievalError(f"{matrix.shape[0]} descriptors vs {len(ids)} ids")
    if len(dict.fromkeys(ids)) != len(ids):  # a dict of many ids peaks at about a quarter of a set's memory
        seen: set[str] = set()
        rid = next(rid for rid in ids if rid in seen or seen.add(rid))  # set.add returns None: go on
        raise RetrievalError(f"duplicate id {rid!r} in index")
    # The row sums of squares without an (n, D) array of squares, which np.linalg.norm would hold.
    norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
    bad = np.nonzero(~(np.abs(norms - 1.0) <= _UNIT_TOL))[0]  # NaN rows fail too
    if bad.size:
        raise RetrievalError(f"descriptor for id {ids[bad[0]]!r} is not unit-norm ({norms[bad[0]]:.6f})")
    if isinstance(poses, np.ndarray):
        if poses.shape != (len(ids), 2):
            raise RetrievalError(f"positions must be (n, 2), got shape {poses.shape}")
        positions = np.asarray(poses, dtype=np.float64)
    else:
        positions = np.fromiter((xy for p in poses for xy in (p.east, p.north)), np.float64, 2 * len(poses))
    matrix.flags.writeable = False
    return DescriptorIndex(ids=list(ids), matrix=matrix, positions=positions.reshape(-1, 2))


def _query_matrix(descriptors: np.ndarray | Sequence[np.ndarray], dim: int) -> np.ndarray:
    """Query descriptors as a (Q, dim) float64 array; each must be a finite unit vector."""
    if isinstance(descriptors, np.ndarray):
        shape = descriptors.shape[1:] if descriptors.shape[1:] != (dim,) else None
    else:
        shape = next((np.shape(d) for d in descriptors if np.shape(d) != (dim,)), None)
    if shape is not None:
        raise RetrievalError(f"query has shape {shape}, index dimension is {dim}")
    queries = np.asarray(descriptors, dtype=np.float64)
    if not np.all(np.abs(np.linalg.norm(queries, axis=1) - 1.0) <= _UNIT_TOL):  # NaN fails too
        raise RetrievalError("query descriptor is not unit-norm")
    return queries


def _top_rows(sims: np.ndarray, k: int) -> np.ndarray:
    """Row indices of the ``k`` largest entries of each row of ``sims``, by (-sim, row).

    Works on steps of rows whose copy takes at most ``TOP_K_STEP_BYTES``, and at least one row. One
    partial partition of a copy of the step finds each row's k-th largest similarity; every entry at
    least that large, ties included, is a candidate, and one exact sort of the step's candidates by
    (row, -sim), stable in column order, makes each row's cut. The block's similarity matrix stays
    the only large buffer. Returns (Q, min(k, N)).
    """
    q, n = sims.shape
    k = min(k, n)
    out = np.empty((q, k), dtype=np.intp)
    step = max(1, TOP_K_STEP_BYTES // (sims.itemsize * n))
    row_numbers, cut = np.arange(step), np.arange(k)
    out_flat = out.reshape(-1)  # a view: the steps write their rows' flat indices, taken mod N at the end
    for start in range(0, q, step):
        rows = sims[start : start + step]
        # Each row's k-th largest similarity is column n - k of the step's partitioned copy, which lives
        # only for this comparison. Row-major flat indices keep each row's candidates contiguous, in column order.
        flat = (rows >= np.partition(rows, n - k)[:, n - k, None]).ravel().nonzero()[0]
        row_of = flat // n
        top = flat[np.lexsort((-rows.ravel()[flat], row_of))]
        if len(top) > len(rows) * k:  # ties with some row's k-th similarity: keep each row's first k
            top = top[(row_of.searchsorted(row_numbers[: len(rows)])[:, None] + cut).ravel()]
        out_flat[start * k : (start + step) * k] = top
    out %= n
    return out


def knn(index: DescriptorIndex, query: np.ndarray, k: int) -> list[tuple[str, float]]:
    """Top-k (id, similarity) by exhaustive inner-product scan, descending.

    Exactly equal computed similarities keep insertion order, as in a full
    ``(-sim, row)`` sort; duplicate rows may compute unequal (module docstring).
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if len(index) == 0:
        return []
    query = _query_matrix([query], index.dim)[0]
    sims = index.matrix @ query
    rows = _top_rows(sims[None, :], k)[0]
    return [(index.ids[i], float(sims[i])) for i in rows]


@dataclass
class EvalReport:
    """Recall@K at one distance threshold over a query set."""

    threshold_m: float
    num_queries: int
    recall_at: dict[int, float]
    first_correct_rank: list[int | None] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "version": REPORT_VERSION,
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
    queries: np.ndarray | Sequence[tuple[np.ndarray, GeoPose]],
    ks: Sequence[int] = DEFAULT_KS,
    threshold_m: float = DEFAULT_THRESHOLD_M,
    positions: np.ndarray | None = None,
) -> EvalReport:
    """Fraction of queries with a correct item in the top K, for each K.

    ``queries`` is a ``(Q, D)`` descriptor array with its ``(Q, 2)`` (east, north) ``positions``, or
    (descriptor, GeoPose) pairs. A database item is correct when its pose is within ``threshold_m``
    meters of the query pose (planar metric; the poses share one zone).
    """
    if len(queries) == 0:
        raise RetrievalError("empty query list")
    ks = list(ks)
    if not ks or any(k < 1 for k in ks) or ks != sorted(ks):
        raise DomainError(f"ks must be positive and ascending, got {ks}")
    if not threshold_m >= 0.0:
        raise DomainError(f"threshold must be >= 0, got {threshold_m}")
    kmax = min(max(ks), len(index))
    ranks = np.zeros(len(queries), dtype=np.intp)  # 1-based rank of the first correct row, 0 for none
    if kmax:
        if isinstance(queries, np.ndarray):
            if positions is None or np.shape(positions) != (len(queries), 2):
                raise RetrievalError(f"{len(queries)} query descriptors need ({len(queries)}, 2) positions")
            descriptors = _query_matrix(queries, index.dim)
        else:
            descriptors = _query_matrix([d for d, _ in queries], index.dim)
            positions = [(p.east, p.north) for _, p in queries]
        positions = np.asarray(positions, dtype=np.float64)
        block = max(1, min(SEARCH_BLOCK_ROWS, SEARCH_BLOCK_BYTES // (8 * len(index))))
        # (D, N) and C-contiguous (a view of the index), so each block's product streams the rows once.
        database = index.matrix.T
        buffer = np.empty((min(block, len(queries)), len(index)))
        for start in range(0, len(queries), block):
            stop = min(start + block, len(queries))
            sims = np.matmul(descriptors[start:stop], database, out=buffer[: stop - start])
            offsets = index.positions[_top_rows(sims, kmax)] - positions[start:stop, None, :]
            near = np.hypot(offsets[..., 0], offsets[..., 1]) <= threshold_m
            ranks[start:stop] = np.where(near.any(axis=1), near.argmax(axis=1) + 1, 0)
    found = ranks[ranks > 0]
    return EvalReport(
        threshold_m=threshold_m,
        num_queries=len(queries),
        recall_at={k: int(np.count_nonzero(found <= k)) / len(queries) for k in ks},
        first_correct_rank=[r or None for r in ranks.tolist()],
    )


def evaluate(
    db_vecs: np.ndarray,
    db_rows: ManifestColumns,
    query_vecs: np.ndarray,
    query_rows: ManifestColumns,
    ks: Sequence[int] = DEFAULT_KS,
    threshold_m: float = DEFAULT_THRESHOLD_M,
) -> EvalReport:
    """Recall@K of query descriptors searched against database descriptors.

    Row i of ``db_vecs``/``query_vecs`` belongs to row i of its manifest columns. The index takes
    the database ids and positions. It adopts ``db_vecs`` when that is a Fortran-ordered float64
    array (as validation's chunk loop and eval's loader return), and ``db_vecs`` then becomes read-only.
    The query zone must match the database zone.
    """
    if not len(db_rows) or not len(query_rows):
        raise RetrievalError("evaluation needs a non-empty database and query set")
    if len(query_vecs) != len(query_rows):
        raise RetrievalError(f"{len(query_vecs)} query descriptors vs {len(query_rows)} query records")
    query_zone, db_zone = (f"{r.zone_number} {r.hemisphere}" for r in (query_rows, db_rows))
    if query_zone != db_zone:
        raise DomainError(f"query zone {query_zone} does not match database zone {db_zone}")
    index = build_index(db_vecs, db_rows.ids, db_rows.positions())
    return recall_at_n(index, np.asarray(query_vecs), ks, threshold_m, query_rows.positions())
