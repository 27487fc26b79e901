import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoloc import retrieval
from geoloc.errors import DomainError, RetrievalError
from geoloc.ingest import ImageRecord
from geoloc.partition import GeoPose
from geoloc.retrieval import (
    build_index,
    evaluate,
    format_report_table,
    knn,
    recall_at_n,
)
from columns import columns_of
from oracles import unit_rows


def random_index(rng, n, dim, spread=100.0):
    vecs = unit_rows(rng.standard_normal((n, dim)))
    ids = [f"db{i}" for i in range(n)]
    poses = [
        GeoPose(east=float(rng.uniform(0, spread)), north=float(rng.uniform(0, spread)), heading=0.0)
        for _ in range(n)
    ]
    return build_index(vecs, ids, poses), vecs


def brute_force_oracle(matrix, ids, query, k):
    """Independent reference: full stable sort of every similarity."""
    sims = [float(np.dot(row, query)) for row in matrix]
    order = sorted(range(len(ids)), key=lambda i: (-sims[i], i))
    return [(ids[i], sims[i]) for i in order[:k]]


def test_empty_index_is_searchable():
    index = build_index(np.empty((0, 0)), [], [])
    assert knn(index, np.array([]), 3) == []


def test_single_entry_always_rank_one():
    rng = np.random.default_rng(0)
    v = unit_rows(rng.standard_normal((1, 8)))
    index = build_index(v, ["only"], [GeoPose(0.0, 0.0, 0.0)])
    for _ in range(5):
        q = unit_rows(rng.standard_normal((1, 8)))[0]
        assert knn(index, q, 3)[0][0] == "only"


def test_duplicate_ids_rejected():
    v = unit_rows(np.random.default_rng(1).standard_normal((2, 4)))
    poses = [GeoPose(0.0, 0.0, 0.0)] * 2
    with pytest.raises(RetrievalError, match="duplicate"):
        build_index(v, ["a", "a"], poses)


def test_build_index_rejects_counts_that_disagree():
    v = unit_rows(np.random.default_rng(1).standard_normal((2, 4)))
    pose = GeoPose(0.0, 0.0, 0.0)
    with pytest.raises(RetrievalError, match=r"^2 ids vs 1 poses$"):
        build_index(v, ["a", "b"], [pose])
    with pytest.raises(RetrievalError, match=r"^2 descriptors vs 3 ids$"):
        build_index(v, ["a", "b", "c"], [pose] * 3)


def test_non_unit_descriptor_rejected_with_id():
    poses = [GeoPose(0.0, 0.0, 0.0)] * 2
    for bad_row in ([0.7, 0.0], [np.nan, np.nan]):
        with pytest.raises(RetrievalError, match="bad"):
            build_index(np.array([[1.0, 0.0], bad_row]), ["ok", "bad"], poses)


def test_self_query_is_rank_one_with_similarity_one():
    rng = np.random.default_rng(2)
    index, vecs = random_index(rng, 20, 6)
    got = knn(index, vecs[7], 1)
    assert got[0][0] == "db7"
    assert got[0][1] == pytest.approx(1.0, abs=1e-6)


def test_orthogonal_query_ties_break_by_insertion_order():
    vecs = np.eye(4)[:3]  # three orthonormal rows
    poses = [GeoPose(0.0, 0.0, 0.0)] * 3
    index = build_index(vecs, ["a", "b", "c"], poses)
    q = np.array([0.0, 0.0, 0.0, 1.0])  # orthogonal to every row
    got = knn(index, q, 3)
    assert [g[0] for g in got] == ["a", "b", "c"]
    assert all(abs(g[1]) < 1e-12 for g in got)


def test_knn_matches_brute_force_oracle():
    rng = np.random.default_rng(3)
    index, vecs = random_index(rng, 50, 7)
    for _ in range(25):
        q = unit_rows(rng.standard_normal((1, 7)))[0]
        got = knn(index, q, 10)
        want = brute_force_oracle(index.matrix, index.ids, q, 10)
        assert [g[0] for g in got] == [w[0] for w in want]
        np.testing.assert_allclose([g[1] for g in got], [w[1] for w in want], atol=1e-12)


def test_knn_validates_inputs():
    rng = np.random.default_rng(4)
    index, _ = random_index(rng, 5, 4)
    with pytest.raises(DomainError):
        knn(index, np.ones(4) / 2.0, 0)
    with pytest.raises(RetrievalError, match="shape"):
        knn(index, unit_rows(rng.standard_normal((1, 3)))[0], 1)
    with pytest.raises(RetrievalError, match="unit"):
        knn(index, np.ones(4), 1)


def make_planted_index(offsets):
    """Database descriptors equal to unit axes; poses offset by given meters."""
    n = len(offsets)
    vecs = np.eye(n)
    ids = [f"p{i}" for i in range(n)]
    poses = [GeoPose(east=o, north=0.0, heading=0.0) for o in offsets]
    return build_index(vecs, ids, poses)


def test_recall_threshold_semantics():
    index = make_planted_index([10.0, 500.0, 900.0, 25.0])
    # The first query descriptor matches entry 0, whose pose is 10 m away; the
    # second matches entry 3, exactly at the 25 m threshold, which counts.
    origin = GeoPose(east=0.0, north=0.0, heading=0.0)
    queries = [(np.eye(4)[0], origin), (np.eye(4)[3], origin)]
    r25 = recall_at_n(index, queries, ks=(1,), threshold_m=25.0)
    assert r25.recall_at[1] == 1.0
    r5 = recall_at_n(index, queries, ks=(1,), threshold_m=5.0)
    assert r5.recall_at[1] == 0.0


def test_recall_monotone_in_k_and_threshold():
    rng = np.random.default_rng(5)
    index, vecs = random_index(rng, 40, 5, spread=50.0)
    queries = [
        (unit_rows(rng.standard_normal((1, 5)))[0],
         GeoPose(float(rng.uniform(0, 50)), float(rng.uniform(0, 50)), 0.0))
        for _ in range(30)
    ]
    for threshold in (5.0, 15.0, 40.0):
        report = recall_at_n(index, queries, ks=(1, 5, 10, 20), threshold_m=threshold)
        values = [report.recall_at[k] for k in (1, 5, 10, 20)]
        assert values == sorted(values)
        assert all(0.0 <= v <= 1.0 for v in values)
    r_small = recall_at_n(index, queries, ks=(1, 5), threshold_m=5.0)
    r_large = recall_at_n(index, queries, ks=(1, 5), threshold_m=40.0)
    for k in (1, 5):
        assert r_large.recall_at[k] >= r_small.recall_at[k]


def test_recall_zone_mismatch_rejected():
    # evaluate takes both zones from the manifest columns; zone number and hemisphere must both agree.
    vecs = np.eye(1)
    db = [ImageRecord(id="p0", pose=GeoPose(10.0, 0.0, 0.0), zone_number=10, hemisphere="north")]
    query = ImageRecord(id="q0", pose=GeoPose(0.0, 0.0, 0.0), zone_number=10, hemisphere="north")
    for other in (dataclasses.replace(query, zone_number=11), dataclasses.replace(query, hemisphere="south")):
        with pytest.raises(DomainError, match="zone"):
            evaluate(vecs, columns_of(db), np.eye(1), columns_of([other]), ks=(1,))
    assert evaluate(vecs, columns_of(db), np.eye(1), columns_of([query]), ks=(1,)).recall_at == {1: 1.0}


def test_evaluate_rejects_more_query_descriptors_than_query_records():
    db = [ImageRecord(id="p0", pose=GeoPose(10.0, 0.0, 0.0), zone_number=10, hemisphere="north")]
    query = ImageRecord(id="q0", pose=GeoPose(0.0, 0.0, 0.0), zone_number=10, hemisphere="north")
    with pytest.raises(RetrievalError, match=r"^2 query descriptors vs 1 query records$"):
        evaluate(np.eye(1), columns_of(db), np.ones((2, 1)), columns_of([query]), ks=(1,))


def test_recall_requires_queries_and_sorted_ks():
    index = make_planted_index([10.0])
    with pytest.raises(RetrievalError):
        recall_at_n(index, [], ks=(1,))
    queries = [(np.array([1.0]), GeoPose(0.0, 0.0, 0.0))]
    with pytest.raises(DomainError):
        recall_at_n(index, queries, ks=(5, 1))
    with pytest.raises(DomainError, match=r"^ks must be positive and ascending, got \[\]$"):
        recall_at_n(index, queries, ks=[])


def test_database_permutation_preserves_recall_without_ties():
    rng = np.random.default_rng(6)
    n, dim = 30, 6
    vecs = unit_rows(rng.standard_normal((n, dim)))
    ids = [f"d{i}" for i in range(n)]
    poses = [GeoPose(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)), 0.0) for _ in range(n)]
    queries = [
        (unit_rows(rng.standard_normal((1, dim)))[0],
         GeoPose(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)), 0.0))
        for _ in range(20)
    ]
    perm = rng.permutation(n)
    a = recall_at_n(build_index(vecs, ids, poses), queries, ks=(1, 5, 10))
    b = recall_at_n(
        build_index(vecs[perm], [ids[i] for i in perm], [poses[i] for i in perm]),
        queries,
        ks=(1, 5, 10),
    )
    assert a.recall_at == b.recall_at


def test_report_serialization_and_table():
    index = make_planted_index([10.0, 500.0])
    queries = [(np.eye(2)[0], GeoPose(0.0, 0.0, 0.0))]
    report = recall_at_n(index, queries, ks=(1, 5))
    doc = report.to_dict()
    assert doc["recall_at"] == {"1": 1.0, "5": 1.0}
    table = format_report_table(report)
    assert "R@1" in table and "100.0" in table


@given(st.integers(1, 30), st.integers(2, 8), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_recall_nondecreasing_in_k_property(n, dim, seed):
    rng = np.random.default_rng(seed)
    vecs = unit_rows(rng.standard_normal((n, dim)))
    ids = [str(i) for i in range(n)]
    poses = [GeoPose(float(rng.uniform(0, 60)), float(rng.uniform(0, 60)), 0.0) for _ in range(n)]
    index = build_index(vecs, ids, poses)
    queries = [
        (unit_rows(rng.standard_normal((1, dim)))[0],
         GeoPose(float(rng.uniform(0, 60)), float(rng.uniform(0, 60)), 0.0))
        for _ in range(5)
    ]
    report = recall_at_n(index, queries, ks=(1, 2, 5, 10), threshold_m=25.0)
    values = [report.recall_at[k] for k in (1, 2, 5, 10)]
    assert values == sorted(values)


def lexsort_first_correct(matrix, positions, query, query_position, kmax, threshold_m):
    """Independent reference: full (-sim, row) lexsort, then a distance test down the list."""
    sims = matrix @ query
    order = np.lexsort((np.arange(len(sims)), -sims))[:kmax]
    near = np.hypot(positions[order, 0] - query_position[0], positions[order, 1] - query_position[1])
    hits = np.flatnonzero(near <= threshold_m)
    return int(hits[0]) + 1 if hits.size else None, order


# Entries of +-1/2 at D=4 make every row a unit vector and every inner
# product exactly representable, so equal similarities are exact ties.
lattice_vectors = st.lists(st.sampled_from([-0.5, 0.5]), min_size=4, max_size=4)


@settings(max_examples=150, deadline=None)
@given(
    db=st.lists(st.tuples(lattice_vectors, st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=30),
    queries=st.lists(st.tuples(lattice_vectors, st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=25),
    ks=st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True).map(sorted),
    block_rows=st.integers(1, 7),
    threshold_m=st.sampled_from([0.0, 1.0, 1.5, 3.0]),
)
def test_blocked_search_matches_lexsort_oracle_under_heavy_ties(db, queries, ks, block_rows, threshold_m):
    matrix = np.array([v for v, _, _ in db])
    positions = np.array([(e, n) for _, e, n in db], dtype=np.float64)
    index = build_index(matrix, [f"d{i}" for i in range(len(db))], [GeoPose(float(e), float(n), 0.0) for _, e, n in db])
    pairs = [(np.array(v), GeoPose(float(e), float(n), 0.0)) for v, e, n in queries]
    # Blocks of block_rows queries: query counts that are not a multiple of the block are covered.
    # Top-K steps of one row each, so ties meet at every step boundary.
    with mock.patch.multiple(retrieval, SEARCH_BLOCK_BYTES=block_rows * 8 * len(db), TOP_K_STEP_BYTES=8 * len(db)):
        report = recall_at_n(index, pairs, ks=ks, threshold_m=threshold_m)
    kmax = min(max(ks), len(db))  # max(ks) may exceed the database
    for qi, (q, pose) in enumerate(pairs):
        want, order = lexsort_first_correct(matrix, positions, q, (pose.east, pose.north), kmax, threshold_m)
        assert report.first_correct_rank[qi] == want, f"query {qi}"
        for k in (1, ks[0], max(ks)):
            assert [rid for rid, _ in knn(index, q, k)] == [f"d{i}" for i in order[:k]]
    for k in ks:
        assert report.recall_at[k] == sum(1 for r in report.first_correct_rank if r is not None and r <= k) / len(queries)


def _lattice_case(rng, n, queries):
    """A D=4 lattice index whose rows repeat 16 vectors, so most similarities are exact ties.

    Row i sits at east = i % 5: which rows are correct for a query depends on
    the order in which tied rows rank.
    """
    signs = np.array([-0.5, 0.5])
    matrix = signs[rng.integers(2, size=(n, 4))]
    positions = np.stack((np.arange(n) % 5, np.zeros(n)), axis=1).astype(np.float64)
    index = build_index(matrix, [f"d{i}" for i in range(n)], [GeoPose(float(e), 0.0, 0.0) for e, _ in positions])
    vectors, easts = signs[rng.integers(2, size=(queries, 4))], rng.integers(5, size=queries)
    pairs = [(q, GeoPose(float(e), 0.0, 0.0)) for q, e in zip(vectors, easts)]
    return matrix, positions, index, pairs


@pytest.mark.parametrize(
    "n, queries, block_rows, ks",
    [
        (33_000, 6, None, (1, 5, 40)),  # one database row is wider than a step's budget: one-row steps
        (60, 250, 100, (1, 3, 10)),  # blocks of 100 queries, steps of 3 rows and a partial last step
        (60, 250, 100, (5, 80)),  # k > n: every row of the index is a candidate
        (7, 40, 64, (3, 12)),  # one block; k > n on a database narrower than k
    ],
)
def test_top_rows_matches_lexsort_oracle_across_step_shapes(n, queries, block_rows, ks):
    rng = np.random.default_rng(n + queries + max(ks))
    matrix, positions, index, pairs = _lattice_case(rng, n, queries)
    block_bytes = retrieval.SEARCH_BLOCK_BYTES if block_rows is None else block_rows * 8 * n
    # Steps of a 32nd of a patched block; unpatched, one row is wider than the step budget.
    step_bytes = retrieval.TOP_K_STEP_BYTES if block_rows is None else block_bytes // 32
    step_rows = step_bytes // (8 * n)
    assert step_rows == (0 if block_rows is None else block_rows // 32)
    with mock.patch.multiple(retrieval, SEARCH_BLOCK_BYTES=block_bytes, TOP_K_STEP_BYTES=step_bytes):
        report = recall_at_n(index, pairs, ks=ks, threshold_m=0.5)
        kmax = min(max(ks), n)
        for qi, (q, pose) in enumerate(pairs):
            want, order = lexsort_first_correct(matrix, positions, q, (pose.east, pose.north), kmax, 0.5)
            assert report.first_correct_rank[qi] == want, f"query {qi}"
            if qi < 6:
                for k in (1, *ks):
                    assert [rid for rid, _ in knn(index, q, k)] == [f"d{i}" for i in order[:k]]
    assert any(r not in (None, 1) for r in report.first_correct_rank)  # ties decide some ranks


def test_recall_checks_every_query_with_the_knn_messages():
    index, vecs = random_index(np.random.default_rng(8), 6, 3)
    good = (vecs[0], GeoPose(0.0, 0.0, 0.0))
    with pytest.raises(RetrievalError, match=r"query has shape \(2,\), index dimension is 3"):
        recall_at_n(index, [good, (np.ones(2) / np.sqrt(2.0), good[1])])
    with pytest.raises(RetrievalError, match="unit-norm"):
        recall_at_n(index, [good, (2.0 * vecs[1], good[1])])
    with pytest.raises(RetrievalError, match="unit-norm"):
        recall_at_n(index, [(np.full(3, np.nan), good[1]), good])


def test_search_multiplies_with_a_view_of_the_index(traced_peak):
    rng = np.random.default_rng(9)
    index, _ = random_index(rng, 4000, 64)
    database = np.ascontiguousarray(index.matrix.T)  # the (dim, rows) array recall_at_n multiplies with
    assert np.shares_memory(database, index.matrix)
    queries = [(q, GeoPose(50.0, 50.0, 0.0)) for q in unit_rows(rng.standard_normal((40, 64)))]
    # Blocks of 8 queries keep each similarity matrix at 256 KiB, an eighth of the 2 MiB index.
    with mock.patch.object(retrieval, "SEARCH_BLOCK_BYTES", 8 * 8 * len(index)):
        _, peak = traced_peak(lambda: recall_at_n(index, queries))
    assert peak < index.matrix.nbytes / 2, f"peak {peak} bytes for a {index.matrix.nbytes}-byte index"


def test_fortran_ordered_index_searches_like_a_c_ordered_one():
    # build_index stores its copy in Fortran order; a C-ordered twin is the parent layout.
    rng = np.random.default_rng(10)
    index, vecs = random_index(rng, 300, 16, spread=60.0)
    assert index.matrix.flags.f_contiguous and np.array_equal(index.matrix, vecs)
    twin = dataclasses.replace(index, matrix=np.ascontiguousarray(index.matrix))
    queries = [
        (q, GeoPose(float(e), float(n), 0.0))
        for q, (e, n) in zip(unit_rows(rng.standard_normal((60, 16))), rng.uniform(0, 60, size=(60, 2)))
    ]
    for q, _ in queries:
        got, want = knn(index, q, 10), knn(twin, q, 10)
        assert [rid for rid, _ in got] == [rid for rid, _ in want]
        np.testing.assert_allclose([s for _, s in got], [s for _, s in want], rtol=0, atol=1e-15)
    assert recall_at_n(index, queries).to_dict() == recall_at_n(twin, queries).to_dict()
    planted = make_planted_index([10.0, 500.0, 900.0, 25.0])
    planted_queries = [(axis, GeoPose(0.0, 0.0, 0.0)) for axis in np.eye(4)]
    report = recall_at_n(planted, planted_queries, ks=(1, 2))
    assert report.first_correct_rank == [1, 2, 2, 1]
    twin = dataclasses.replace(planted, matrix=np.ascontiguousarray(planted.matrix))
    assert recall_at_n(twin, planted_queries, ks=(1, 2)).to_dict() == report.to_dict()


def test_search_holds_one_similarity_block(traced_peak):
    rng = np.random.default_rng(12)
    index, _ = random_index(rng, 4000, 16)
    queries = [(q, GeoPose(50.0, 50.0, 0.0)) for q in unit_rows(rng.standard_normal((150, 16)))]
    block_rows = 64  # 2 MB of similarities per block; the 150 queries span 3 blocks
    block_bytes = 8 * block_rows * len(index)
    assert -(-len(queries) // block_rows) >= 3
    with mock.patch.object(retrieval, "SEARCH_BLOCK_BYTES", block_bytes):
        report, peak = traced_peak(lambda: recall_at_n(index, queries))
    assert report == recall_at_n(index, queries)
    assert peak < 1.5 * block_bytes, f"peak {peak} bytes for {block_bytes}-byte blocks"


def test_index_adopts_a_fortran_ordered_float64_array_and_copies_anything_else():
    rng = np.random.default_rng(13)
    vecs = unit_rows(rng.standard_normal((50, 8)))
    ids = [f"r{i}" for i in range(50)]
    poses = [GeoPose(float(i), 0.0, 0.0) for i in range(50)]
    adopted = np.asfortranarray(vecs)
    index = build_index(adopted, ids, poses)
    assert index.matrix is adopted and np.shares_memory(index.matrix, adopted)
    assert not adopted.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        index.matrix[0, 0] = 0.0
    for given in (np.ascontiguousarray(vecs), np.asfortranarray(vecs, dtype=np.float32), list(vecs)):
        arrays = given if isinstance(given, list) else [given]
        before = [a.copy() for a in arrays]
        index = build_index(given, ids, poses)
        assert index.matrix.flags.f_contiguous and index.matrix.dtype == np.float64
        assert np.array_equal(index.matrix, np.asarray(given, dtype=np.float64))
        for array, copy in zip(arrays, before):
            assert not np.shares_memory(index.matrix, array)
            assert array.flags.writeable and np.array_equal(array, copy)
        with pytest.raises(ValueError, match="read-only"):
            index.matrix[0, 0] = 0.0


def test_adopting_build_index_holds_no_matrix_sized_temporary(traced_peak):
    # An adopted matrix is the index; checking it must not cost another one.
    # The bound, a quarter of the matrix, is fixed in advance, not fitted to a reading.
    n, dim = 20_000, 64
    adopted = np.asfortranarray(unit_rows(np.random.default_rng(14).standard_normal((n, dim))))
    ids = [f"r{i}" for i in range(n)]
    poses = [GeoPose(float(i % 200), float(i // 200), 0.0) for i in range(n)]
    index, peak = traced_peak(lambda: build_index(adopted, ids, poses))
    assert index.matrix is adopted
    assert np.array_equal(index.positions, [(p.east, p.north) for p in poses])
    bound = n * dim * 8 / 4
    assert peak < bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"


def test_array_inputs_search_as_poses_and_pairs_do():
    # build_index takes an (N, 2) position array and recall_at_n a (Q, D) query array with its
    # (Q, 2) positions; both give what GeoPoses and (descriptor, GeoPose) pairs give.
    rng = np.random.default_rng(12)
    vecs = unit_rows(rng.standard_normal((60, 6)))
    positions = rng.uniform(0.0, 80.0, size=(60, 2))
    ids = [f"db{i}" for i in range(60)]
    by_poses = build_index(vecs, ids, [GeoPose(float(e), float(n), 0.0) for e, n in positions])
    by_array = build_index(vecs, ids, positions)
    assert np.array_equal(by_array.positions, by_poses.positions)
    queries = unit_rows(vecs[rng.integers(0, 60, size=25)] + 0.1 * rng.standard_normal((25, 6)))
    query_positions = rng.uniform(0.0, 80.0, size=(25, 2))
    pairs = [(q, GeoPose(float(e), float(n), 0.0)) for q, (e, n) in zip(queries, query_positions)]
    want = recall_at_n(by_poses, pairs, ks=(1, 5, 10), threshold_m=20.0)
    assert recall_at_n(by_array, queries, (1, 5, 10), 20.0, query_positions) == want
    with pytest.raises(RetrievalError, match="positions"):
        build_index(vecs, ids, positions[:, :1].copy())
    with pytest.raises(RetrievalError, match="positions"):
        recall_at_n(by_array, queries, (1,), 20.0)
    with pytest.raises(RetrievalError, match=r"query has shape \(5,\), index dimension is 6"):
        recall_at_n(by_array, queries[:, :5], (1,), 20.0, query_positions)
    with pytest.raises(RetrievalError, match="not unit-norm"):
        recall_at_n(by_array, 2.0 * queries, (1,), 20.0, query_positions)


def _desk_search(rng, n, dim=64):
    """An ``n`` x ``n`` search like desk validation's: each query is a noisy copy of a database row,
    and every position is uniform in a 200 m square. Returns the database matrix in Fortran order,
    the database positions, the queries and their positions."""
    database = np.asfortranarray(unit_rows(rng.standard_normal((n, dim))))
    queries = unit_rows(database[rng.permutation(n)] + 0.6 * rng.standard_normal((n, dim)) / np.sqrt(dim))
    positions = rng.uniform(0.0, 200.0, size=(n, 2))
    query_positions = rng.uniform(0.0, 200.0, size=(n, 2))
    return database, positions, queries, query_positions


def test_search_blocks_of_any_row_count_report_alike():
    # Each query's row of similarities is its own product, so how queries are cut into blocks
    # changes no rank; at desk validation's 720 x 720, D = 64 the report is the same for one-row
    # blocks, the 128-row default and one block of every query.
    database, positions, queries, query_positions = _desk_search(np.random.default_rng(15), 720)
    index = build_index(database, [f"db{i}" for i in range(720)], positions)
    reports = []
    for rows in (1, 45, 128, 720):
        with mock.patch.object(retrieval, "SEARCH_BLOCK_ROWS", rows):
            reports.append(recall_at_n(index, queries, positions=query_positions).to_dict())
    assert 0.0 < reports[0]["recall_at"]["20"] < 1.0
    assert all(report == reports[0] for report in reports[1:])


def test_evaluate_memory_per_database_row_at_q_equal_n(traced_peak):
    # A search block holds at most SEARCH_BLOCK_ROWS queries, so where the queries are as many as
    # the database rows (validation's Q = N), eval's peak grows by one block column per database
    # row, not by a whole query's row. With the descriptors made before tracing (the index adopts
    # the database side), the peak may grow by at most 128 * 8 + 512 B per database row. The bound
    # is fixed in advance, not fitted to a reading; one block of every query would add
    # (300 + 700) * 8 B per row between the two sizes.
    sizes, peaks = (300, 700), {}
    for n in sizes:
        database, positions, queries, query_positions = _desk_search(np.random.default_rng(16), n)
        poses = [GeoPose(float(e), float(north), 0.0) for e, north in np.concatenate([positions, query_positions])]
        records = [ImageRecord(f"r{i:04d}", pose) for i, pose in enumerate(poses)]
        db_rows, query_rows = columns_of(records[:n]), columns_of(records[n:])
        report, peaks[n] = traced_peak(lambda: evaluate(database, db_rows, queries, query_rows))
        assert report.num_queries == n
    slope = (peaks[sizes[1]] - peaks[sizes[0]]) / (sizes[1] - sizes[0])
    assert slope <= 128 * 8 + 512, f"evaluate's peak grew {slope:.0f} B per database row"
