import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoloc.errors import DomainError, RetrievalError
from geoloc.ingest import ImageRecord
from geoloc.partition import GeoPose
from geoloc.retrieval import (
    OpCounter,
    build_index,
    evaluate,
    format_report_table,
    knn,
    load_index,
    recall_at_n,
    save_index,
)


def unit_rows(a):
    a = np.asarray(a, dtype=np.float64)
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def random_index(rng, n, dim, spread=100.0):
    vecs = unit_rows(rng.standard_normal((n, dim)))
    ids = [f"db{i}" for i in range(n)]
    poses = [
        GeoPose(east=float(rng.uniform(0, spread)), north=float(rng.uniform(0, spread)), heading=0.0)
        for _ in range(n)
    ]
    return build_index(vecs, ids, poses, zone_number=10, hemisphere="north"), vecs


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


def test_non_unit_descriptor_rejected_with_id():
    v = np.array([[1.0, 0.0], [0.7, 0.0]])
    poses = [GeoPose(0.0, 0.0, 0.0)] * 2
    with pytest.raises(RetrievalError, match="bad"):
        build_index(v, ["ok", "bad"], poses)


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
    index = make_planted_index([10.0, 500.0, 900.0])
    # The query descriptor matches entry 0 whose pose is 10 m away.
    queries = [(np.eye(3)[0], GeoPose(east=0.0, north=0.0, heading=0.0))]
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
    vecs = np.eye(1)
    poses = [GeoPose(10.0, 0.0, 0.0)]
    index = build_index(vecs, ["p0"], poses, zone_number=10, hemisphere="north")
    queries = [(np.array([1.0]), GeoPose(0.0, 0.0, 0.0))]
    with pytest.raises(DomainError, match="zone"):
        recall_at_n(index, queries, ks=(1,), query_zone_number=11, query_hemisphere="north")
    with pytest.raises(DomainError, match="zone"):
        recall_at_n(index, queries, ks=(1,), query_zone_number=10, query_hemisphere="south")
    # Matching or unspecified zones pass through.
    recall_at_n(index, queries, ks=(1,), query_zone_number=10, query_hemisphere="north")
    recall_at_n(index, queries, ks=(1,))
    # evaluate takes both zones from the records.
    db = [ImageRecord(id="p0", pose=poses[0], zone_number=10, hemisphere="north")]
    query = [ImageRecord(id="q0", pose=GeoPose(0.0, 0.0, 0.0), zone_number=11, hemisphere="north")]
    with pytest.raises(DomainError, match="zone"):
        evaluate(vecs, db, np.eye(1), query, ks=(1,))
    same_zone = [dataclasses.replace(query[0], zone_number=10)]
    assert evaluate(vecs, db, np.eye(1), same_zone, ks=(1,)).recall_at == {1: 1.0}


def test_recall_requires_queries_and_sorted_ks():
    index = make_planted_index([10.0])
    with pytest.raises(RetrievalError):
        recall_at_n(index, [], ks=(1,))
    queries = [(np.array([1.0]), GeoPose(0.0, 0.0, 0.0))]
    with pytest.raises(DomainError):
        recall_at_n(index, queries, ks=(5, 1))


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


def test_search_cost_scales_linearly():
    rng = np.random.default_rng(7)
    q4 = unit_rows(rng.standard_normal((1, 4)))[0]
    q8 = unit_rows(rng.standard_normal((1, 8)))[0]
    index_a, _ = random_index(rng, 100, 4)
    index_b, _ = random_index(rng, 200, 4)
    index_c, _ = random_index(rng, 100, 8)
    ca, cb, cc = OpCounter(), OpCounter(), OpCounter()
    knn(index_a, q4, 5, counter=ca)
    knn(index_b, q4, 5, counter=cb)
    knn(index_c, q8, 5, counter=cc)
    assert cb.madds == 2 * ca.madds  # double the rows
    assert cc.madds == 2 * ca.madds  # double the dimension


def test_index_file_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    index, _ = random_index(rng, 17, 5)
    path = tmp_path / "index.bin"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.ids == index.ids
    assert loaded.zone_number == index.zone_number
    assert loaded.hemisphere == index.hemisphere
    np.testing.assert_array_equal(loaded.matrix, index.matrix)
    assert [(p.east, p.north, p.heading) for p in loaded.poses] == [
        (p.east, p.north, p.heading) for p in index.poses
    ]


def test_index_file_round_trip_without_zone(tmp_path):
    vecs = np.eye(3)
    index = build_index(vecs, ["a", "b", "c"], [GeoPose(float(i), 0.0, 0.0) for i in range(3)])
    path = tmp_path / "nozone.bin"
    save_index(index, path)
    loaded = load_index(path)
    assert loaded.zone_number is None
    assert loaded.hemisphere is None
    assert loaded.ids == ["a", "b", "c"]


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


def _saved_index_bytes(tmp_path, index):
    path = tmp_path / "index.bin"
    save_index(index, path)
    return path, path.read_bytes()


def test_load_index_rejects_unknown_hemisphere_byte(tmp_path):
    index, _ = random_index(np.random.default_rng(31), 4, 3)
    path, blob = _saved_index_bytes(tmp_path, index)
    path.write_bytes(blob[:11] + bytes([7]) + blob[12:])  # the header's hemisphere byte
    with pytest.raises(RetrievalError, match="hemisphere"):
        load_index(path)


def test_load_index_rejects_trailing_bytes(tmp_path):
    index, _ = random_index(np.random.default_rng(32), 4, 3)
    path, blob = _saved_index_bytes(tmp_path, index)
    path.write_bytes(blob + b"\0" * 8)
    with pytest.raises(RetrievalError, match="trailing"):
        load_index(path)


@pytest.mark.parametrize("bad_row", [2.0 * np.eye(3)[0], np.full(3, np.nan)])
def test_load_index_rejects_non_unit_rows(tmp_path, bad_row):
    index, _ = random_index(np.random.default_rng(33), 4, 3)
    matrix = index.matrix.copy()
    matrix[2] = bad_row
    path, _ = _saved_index_bytes(tmp_path, dataclasses.replace(index, matrix=matrix))
    with pytest.raises(RetrievalError, match="unit-norm"):
        load_index(path)
