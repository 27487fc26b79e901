import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoloc.errors import DomainError, EmptyPartitionError
from geoloc.ingest import ImageRecord
from geoloc.partition import (
    ClassId,
    GeoPose,
    GroupId,
    PartitionConfig,
    assign_group,
    build_partition,
    enumerate_groups,
    partition_stats,
    partition_to_dict,
    save_partition,
)
from columns import columns_of
from oracles import adjacent, assign_class

CFG = PartitionConfig(cell_size_m=10.0, heading_bin_deg=30.0, cell_stride=5, heading_stride=2,
                      min_images_per_class=0)


def rec(rid, east, north, heading):
    return ImageRecord(id=rid, pose=GeoPose(east=east, north=north, heading=heading))


def class_of(pose, cfg):
    """The class ``build_partition`` puts one row at ``pose`` in."""
    (cid,) = build_partition(columns_of([ImageRecord(id="x", pose=pose)]), cfg).class_members
    return cid


def test_assign_class_example():
    cid = class_of(GeoPose(553201.3, 4183422.7, 47.0), CFG)
    assert cid == ClassId(55320, 418342, 1)


def test_assign_class_last_heading_bin():
    cid = class_of(GeoPose(0.0, 0.0, 359.999), CFG)
    assert cid.heading_bin == 11


def test_assign_class_floors_toward_minus_infinity():
    cid = class_of(GeoPose(-0.5, 0.0, 0.0), CFG)
    assert cid.cell_east == -1


def test_assign_group_example():
    assert assign_group(ClassId(55320, 418342, 1), CFG) == GroupId(0, 2, 1)


def test_assign_group_negative_indices():
    assert assign_group(ClassId(-1, 0, 0), CFG) == GroupId(4, 0, 0)


def test_assign_group_degenerate_config():
    cfg = PartitionConfig(cell_stride=1, heading_stride=1, heading_bin_deg=30.0)
    for cid in (ClassId(0, 0, 0), ClassId(-7, 12, 11), ClassId(3, -3, 5)):
        assert assign_group(cid, cfg) == GroupId(0, 0, 0)


def test_enumerate_groups_count_and_order():
    groups = enumerate_groups(CFG)
    assert len(groups) == 50
    assert len(set(groups)) == 50
    assert groups == sorted(groups)

    cfg = PartitionConfig(cell_stride=2, heading_stride=3, heading_bin_deg=30.0)
    groups = enumerate_groups(cfg)
    assert len(groups) == 12
    assert groups[0] == GroupId(0, 0, 0)
    assert groups[-1] == GroupId(1, 1, 2)

    cfg = PartitionConfig(cell_stride=1, heading_stride=1)
    assert enumerate_groups(cfg) == [GroupId(0, 0, 0)]


def test_adjacent_examples():
    assert adjacent(ClassId(0, 0, 0), ClassId(1, 0, 0), CFG)
    assert adjacent(ClassId(0, 0, 0), ClassId(0, 0, 11), CFG)  # circular wrap
    assert not adjacent(ClassId(0, 0, 0), ClassId(2, 0, 0), CFG)
    assert adjacent(ClassId(0, 0, 0), ClassId(1, 1, 1), CFG)  # diagonal corner
    assert not adjacent(ClassId(0, 0, 0), ClassId(0, 0, 2), CFG)
    with pytest.raises(DomainError):
        adjacent(ClassId(0, 0, 0), ClassId(0, 0, 0), CFG)


def test_config_invariants():
    with pytest.raises(DomainError):
        PartitionConfig(heading_bin_deg=50.0)  # does not divide 360
    with pytest.raises(DomainError):
        PartitionConfig(heading_bin_deg=45.0, heading_stride=3)  # 8 bins % 3 != 0
    with pytest.raises(DomainError):
        PartitionConfig(heading_bin_deg=360.0, heading_stride=2)
    PartitionConfig(heading_bin_deg=360.0, heading_stride=1)  # fine
    with pytest.raises(DomainError):
        PartitionConfig(cell_size_m=0.0)
    with pytest.raises(DomainError):
        PartitionConfig(cell_stride=0)


def test_min_images_filter():
    cfg = PartitionConfig(min_images_per_class=10)
    records = [rec(f"a{i}", 5.0 + 0.1 * i, 5.0, 10.0) for i in range(3)]
    records += [rec(f"b{i}", 205.0 + 0.1 * i, 5.0, 10.0) for i in range(10)]
    part = build_partition(columns_of(records), cfg)
    assert part.discarded_classes == 1
    assert part.discarded_images == 3
    assert len(part.class_members) == 1


def test_filter_disabled():
    records = [rec("a", 5.0, 5.0, 10.0)]
    part = build_partition(columns_of(records), PartitionConfig(min_images_per_class=0))
    assert part.discarded_classes == 0
    assert part.discarded_images == 0


def test_empty_surviving_class_set_is_an_error():
    records = [rec("a", 5.0, 5.0, 10.0)]
    with pytest.raises(EmptyPartitionError):
        build_partition(columns_of(records), PartitionConfig(min_images_per_class=2))


def test_partition_is_input_order_invariant():
    rng = random.Random(7)
    records = [
        rec(f"r{i}", rng.uniform(0, 300), rng.uniform(0, 300), rng.uniform(0, 360))
        for i in range(400)
    ]
    shuffled = records[:]
    rng.shuffle(shuffled)
    a = build_partition(columns_of(records), CFG)
    b = build_partition(columns_of(shuffled), CFG)
    assert partition_to_dict(a) == partition_to_dict(b)


def test_label_order_is_lexicographic_within_groups():
    records = [rec(f"r{i}", 5.0 + 50.0 * i, 5.0, 10.0) for i in range(4)]
    part = build_partition(columns_of(records), CFG)
    for classes in part.group_classes.values():
        assert classes == sorted(classes)


def test_stats_of_empty_partition_are_zero():
    from geoloc.partition import Partition

    empty = Partition(config=CFG, class_members={}, discarded_classes=0, discarded_images=0)
    stats = partition_stats(empty)
    assert stats["retained_classes"] == 0
    assert stats["retained_images"] == 0
    assert stats["class_size_min"] == 0 and stats["class_size_max"] == 0
    assert stats["class_size_mean"] == 0.0
    assert all(n == 0 for n in stats["group_class_counts"].values())


def test_uniform_density_city_balances_groups():
    # A 10x10 grid of places on 10 m cells with 4 heading slots aligns with
    # the 5x5x2 strides, so the 50 groups hold near-identical class counts.
    from geoloc.synth import CityConfig, generate_city

    city = CityConfig(extent_m=100.0, place_spacing_m=10.0, headings_per_place=4,
                      images_per_place_heading=3, latent_dim=4, feature_map_shape=(2, 1, 1),
                      noise_sigma=0.0, repel_iterations=0, seed=2)
    world = generate_city(city)
    part = build_partition(world.rows, CFG)
    stats = partition_stats(part)
    counts = list(stats["group_class_counts"].values())
    mean = sum(counts) / len(counts)
    assert mean > 0
    assert max(counts) <= 1.1 * mean
    assert min(counts) >= 0.9 * mean
    # Direct recount from the membership tables agrees.
    recount = {"_".join(map(str, g)): 0 for g in part.group_classes}
    for cid in part.class_members:
        recount["_".join(map(str, assign_group(cid, CFG)))] += 1
    assert recount == stats["group_class_counts"]


def test_stats_reconcile():
    rng = random.Random(3)
    records = [
        rec(f"r{i}", rng.uniform(0, 200), rng.uniform(0, 200), rng.uniform(0, 360))
        for i in range(500)
    ]
    part = build_partition(columns_of(records), CFG)
    stats = partition_stats(part)
    assert stats["group_count"] == 50
    assert sum(stats["group_class_counts"].values()) == stats["retained_classes"]
    assert stats["retained_images"] == sum(len(m) for m in part.class_members.values())
    assert stats["retained_images"] + stats["discarded_images"] == 500
    assert partition_stats(part) == stats  # determinism


def test_serialization_round_trip(tmp_path):
    rng = random.Random(11)
    records = [
        rec(f"r{i}", rng.uniform(-50, 150), rng.uniform(-50, 150), rng.uniform(0, 360))
        for i in range(200)
    ]
    part = build_partition(columns_of(records), CFG)
    path = tmp_path / "partition.json"
    save_partition(part, path)
    # Re-saving produces an identical file.
    path2 = tmp_path / "partition2.json"
    save_partition(part, path2)
    assert path.read_bytes() == path2.read_bytes()


# Structural properties on a small exhaustive partition.

def small_world(cfg, n=600, seed=5):
    rng = random.Random(seed)
    return [
        rec(f"r{i}", rng.uniform(0, 40 * cfg.cell_size_m), rng.uniform(0, 40 * cfg.cell_size_m),
            rng.uniform(0, 360))
        for i in range(n)
    ]


@pytest.mark.parametrize("stride,heading_stride,bin_deg", [(5, 2, 30.0), (3, 3, 30.0), (2, 2, 45.0)])
def test_property_every_class_in_exactly_one_group(stride, heading_stride, bin_deg):
    cfg = PartitionConfig(cell_size_m=10.0, heading_bin_deg=bin_deg, cell_stride=stride,
                          heading_stride=heading_stride, min_images_per_class=0)
    part = build_partition(columns_of(small_world(cfg)), cfg)
    seen = {}
    for gid, classes in part.group_classes.items():
        assert len(set(classes)) == len(classes)
        for cid in classes:
            assert cid not in seen
            seen[cid] = gid
    assert seen == {cid: assign_group(cid, cfg) for cid in part.class_members}


@pytest.mark.parametrize("stride,heading_stride", [(5, 2), (3, 3), (2, 2)])
def test_property_no_adjacent_classes_share_a_group(stride, heading_stride):
    cfg = PartitionConfig(cell_size_m=10.0, heading_bin_deg=30.0, cell_stride=stride,
                          heading_stride=heading_stride, min_images_per_class=0)
    part = build_partition(columns_of(small_world(cfg)), cfg)
    for classes in part.group_classes.values():
        for i, a in enumerate(classes):
            for b in classes[i + 1 :]:
                assert not adjacent(a, b, cfg), (a, b)


@given(
    east=st.floats(-1e6, 1e6),
    north=st.floats(-1e6, 1e6),
    heading=st.floats(0, 359.999),
    d_east=st.floats(0, 9.999),
    d_north=st.floats(0, 9.999),
    d_heading=st.floats(0, 29.999),
)
@settings(max_examples=300, deadline=None)
def test_quantization_consistency(east, north, heading, d_east, d_north, d_heading):
    # Two poses closer than one cell/bin with no floor boundary between them
    # share a class.
    a = GeoPose(east, north, heading)
    c1 = class_of(a, CFG)
    east2, north2 = east + d_east, north + d_north
    heading2 = heading + d_heading
    if (
        int(east2 // 10.0) == c1.cell_east
        and int(north2 // 10.0) == c1.cell_north
        and heading2 < 360.0
        and int(heading2 // 30.0) == c1.heading_bin
    ):
        assert class_of(GeoPose(east2, north2, heading2), CFG) == c1


@given(
    poses=st.lists(
        st.tuples(st.floats(-1e7, 1e7), st.floats(-1e7, 1e7), st.floats(0.0, 360.0, exclude_max=True)),
        min_size=1, max_size=40,
    ),
    cell=st.sampled_from([0.1, 1.0, 7.0, 10.0, 25.0]),
)
@settings(max_examples=200, deadline=None)
def test_build_partition_classes_equal_the_scalar_floors(poses, cell):
    cfg = PartitionConfig(cell_size_m=cell, heading_bin_deg=30.0, min_images_per_class=0)
    records = [rec(f"r{i}", *pose) for i, pose in enumerate(poses)]
    part = build_partition(columns_of(records), cfg)
    class_of_id = {rid: cid for cid, members in part.class_members.items() for rid in members}
    assert len(class_of_id) == len(records)
    for r in records:
        assert class_of_id[r.id] == assign_class(r.pose, cfg)
        assert all(type(v) is int for v in class_of_id[r.id])


def test_group_membership_depends_only_on_pose():
    pose = GeoPose(123.4, 567.8, 91.0)
    records = [ImageRecord(id=f"x{i}", pose=pose) for i in range(5)]
    part = build_partition(columns_of(records), CFG)
    assert len(part.class_members) == 1
    (cid,) = part.class_members
    assert cid == assign_class(pose, CFG)
    assert part.group_classes[assign_group(cid, CFG)] == [cid]
