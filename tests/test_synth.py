import dataclasses
import filecmp
import io
import re
import struct
import time
import zipfile
from contextlib import nullcontext

import numpy as np
import pytest

from geoloc import embed, synth
from geoloc.errors import DomainError, ManifestError
from geoloc.partition import GeoPose, PartitionConfig, build_partition
from geoloc.retrieval import build_index, recall_at_n
from geoloc.synth import (
    REDUCE_CHUNK_ROWS,
    CityConfig,
    FeatureStore,
    SYNTH_ZONE_NUMBER,
    generate_city,
    load_features,
    oracle_descriptor,
    write_world,
)
from oracles import assign_class, generate_city_per_image, oracle_pairwise_check, zip_members

SMALL = CityConfig(
    extent_m=60.0,
    place_spacing_m=20.0,
    headings_per_place=4,
    images_per_place_heading=3,
    latent_dim=8,
    feature_map_shape=(6, 2, 2),
    noise_sigma=0.05,
    seed=11,
)


def aligned_partition_config(city: CityConfig, min_images=0, cell_stride=5, heading_stride=2):
    return PartitionConfig(
        cell_size_m=city.cell_size_m,
        heading_bin_deg=city.heading_bin_deg,
        cell_stride=cell_stride,
        heading_stride=heading_stride,
        min_images_per_class=min_images,
    )


def test_record_count():
    cfg = CityConfig(extent_m=100.0, place_spacing_m=10.0, headings_per_place=4,
                     images_per_place_heading=12, latent_dim=8, feature_map_shape=(4, 2, 2), seed=0)
    world = generate_city(cfg)
    assert len(world.records) == 100 * 4 * 12 == 4800
    assert world.dropped_places == 0


def test_same_seed_is_bit_identical():
    a = generate_city(SMALL)
    b = generate_city(SMALL)
    assert [r.id for r in a.records] == [r.id for r in b.records]
    assert [(r.pose.east, r.pose.north, r.pose.heading) for r in a.records] == [
        (r.pose.east, r.pose.north, r.pose.heading) for r in b.records
    ]
    for rid in a.features:
        np.testing.assert_array_equal(a.features[rid], b.features[rid])
    different = generate_city(dataclasses.replace(SMALL, seed=12))
    assert [r.pose.east for r in a.records] != [r.pose.east for r in different.records]


def test_generator_stream_is_pinned():
    # Poses are generator draws and plain IEEE arithmetic, so these values hold on
    # any machine; drawing in another order, or another number of draws, moves them.
    world = generate_city(CityConfig(seed=5, extent_m=100.0, place_spacing_m=20.0, cell_size_m=15.0,
                                     headings_per_place=6, nuisance_dim=2, nuisance_sigma=0.5))
    assert world.dropped_places == 9
    assert len(world.records) == 1152
    first, last = world.records[0], world.records[-1]
    assert (first.id, first.pose) == ("p0000h00i000", GeoPose(550005.843202138, 4180005.6858921773, 12.698468558249878))
    assert (last.id, last.pose) == ("p0015h05i011", GeoPose(550070.1386834594, 4180064.873785056, 320.37661974957393))


# Every branch of the per-image stream: with and without nuisance draws, with and without a
# domain shift, one and six headings (bins shared by two slots too), one image per slot, odd
# map shapes, latents from the QR and from the repelling path, and an extent that drops places.
PER_IMAGE_CONFIGS = {
    "no_nuisance": SMALL,
    "nuisance_dim_without_sigma": dataclasses.replace(SMALL, nuisance_dim=3, nuisance_sigma=0.0),
    "nuisance_without_shift": dataclasses.replace(SMALL, nuisance_dim=5, nuisance_sigma=0.7, feature_map_shape=(5, 3, 1)),
    "nuisance_and_shift": dataclasses.replace(SMALL, nuisance_dim=2, nuisance_sigma=0.5, domain_shift_sigma=0.3,
                                              feature_map_shape=(7, 1, 3), seed=3),
    "one_heading": dataclasses.replace(SMALL, headings_per_place=1, images_per_place_heading=5, latent_dim=16,
                                       domain_shift_sigma=0.1),
    "six_headings_one_image": dataclasses.replace(SMALL, headings_per_place=6, images_per_place_heading=1,
                                                  nuisance_dim=4, nuisance_sigma=2.5, domain_shift_sigma=0.05),
    "shared_heading_bins": dataclasses.replace(SMALL, heading_bin_deg=90.0, headings_per_place=6, noise_sigma=0.0),
    "dropped_places": CityConfig(seed=5, extent_m=100.0, place_spacing_m=20.0, cell_size_m=15.0, headings_per_place=6,
                                 nuisance_dim=2, nuisance_sigma=0.5),
}


@pytest.mark.parametrize("cfg", PER_IMAGE_CONFIGS.values(), ids=PER_IMAGE_CONFIGS)
def test_generate_city_equals_the_per_image_generator_bit_for_bit(cfg):
    ids, poses, block, query_block, latents, latent_key_of, max_cross, dropped = generate_city_per_image(
        cfg, synth._spread_unit_vectors)
    world = generate_city(cfg)
    assert [r.id for r in world.records] == world.features.ids == world.query_features.ids == ids
    got = np.array([(r.pose.east, r.pose.north, r.pose.heading) for r in world.records])
    np.testing.assert_array_equal(got.view(np.uint64), np.array(poses).view(np.uint64))
    assert {(r.zone_number, r.hemisphere, r.source_uri, r.lat, r.lon) for r in world.records} == {
        (SYNTH_ZONE_NUMBER, "north", None, None, None)}
    assert world.features.block.dtype == block.dtype == np.float32
    np.testing.assert_array_equal(world.features.block.view(np.uint32), block.view(np.uint32))
    np.testing.assert_array_equal(world.query_features.block.view(np.uint32), query_block.view(np.uint32))
    assert (world.query_features is world.features) == (query_block is block)
    assert list(world.latent_key_of.items()) == list(latent_key_of.items())
    assert list(world.latents) == list(latents)
    for key, vector in latents.items():
        np.testing.assert_array_equal(world.latents[key].view(np.uint64), vector.view(np.uint64))
    assert repr(world.max_cross_similarity) == repr(max_cross)
    assert world.dropped_places == dropped


def test_noiseless_world_has_identical_same_class_maps():
    cfg = dataclasses.replace(SMALL, noise_sigma=0.0)
    world = generate_city(cfg)
    by_key = {}
    for rid, key in world.latent_key_of.items():
        by_key.setdefault(key, []).append(rid)
    for ids in by_key.values():
        base = world.features[ids[0]]
        for rid in ids[1:]:
            np.testing.assert_array_equal(world.features[rid], base)


def test_same_class_images_share_a_class_of_the_aligned_partition():
    world = generate_city(SMALL)
    pcfg = aligned_partition_config(SMALL)
    for rid, key in world.latent_key_of.items():
        rec = next(r for r in world.records if r.id == rid)
        cid = assign_class(rec.pose, pcfg)
        # Every record of one (place, heading bin) quantizes identically.
        others = [r for r in world.records if world.latent_key_of[r.id] == key]
        assert all(assign_class(o.pose, pcfg) == cid for o in others)


def test_positions_and_headings_inside_bounds():
    world = generate_city(SMALL)
    from geoloc.synth import SYNTH_EAST_OFFSET, SYNTH_NORTH_OFFSET

    for r in world.records:
        assert 0.0 <= r.pose.heading < 360.0
        assert 0.0 <= r.pose.east - SYNTH_EAST_OFFSET <= SMALL.extent_m
        assert 0.0 <= r.pose.north - SYNTH_NORTH_OFFSET <= SMALL.extent_m
        assert r.zone_number == SYNTH_ZONE_NUMBER


def test_oracle_descriptor_shared_and_unit():
    world = generate_city(SMALL)
    by_key = {}
    for rid, key in world.latent_key_of.items():
        by_key.setdefault(key, []).append(rid)
    for ids in by_key.values():
        d0 = oracle_descriptor(world, ids[0])
        assert abs(np.linalg.norm(d0) - 1.0) < 1e-9
        for rid in ids[1:]:
            np.testing.assert_array_equal(oracle_descriptor(world, rid), d0)
    with pytest.raises(DomainError):
        oracle_descriptor(world, "missing")


def test_latents_are_separated():
    world = generate_city(SMALL)
    assert world.max_cross_similarity < 0.95


def test_latents_orthogonal_when_dimension_allows():
    # 9 places x 1 heading = 9 latents in a 16-dim space: exact orthogonality.
    cfg = CityConfig(extent_m=60.0, place_spacing_m=20.0, headings_per_place=1,
                     images_per_place_heading=2, latent_dim=16, feature_map_shape=(4, 1, 1),
                     noise_sigma=0.0, seed=3)
    world = generate_city(cfg)
    assert len(world.latents) == 9
    assert abs(world.max_cross_similarity) < 1e-9
    vecs = np.stack(list(world.latents.values()))
    gram = vecs @ vecs.T
    assert np.abs(gram - np.eye(len(vecs))).max() < 1e-9


def test_oracle_descriptors_give_perfect_recall():
    world = generate_city(SMALL)
    descriptors = np.stack([oracle_descriptor(world, r.id) for r in world.records])
    index = build_index(descriptors, [r.id for r in world.records], [r.pose for r in world.records])
    # Query every record against the full database: its own entry is rank 1.
    queries = [(descriptors[i], world.records[i].pose) for i in range(0, len(world.records), 7)]
    report = recall_at_n(index, queries, ks=(1,), threshold_m=25.0)
    assert report.recall_at[1] == 1.0


def test_oracle_recall_unaffected_by_noise_and_domain_shift():
    # Latents are noise-free, so the oracle keeps perfect recall no matter
    # how noisy the feature maps are.
    cfg = dataclasses.replace(SMALL, noise_sigma=0.8, domain_shift_sigma=0.8, nuisance_dim=2,
                              nuisance_sigma=2.0)
    world = generate_city(cfg)
    descriptors = np.stack([oracle_descriptor(world, r.id) for r in world.records])
    index = build_index(descriptors, [r.id for r in world.records], [r.pose for r in world.records])
    queries = [(descriptors[i], world.records[i].pose) for i in range(0, len(world.records), 5)]
    assert recall_at_n(index, queries, ks=(1,), threshold_m=25.0).recall_at[1] == 1.0


def test_domain_shift_only_touches_query_maps():
    cfg = dataclasses.replace(SMALL, domain_shift_sigma=0.2)
    world = generate_city(cfg)
    assert any(
        np.abs(world.query_features[rid] - world.features[rid]).max() > 0.0 for rid in world.features
    )
    plain = generate_city(SMALL)
    assert plain.query_features is plain.features


def test_extent_too_small_is_rejected():
    with pytest.raises(DomainError):
        CityConfig(extent_m=5.0, place_spacing_m=10.0)


def test_pairwise_check_clean_world():
    world = generate_city(SMALL)
    part = build_partition(world.rows, aligned_partition_config(SMALL))
    assert oracle_pairwise_check(world, part) == []


def test_pairwise_check_reports_corrupted_group_assignment():
    world = generate_city(SMALL)
    part = build_partition(world.rows, aligned_partition_config(SMALL))
    victim = next(iter(part.class_members))
    correct = next(g for g, classes in part.group_classes.items() if victim in classes)
    wrong = next(g for g in part.group_classes if g != correct and part.group_classes[g])
    part.group_classes[correct].remove(victim)
    part.group_classes[wrong].append(victim)
    violations = oracle_pairwise_check(world, part)
    assert violations, "corruption must be detected"
    assert any(v.kind == "group-assignment" for v in violations)
    for v in violations:
        assert victim in v.classes


def test_pairwise_check_skips_adjacency_for_unit_strides():
    world = generate_city(SMALL)
    pcfg = aligned_partition_config(SMALL, cell_stride=1, heading_stride=1)
    part = build_partition(world.rows, pcfg)
    assert oracle_pairwise_check(world, part) == []


def test_world_export_and_reload(tmp_path):
    world = generate_city(SMALL)
    paths = write_world(world, tmp_path)
    from geoloc.ingest import load_manifest

    records = load_manifest(paths["manifest"])
    assert [r.id for r in records] == [r.id for r in world.records]
    store = load_features(paths["features"])
    assert set(store) == set(world.features)
    np.testing.assert_allclose(store[records[0].id], world.features[records[0].id])
    latents = load_features(paths["latents"])
    np.testing.assert_allclose(latents[records[0].id], oracle_descriptor(world, records[0].id))


def test_float32_world_stores_load_bitwise_equal_to_the_world(tmp_path):
    world = generate_city(dataclasses.replace(SMALL, domain_shift_sigma=0.2))
    paths = write_world(world, tmp_path)
    for name, expected in (("features", world.features), ("query_features", world.query_features)):
        store = load_features(paths[name])
        assert store.ids == expected.ids
        assert expected.block.dtype == store.block.dtype == np.float32
        assert np.array_equal(store.block, expected.block)
    with np.load(paths["latents"]) as latents:
        assert {latents[key].dtype for key in latents.files} == {np.dtype(np.float64)}
    latents = load_features(paths["latents"])
    assert latents.ids == [r.id for r in world.records]
    for rid in latents.ids:
        assert latents[rid].tobytes() == oracle_descriptor(world, rid).tobytes()


def test_equal_worlds_write_byte_identical_stores(tmp_path, monkeypatch):
    world = generate_city(SMALL)
    first = write_world(world, tmp_path / "today")
    real = time.time
    monkeypatch.setattr(time, "time", lambda: real() + 86400.0)
    second = write_world(world, tmp_path / "tomorrow")
    for name in ("features", "query_features", "latents"):
        assert filecmp.cmp(first[name], second[name], shallow=False), name


def test_write_world_needs_neither_np_savez_nor_zipfile(tmp_path, monkeypatch):
    # Their per-member cost was most of a desk world's export; the stores have their own writer.
    def refuse(*args, **kwargs):
        raise AssertionError("write_world called np.savez, np.lib.format.write_array or zipfile.ZipFile")

    for owner, name in ((np, "savez"), (np.lib.format, "write_array"), (zipfile, "ZipFile")):
        monkeypatch.setattr(owner, name, refuse)
    world = generate_city(SMALL)
    paths = write_world(world, tmp_path)
    monkeypatch.undo()
    store = load_features(paths["features"])
    assert store.ids == world.features.ids and np.array_equal(store.block, world.features.block)


def test_store_writer_zip64_records_load_bit_equal(tmp_path, monkeypatch):
    # Past 65 535 members or 4 GiB the writer adds zip64 records; lowering its limits makes
    # it write them for a small world: a zip64 end record, and zip64 offsets past byte 64.
    world = generate_city(dataclasses.replace(SMALL, domain_shift_sigma=0.2))
    monkeypatch.setattr(synth, "_ZIP32_MEMBERS", 1)
    monkeypatch.setattr(synth, "_ZIP32_BYTES", 64)
    paths = write_world(world, tmp_path)
    latents = np.stack([oracle_descriptor(world, r.id) for r in world.records])
    for name, ids, block in (("features", world.features.ids, world.features.block),
                             ("query_features", world.query_features.ids, world.query_features.block),
                             ("latents", [r.id for r in world.records], latents)):
        blob = paths[name].read_bytes()
        assert blob[-98:-94] == b"PK\x06\x06" and blob[-42:-38] == b"PK\x06\x07"
        assert struct.unpack_from("<HHII", blob, len(blob) - 14) == (0xFFFF, 0xFFFF, 0xFFFFFFFF, 0xFFFFFFFF)
        with zipfile.ZipFile(paths[name]) as zf:
            assert [info.extra[:4] for info in zf.infolist()] == [b""] + [b"\x01\x00\x08\x00"] * (len(ids) - 1)
        store = load_features(paths[name])
        assert store.ids == ids and store.block.dtype == block.dtype and store.block.tobytes() == block.tobytes()
        with np.load(paths[name]) as loaded:
            assert loaded.files == ids
            for i, rid in enumerate(ids):
                assert loaded[rid].dtype == block.dtype and loaded[rid].tobytes() == block[i].tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_store_rejects_a_non_finite_map_naming_its_record(tmp_path, bad):
    block = np.ones((4, 2, 1, 1), dtype=np.float32)
    block[2, 1, 0, 0] = bad
    with pytest.raises(DomainError, match="'r2'"):
        FeatureStore(["r0", "r1", "r2", "r3"], block)
    path = tmp_path / "store.npz"
    np.savez(path, **{f"r{i}": block[i] for i in range(4)})
    with pytest.raises(DomainError, match=re.escape(str(path)) + ".*'r2'"):
        load_features(path)
    assert len(load_features(path, ["r0", "r3"])) == 2  # a load without the bad map succeeds


def test_store_rejects_maps_that_are_not_real_numbers():
    with pytest.raises(DomainError, match="real numbers"):
        FeatureStore(["a"], np.array([[[["1.5"]]]]))


@pytest.mark.parametrize("char", [b"z", b"'"])
def test_load_features_rejects_a_mangled_npy_header(tmp_path, char):
    path = tmp_path / "store.npz"
    np.savez(path, a=np.ones((8, 2, 2)), b=np.ones((8, 2, 2)))
    blob = path.read_bytes()
    at = blob.index(b"{", zipfile.ZipFile(io.BytesIO(blob)).getinfo("b.npy").header_offset)
    path.write_bytes(blob[:at] + char + blob[at + 1 :])
    with pytest.raises(DomainError, match="cannot read feature store"):
        load_features(path)


def _npy_bytes(array, version=None):
    fh = io.BytesIO()
    np.lib.format.write_array(fh, array, version=version)
    return fh.getvalue()


def _store_of_member_bytes(path, members):
    """A stored ``.npz`` whose member ``<key>.npy`` holds ``members[key]`` as it is."""
    with zipfile.ZipFile(path, "w") as zf:
        for key, data in members.items():
            zf.writestr(f"{key}.npy", data)


def test_load_features_reads_a_member_with_a_version_2_npy_header(tmp_path):
    rng = np.random.default_rng(5)
    arrays = {"a": rng.standard_normal((3, 2, 2)), "b": rng.standard_normal((3, 2, 2))}
    path = tmp_path / "store.npz"
    blobs = {"a": _npy_bytes(arrays["a"], (2, 0)), "b": _npy_bytes(arrays["b"])}
    assert blobs["a"][6:8] == b"\x02\x00" and blobs["b"][6:8] == b"\x01\x00"
    _store_of_member_bytes(path, blobs)
    store = load_features(path)
    with np.load(path) as reference:
        for key, value in arrays.items():
            np.testing.assert_array_equal(reference[key], value)
            np.testing.assert_array_equal(store[key], value)


def test_load_features_rejects_a_member_without_the_npy_magic(tmp_path):
    path = tmp_path / "store.npz"
    _store_of_member_bytes(path, {"a": _npy_bytes(np.ones((3, 2, 2))), "b": b"NUMPY, but no magic"})
    with pytest.raises(DomainError, match=r"cannot read feature store .*: member 'b\.npy' is not an \.npy array"):
        load_features(path)


@pytest.mark.parametrize("extra", [-8, 8], ids=["short", "long"])
def test_load_features_rejects_a_member_whose_data_disagrees_with_its_header(tmp_path, extra):
    array = np.ones((3, 2, 2))
    blob = _npy_bytes(array)
    path = tmp_path / "store.npz"
    _store_of_member_bytes(path, {"a": _npy_bytes(array), "b": blob[:extra] if extra < 0 else blob + bytes(extra)})
    with pytest.raises(DomainError, match=rf"member 'b' holds {array.nbytes + extra} data bytes, its header says {array.nbytes}"):
        load_features(path)


@pytest.mark.parametrize("dtype", ["<f8", ">f4"])
def test_load_features_subset_matches_np_load(tmp_path, dtype):
    rng = np.random.default_rng(3)
    arrays = {f"r{i}": rng.standard_normal((3, 2, 4)).astype(dtype) for i in range(6)}
    arrays["r1"] = np.asfortranarray(arrays["r1"])
    arrays["r4"] = np.asfortranarray(arrays["r4"])
    path = tmp_path / "store.npz"
    np.savez(path, **arrays)
    wanted = ["r4", "r0", "r1"]
    got = load_features(path, wanted)
    assert list(got) == wanted
    with np.load(path) as reference:
        assert reference["r1"].flags.f_contiguous and not reference["r1"].flags.c_contiguous
        for key in wanted:
            assert got[key].dtype == reference[key].dtype
            assert got[key].shape == reference[key].shape
            np.testing.assert_array_equal(got[key], reference[key])


def test_load_features_all_members_and_repeated_ids(tmp_path):
    arrays = {f"r{i}": np.full((2, 1, 1), float(i)) for i in range(4)}
    path = tmp_path / "store.npz"
    np.savez(path, **arrays)
    everything = load_features(path)
    assert set(everything) == set(arrays)
    for key, value in arrays.items():
        np.testing.assert_array_equal(everything[key], value)
    repeated = load_features(path, ["r2", "r3", "r2", "r2"])
    assert list(repeated) == ["r2", "r3"]
    assert sum(a.nbytes for a in repeated.values()) == 2 * arrays["r2"].nbytes
    assert load_features(path, []) == {}


def test_store_rows_index_its_block_and_name_an_absent_id(tmp_path):
    arrays = {f"r{i}": np.full((2, 1, 1), float(i)) for i in range(4)}
    path = tmp_path / "store.npz"
    np.savez(path, **arrays)
    store = load_features(path, ["r3", "r1", "r2"])
    rows = store.rows(["r2", "r3", "r2"])
    np.testing.assert_array_equal(store.block[rows], np.stack([arrays["r2"], arrays["r3"], arrays["r2"]]))
    assert store["r1"].base is store.block
    with pytest.raises(ManifestError, match="'r0'"):
        store.rows(["r1", "r0"])


def test_load_features_reads_a_compressed_store_like_np_load(tmp_path):
    rng = np.random.default_rng(4)
    arrays = {f"r{i}": rng.standard_normal((3, 2, 4)) for i in range(5)}
    arrays["r2"] = np.asfortranarray(arrays["r2"])
    path = tmp_path / "store.npz"
    np.savez_compressed(path, **arrays)
    with zipfile.ZipFile(path) as zf:
        assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_DEFLATED}
    wanted = ["r3", "r2", "r0"]
    got = load_features(path, wanted)
    assert list(got) == wanted
    with np.load(path) as reference:
        for key in wanted:
            np.testing.assert_array_equal(got[key], reference[key])


def _flip_last_data_byte(path, member):
    """Flip the last data byte of one stored member, leaving its CRC stale."""
    blob = path.read_bytes()
    info = zipfile.ZipFile(io.BytesIO(blob)).getinfo(member)
    name_len, extra_len = struct.unpack_from("<HH", blob, info.header_offset + 26)
    last = info.header_offset + 30 + name_len + extra_len + info.compress_size - 1
    path.write_bytes(blob[:last] + bytes([blob[last] ^ 0x01]) + blob[last + 1 :])


def test_load_features_rejects_a_crc_flip_in_a_fortran_member(tmp_path):
    arrays = {f"r{i}": np.asfortranarray(np.arange(24.0).reshape(3, 2, 4) + i) for i in range(3)}
    path = tmp_path / "store.npz"
    np.savez(path, **arrays)
    _flip_last_data_byte(path, "r1.npy")
    with pytest.raises(DomainError, match="CRC"):
        load_features(path)


def _gem_pooling(channels):
    """GeM pooling of ``channels``-channel maps at p = 3, counting the maps of each call in ``calls``."""
    calls = []

    def reduce(maps):
        calls.append(len(maps))
        assert maps.shape[1] == channels
        return embed.pool(maps, embed.GEM, 3.0)

    return reduce, calls


CHUNK_PLUS_ONE = [f"r{i}" for i in range(REDUCE_CHUNK_ROWS + 1)]


@pytest.mark.parametrize("save", [np.savez, np.savez_compressed], ids=["stored", "deflated"])
@pytest.mark.parametrize("dtype", ["<f4", ">f8"])
@pytest.mark.parametrize(
    "ids",
    [None, CHUNK_PLUS_ONE[::-3], ["r5", "r1", "r5", "r5", "r0"], []],
    ids=["all-chunk-plus-one", "subset", "repeated", "none"],
)
def test_reducing_load_equals_reducing_the_loaded_block(tmp_path, save, dtype, ids):
    rng = np.random.default_rng(21)
    arrays = {rid: rng.standard_normal((3, 2, 4)).astype(dtype) for rid in CHUNK_PLUS_ONE}
    for rid in CHUNK_PLUS_ONE[1::4]:
        arrays[rid] = np.asfortranarray(arrays[rid])
    path = tmp_path / "store.npz"
    save(path, **arrays)
    reduce, calls = _gem_pooling(3)
    got = load_features(path, ids, reduce=reduce)
    loaded = load_features(path, ids)
    assert got.ids == loaded.ids
    assert all(n <= REDUCE_CHUNK_ROWS for n in calls)
    assert sum(calls) == len(loaded)
    want = loaded.block if ids == [] else reduce(loaded.block)  # with no ids, neither load reads a map
    assert (got.block.dtype, got.block.shape) == (want.dtype, want.shape)
    assert got.block.tobytes() == want.tobytes()


def _store_error(path, ids, reduce):
    with pytest.raises((DomainError, ManifestError)) as caught:
        load_features(path, ids, reduce=reduce)
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize("fault", ["crc", "mixed-layouts", "missing-id", "nan", "nan-then-mixed-layouts"])
def test_reducing_load_keeps_the_loader_errors(tmp_path, fault):
    arrays = {f"r{i}": np.full((2, 1, 1), float(i), dtype=np.float32) for i in range(4)}
    if fault == "nan-then-mixed-layouts":
        # A non-finite map in the first staged chunk and a layout fault in the second:
        # every load checks a chunk before it reads the next, so both name the map.
        arrays = {f"r{i:02d}": np.full((2, 1, 1), float(i), dtype=np.float32) for i in range(REDUCE_CHUNK_ROWS + 8)}
        arrays["r01"][1, 0, 0] = np.nan
        arrays["r35"] = np.ones((3, 1, 1), dtype=np.float32)
    ids = list(arrays)
    if fault == "mixed-layouts":
        arrays["r2"] = np.ones((3, 1, 1), dtype=np.float32)
    elif fault == "missing-id":
        ids.append("r9")
    elif fault == "nan":
        arrays["r2"][1, 0, 0] = np.nan
    path = tmp_path / "store.npz"
    np.savez(path, **arrays)
    if fault == "crc":
        _flip_last_data_byte(path, "r1.npy")
    reduce, _ = _gem_pooling(2)
    error = _store_error(path, ids, None)
    assert _store_error(path, ids, reduce) == error
    expected = {
        "crc": (DomainError, "Bad CRC-32 for member 'r1'"),
        "mixed-layouts": (DomainError, "mixes member layouts: 'r2' is float32[3, 1, 1]"),
        "missing-id": (ManifestError, "has no entry for record 'r9'"),
        "nan": (DomainError, f"feature store {path}: feature map of record 'r2' contains non-finite values"),
        "nan-then-mixed-layouts": (
            DomainError, f"feature store {path}: feature map of record 'r01' contains non-finite values"
        ),
    }[fault]
    assert error[0] is expected[0] and expected[1] in error[1]


def _write_store_member_by_member(path, count, shape):
    """A stored ``.npz`` of ``count`` float32 maps, written without holding them all."""
    base = np.random.default_rng(22).random(shape, dtype=np.float32)
    with zipfile.ZipFile(path, "w") as zf:
        for i in range(count):
            with zf.open(f"r{i:05d}.npy", "w") as fh:
                np.lib.format.write_array(fh, base + np.float32(i))
    return count * base.nbytes


def test_reducing_load_never_holds_the_map_block(tmp_path, traced_peak):
    # numpy reports its buffers to tracemalloc. The staging chunk, the GeM
    # temporaries, the read buffer and the zip directory stay well below a
    # quarter of this 32 MiB block; loading the block first holds all of it.
    path = tmp_path / "store.npz"
    block_bytes = _write_store_member_by_member(path, 2048, (16, 16, 16))
    reduce, _ = _gem_pooling(16)
    pooled, peak = traced_peak(lambda: load_features(path, reduce=reduce))
    assert pooled.block.shape == (2048, 16)
    assert peak < block_bytes / 4, f"peak {peak} bytes for a {block_bytes}-byte map block"


@pytest.mark.parametrize("given", [False, True], ids=["all-members", "ids"])
def test_load_features_holds_little_per_member(tmp_path, traced_peak, given):
    # A Python object per member beyond its name (zipfile's ZipInfo took ~700 B)
    # would pass this bound over what the returned store itself keeps.
    count = 5000
    path = tmp_path / "store.npz"
    _write_store_member_by_member(path, count, (2, 1, 1))
    ids = [f"r{i:05d}" for i in range(count)] if given else None
    store, peak = traced_peak(lambda: load_features(path, ids))
    assert store.block.shape == (count, 2, 1, 1)
    _, kept = traced_peak(
        lambda: FeatureStore(ids or [f"r{i:05d}" for i in range(count)], np.zeros((count, 2, 1, 1), np.float32))
    )
    assert (peak - kept) / count <= 320, f"{(peak - kept) / count:.0f} B per member above the store's {kept} B"


def test_a_store_holds_little_beyond_its_ids_and_block(traced_peak):
    # Its own list of the ids costs 8 B per id; an id -> row dict built up front
    # would cost ~56 B more. The bound, 16 B per id, is fixed in advance.
    count = 20_000
    ids, block = [f"r{i:05d}" for i in range(count)], np.zeros((count, 4))
    store, peak = traced_peak(lambda: FeatureStore(ids, block))
    assert peak / count <= 16, f"{peak / count:.1f} B per id"
    assert store.rows(["r00007", "r19999"]).tolist() == [7, 19999] and store["r00003"] is not None
    with pytest.raises(ManifestError, match="feature store has no entry for record 'nope'"):
        store.rows(["r00001", "nope"])


def _zip64_store(path, arrays, monkeypatch):
    """``np.savez`` of ``arrays`` with zip64 end records and zip64 central directory fields.

    ``zipfile`` writes those past 4 GiB or 65 535 members; lowering its limits
    makes it write them for a small store. The end record then holds
    0xFFFF/0xFFFFFFFF placeholders, as it must past those limits.
    """
    with monkeypatch.context() as patch:
        patch.setattr(zipfile, "ZIP64_LIMIT", 64)
        patch.setattr(zipfile, "ZIP_FILECOUNT_LIMIT", 1)
        np.savez(path, **arrays)
    blob = bytearray(path.read_bytes())
    assert blob[-98:-94] == b"PK\x06\x06" and blob[-42:-38] == b"PK\x06\x07"
    struct.pack_into("<HHII", blob, len(blob) - 14, 0xFFFF, 0xFFFF, 0xFFFFFFFF, 0xFFFFFFFF)
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize(
    "layout", ["comment", "zip64", "deflated", "fortran", "big-endian", "prefixed", "sparse-ids"]
)
def test_load_features_reads_what_np_load_reads(tmp_path, monkeypatch, layout):
    rng = np.random.default_rng(23)
    arrays = {f"r{i:03d}": rng.standard_normal((3, 2, 4)).astype("<f4") for i in range(3 * REDUCE_CHUNK_ROWS)}
    if layout == "fortran":
        arrays = {rid: np.asfortranarray(a) if i % 3 else a for i, (rid, a) in enumerate(arrays.items())}
    elif layout == "big-endian":
        arrays = {rid: a.astype(">f8") for rid, a in arrays.items()}
    path = tmp_path / "store.npz"
    if layout == "zip64":
        _zip64_store(path, arrays, monkeypatch)
    else:
        (np.savez_compressed if layout == "deflated" else np.savez)(path, **arrays)
    if layout == "comment":
        with zipfile.ZipFile(path, "a") as zf:
            zf.comment = b"an archive comment " * 20
    elif layout == "prefixed":  # as a self-extracting archive starts with its extractor
        path.write_bytes(b"#!/bin/sh\n" * 100 + path.read_bytes())
    wanted = list(arrays)[::7][::-1] if layout == "sparse-ids" else None
    got = load_features(path, wanted)
    # np.load reads each member this way, but only from a file that starts with a member.
    with zipfile.ZipFile(path) as zf:
        assert got.ids == (wanted or [name.removesuffix(".npy") for name in zf.namelist()])
        for rid in got.ids:
            want = np.lib.format.read_array(zf.open(f"{rid}.npy"))
            assert got[rid].dtype == want.dtype
            assert got[rid].tobytes() == np.ascontiguousarray(want).tobytes()


def test_load_features_reads_a_store_whose_comment_holds_the_end_signature(tmp_path):
    # The comment's fake end record claims a central directory larger than the file. np.load
    # (zipfile) takes the last signature it finds and fails, so the arrays written are the oracle.
    arrays = {f"r{i}": np.full((2, 3, 1), float(i), dtype=np.float32) for i in range(3)}
    path = tmp_path / "store.npz"
    np.savez(path, **arrays)
    with zipfile.ZipFile(path, "a") as zf:
        zf.comment = b"a comment PK\x05\x06" + b"\xff" * 18 + b" and after it"
    store = load_features(path)
    assert store.ids == list(arrays)
    for rid, want in arrays.items():
        assert store[rid].dtype == want.dtype and np.array_equal(store[rid], want)


def _clear_utf8_flag(blob, name):
    """``blob`` with the UTF-8 name flag of member ``name`` cleared, so its name bytes read as code page 437."""
    blob, raw = bytearray(blob), name.encode("utf-8")
    for signature, flags_at, name_at in ((b"PK\x03\x04", 6, 30), (b"PK\x01\x02", 8, 46)):
        at = blob.find(signature)
        while at >= 0:
            if blob[at + name_at : at + name_at + len(raw)] == raw:
                struct.pack_into("<H", blob, at + flags_at, struct.unpack_from("<H", blob, at + flags_at)[0] & ~0x800)
            at = blob.find(signature, at + 4)
    return bytes(blob)


@pytest.mark.parametrize("archive", ["savez", "own-writer", "deflated", "zip64", "prefixed", "comment", "names"])
def test_central_directory_matches_zipfile(tmp_path, monkeypatch, archive):
    # Names of 1 to 44 bytes; "names" adds a UTF-8-flagged name and a non-ASCII one without the flag.
    rng = np.random.default_rng(41)
    ids = ["a", "r07", "b" * 12, "a-much-longer-record-name-of-forty-chars", *(f"r{i:03d}" for i in range(40))]
    arrays = {rid: rng.standard_normal((2, 3, 1)).astype(np.float32) for rid in ids}
    path = read_by_zipfile = tmp_path / "store.npz"
    if archive == "savez":
        np.savez(path, **arrays)
    elif archive == "own-writer":
        with open(path, "wb") as fh:
            synth._write_store(fh, ids, np.stack(list(arrays.values())))
    elif archive == "deflated":
        np.savez_compressed(path, **arrays)
    elif archive == "zip64":
        _zip64_store(path, arrays, monkeypatch)
    elif archive == "prefixed":
        np.savez(path, **arrays)
        path.write_bytes(b"bytes before the archive" + path.read_bytes())
    elif archive == "comment":
        # zipfile takes the comment's signature for the end record and fails, so it reads the
        # archive as it was before the comment went in; the comment moves no member.
        read_by_zipfile = tmp_path / "plain.npz"
        np.savez(read_by_zipfile, **arrays)
        path.write_bytes(read_by_zipfile.read_bytes())
        with zipfile.ZipFile(path, "a") as zf:
            zf.comment = b"a comment PK\x05\x06" + b"\xff" * 18 + b" and after it"
    else:
        with zipfile.ZipFile(path, "w") as zf:
            for name in ("café.npy", "ïdx.npy", *(f"{rid}.npy" for rid in ids[:4])):
                zf.writestr(name, b"not read here")
        path.write_bytes(_clear_utf8_flag(path.read_bytes(), "ïdx.npy"))
    with open(path, "rb") as fh:
        names, table, csize, usize, offsets, _ = synth._central_directory(fh)
    index = dict(zip(synth._member_names(names, table), range(len(table))))
    got = [(name, int(offsets[row]), int(csize[row]), int(usize[row]), int(table["crc"][row]))
           for name, row in index.items()]
    want = zip_members(read_by_zipfile)
    assert got == want
    if archive == "names":
        assert [name for name, *_ in want][:2] == ["café.npy", "ïdx.npy".encode("utf-8").decode("cp437")]


def _directory_entries(blob):
    """Offsets in ``blob`` of its central directory entries, walked from the end record (no comment, no zip64 end)."""
    cd_size, cd_offset = struct.unpack_from("<II", blob, len(blob) - 10)
    at, entries = len(blob) - 22 - cd_size, []
    while at < len(blob) - 22:
        entries.append(at)
        at += 46 + sum(struct.unpack_from("<HHH", blob, at + 28))
    return entries


@pytest.mark.parametrize("sizes", ["equal", "mixed"])
@pytest.mark.parametrize(
    "case", ["repeated", "stray", "bad-signature-then-version", "zip64", "prefixed", "utf8-name", "cp437-name"]
)
def test_array_directory_matches_zipfile(tmp_path, monkeypatch, sizes, case):
    # Entries of one size are read off one reshape of the directory, others by the walk; either way
    # the entries are zipfile's, a repeated name loads its last entry and faults keep their text.
    ids = [f"r{i:03d}" for i in range(40)] + (["a-longer-id"] if sizes == "mixed" else [])
    if case == "utf8-name" or case == "cp437-name":
        ids[3] = "é00"  # two bytes in UTF-8: the same length as the other names
    members = [(f"{rid}.npy", np.full((2, 1, 1), i, dtype=np.float32)) for i, rid in enumerate(ids)]
    if case == "repeated":
        members.append((members[5][0], np.full((2, 1, 1), -1.0, dtype=np.float32)))
    elif case == "stray":
        members.insert(7, ("r999.txt", np.zeros((2, 1, 1), dtype=np.float32)))
    path = tmp_path / "store.npz"
    with monkeypatch.context() as patch, pytest.warns(UserWarning) if case == "repeated" else nullcontext():
        if case == "zip64":  # zip64 sizes and offsets in every entry's extra field
            patch.setattr(zipfile, "ZIP64_LIMIT", -1)
        with zipfile.ZipFile(path, "w") as zf:
            for name, array in members:
                with zf.open(name, "w") as fh:
                    np.lib.format.write_array(fh, array)
    blob = path.read_bytes()
    if case == "cp437-name":
        blob = _clear_utf8_flag(blob, "é00.npy")
    elif case == "bad-signature-then-version":
        entries = _directory_entries(blob)
        blob = bytearray(blob)
        blob[entries[2] + 3] ^= 0xFF
        blob[entries[9] + 6] = 64
    elif case == "prefixed":
        blob = b"#!/bin/sh\n" * 30 + blob
    path.write_bytes(bytes(blob))

    if case == "stray":
        for wanted in (None, ["r001"]):
            with pytest.raises(DomainError) as exc:
                load_features(path, wanted)
            assert str(exc.value) == f"feature store {path}: member 'r999.txt' is not an .npy array"
        return
    if case == "bad-signature-then-version":
        with pytest.raises(DomainError) as exc:
            load_features(path)
        assert str(exc.value) == f"cannot read feature store {path}: bad central directory entry"
        return
    with open(path, "rb") as fh:
        names, table, csize, usize, offsets, _ = synth._central_directory(fh)
    assert (len({tuple(lengths) for lengths in table["lengths"].tolist()}) == 1) == (sizes == "equal")
    got = [(name, int(offsets[row]), int(csize[row]), int(usize[row]), int(table["crc"][row]))
           for row, name in enumerate(synth._member_names(names, table))]
    assert got == zip_members(path)
    with zipfile.ZipFile(path) as zf:
        names_read = list(dict.fromkeys(zf.namelist()))
        want = {name.removesuffix(".npy"): np.lib.format.read_array(zf.open(name)) for name in names_read}
    store = load_features(path)
    assert store.ids == list(want)
    some = [list(want)[3], list(want)[5], list(want)[-1]]
    picked = load_features(path, some)
    assert picked.ids == some
    for loaded in (store, picked):
        for rid in loaded.ids:
            assert loaded[rid].tobytes() == want[rid].tobytes()
    if case == "repeated":
        assert store[ids[5]][0, 0, 0] == -1.0
    with pytest.raises(ManifestError) as exc:
        load_features(path, ["r001", "r0", "r001.npy"])
    assert str(exc.value) == f"feature store {path} has no entry for record 'r0'"


def test_every_central_directory_byte_flip_raises_a_store_error_or_loads(tmp_path):
    shape = (2, 3, 1)
    arrays = {f"r{i}": np.full(shape, float(i), dtype=np.float32) for i in range(3)}
    path = tmp_path / "store.npz"
    np.savez(path, **arrays)
    blob = path.read_bytes()
    assert blob[-22:-18] == b"PK\x05\x06"  # the end record, with no comment
    cd_start = struct.unpack_from("<I", blob, len(blob) - 6)[0]
    mutant = tmp_path / "mutant.npz"
    for at in range(cd_start, len(blob)):
        mutant.write_bytes(blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1 :])
        try:
            store = load_features(mutant)
        except (DomainError, ManifestError):
            continue
        assert store.block.shape[1:] == shape, at
        assert np.isfinite(store.block).all(), at
