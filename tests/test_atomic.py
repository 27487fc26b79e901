import os

import numpy as np
import pytest

from geoloc.atomic import AtomicFile, write_atomic
from geoloc.synth import CityConfig, generate_city, load_features, write_world


def test_write_replaces_the_file_and_leaves_no_temporary(tmp_path):
    target = tmp_path / "doc.json"
    target.write_text("old\n")
    write_atomic(target, "new \u00b0\n")
    assert target.read_bytes() == "new \u00b0\n".encode("utf-8")
    write_atomic(target, b"\x00raw")
    assert target.read_bytes() == b"\x00raw"
    assert os.listdir(tmp_path) == ["doc.json"]


def test_failed_write_keeps_the_previous_file_and_no_temporary(tmp_path):
    target = tmp_path / "doc.bin"
    target.write_bytes(b"previous")
    with pytest.raises(RuntimeError, match="disk gone"):
        with AtomicFile(target, "wb") as fh:
            fh.write(b"half of the new")
            raise RuntimeError("disk gone")
    assert target.read_bytes() == b"previous"
    assert os.listdir(tmp_path) == ["doc.bin"]


def test_store_write_failing_midway_keeps_the_previous_store(tmp_path, monkeypatch):
    world = generate_city(CityConfig(extent_m=40.0, place_spacing_m=20.0, images_per_place_heading=2, seed=3))
    paths = write_world(world, tmp_path)
    before = {name: paths[name].read_bytes() for name in ("features", "query_features", "latents")}
    written = []
    real = np.lib.format.write_array

    def fail_on_third_member(fp, array, *args, **kwargs):
        written.append(1)
        if len(written) == 3:
            raise OSError("no space left on device")
        return real(fp, array, *args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", fail_on_third_member)
    with pytest.raises(OSError, match="no space"):
        write_world(world, tmp_path)
    assert paths["features"].read_bytes() == before["features"]
    assert sorted(os.listdir(tmp_path)) == sorted(p.name for p in paths.values())
    monkeypatch.undo()
    assert set(load_features(paths["features"])) == set(world.features)
