import os

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
    # 48 maps: the features store goes out in two chunk writes, and the second one fails.
    world = generate_city(CityConfig(extent_m=40.0, place_spacing_m=20.0, images_per_place_heading=3, seed=3))
    paths = write_world(world, tmp_path)
    before = {name: paths[name].read_bytes() for name in ("features", "query_features", "latents")}
    written = []
    real = AtomicFile.__enter__

    class FailingOnSecondWrite:
        def __init__(self, fh):
            self.fh = fh

        def write(self, data):
            written.append(1)
            if len(written) == 2:
                raise OSError("no space left on device")
            return self.fh.write(data)

    def enter(self):
        fh = real(self)
        return FailingOnSecondWrite(fh) if "b" in self.mode else fh

    monkeypatch.setattr(AtomicFile, "__enter__", enter)
    with pytest.raises(OSError, match="no space"):
        write_world(world, tmp_path)
    assert paths["features"].read_bytes() == before["features"]
    assert sorted(os.listdir(tmp_path)) == sorted(p.name for p in paths.values())
    monkeypatch.undo()
    assert set(load_features(paths["features"])) == set(world.features)
