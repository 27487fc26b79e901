import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from geoloc.config import (
    DERIVED,
    EvalConfig,
    RunConfig,
    _typed,
    apply_overrides,
    load_run_config,
    run_config_from_dict,
    run_config_to_dict,
)
from geoloc.embed import ModelConfig, pool
from geoloc.errors import ConfigError, DomainError
from geoloc.partition import GeoPose
from geoloc.retrieval import build_index, recall_at_n
from geoloc.synth import CityConfig
from geoloc.train import TrainConfig


def test_documented_defaults():
    cfg = RunConfig()
    assert cfg.partition.cell_size_m == 10.0
    assert cfg.partition.heading_bin_deg == 30.0
    assert cfg.partition.cell_stride == 5
    assert cfg.partition.heading_stride == 2
    assert cfg.partition.min_images_per_class == 10
    assert cfg.train.loss.margin == 0.40
    assert cfg.train.loss.scale == 30.0
    assert cfg.train.learning_rate == 1e-5
    assert cfg.train.batch_size == 32
    assert cfg.train.iterations_per_epoch == 10_000
    assert cfg.train.total_epochs == 50
    assert cfg.train.groups_used == 8
    assert cfg.eval.threshold_m == 25.0
    assert cfg.eval.ks == (1, 5, 10, 20)


def _leaves(doc, path=()):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaves(value, (*path, key))
        else:
            yield (*path, key), value


def test_readme_config_example_shows_settable_keys_at_their_defaults():
    # A key the config no longer takes, or a default that moved, cannot stay in the documented example.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = yaml.safe_load(readme.split("## Configuration", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0])
    defaults = run_config_to_dict(RunConfig())
    assert set(example) == set(defaults)
    assert example.pop("city") == {"...": None}  # the world's keys are left to geoloc/synth.py
    for path, value in _leaves(example):
        default = defaults
        for key in path:
            assert isinstance(default, dict) and key in default, f"README shows {'.'.join(path)}, not a settable key"
            default = default[key]
        assert value == default, f"README shows {'.'.join(path)}: {value!r}, its default is {default!r}"


def test_round_trip_through_dict():
    cfg = RunConfig()
    again = run_config_from_dict(run_config_to_dict(cfg))
    assert again == cfg


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        run_config_from_dict({"partitioning": {}})
    with pytest.raises(ConfigError, match="train.lr"):
        run_config_from_dict({"train": {"lr": 0.1}})
    with pytest.raises(ConfigError, match="train.loss.margins"):
        run_config_from_dict({"train": {"loss": {"margins": 0.2}}})


def test_invalid_values_surface_as_config_errors():
    with pytest.raises(ConfigError):
        run_config_from_dict({"partition": {"heading_bin_deg": 50.0}})


def test_nested_overrides():
    raw = run_config_to_dict(RunConfig())
    apply_overrides(raw, ["train.learning_rate=0.001", "partition.cell_stride=3", "seed=9"])
    cfg = run_config_from_dict(raw)
    assert cfg.train.learning_rate == 0.001
    assert cfg.partition.cell_stride == 3
    assert cfg.seed == 9
    with pytest.raises(ConfigError, match="form"):
        apply_overrides(raw, ["no-equals-sign"])


def test_load_yaml_and_json(tmp_path):
    data = {"seed": 3, "train": {"batch_size": 8}}
    ypath = tmp_path / "c.yaml"
    ypath.write_text(yaml.safe_dump(data))
    jpath = tmp_path / "c.json"
    jpath.write_text(json.dumps(data))
    for path in (ypath, jpath):
        cfg = load_run_config(path)
        assert cfg.seed == 3
        assert cfg.train.batch_size == 8
        assert cfg.train.total_epochs == 50  # untouched defaults survive


def test_tuple_fields_accept_lists():
    cfg = run_config_from_dict({"eval": {"ks": [1, 2, 3]}, "city": {"feature_map_shape": [8, 2, 2]}})
    assert cfg.eval.ks == (1, 2, 3)
    assert cfg.city.feature_map_shape == (8, 2, 2)


def test_float_fields_store_ints_as_floats():
    cfg = run_config_from_dict({"partition": {"cell_size_m": 10}, "train": {"loss": {"scale": 30}}})
    assert type(cfg.partition.cell_size_m) is float and type(cfg.city.cell_size_m) is float
    assert json.dumps(run_config_to_dict(cfg)) == json.dumps(run_config_to_dict(RunConfig()))
    elements = _typed([1, 2.5], tuple[float, ...], "k")
    assert elements == (1.0, 2.5) and all(type(v) is float for v in elements)
    with pytest.raises(ConfigError, match="partition.cell_size_m must be float"):
        run_config_from_dict({"partition": {"cell_size_m": 10**400}})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_floats_rejected(tmp_path, bad):
    with pytest.raises(ConfigError, match=r"eval\.threshold_m must be float and finite"):
        run_config_from_dict({"eval": {"threshold_m": bad}})
    with pytest.raises(ConfigError, match=r"train\.loss\.scale must be float and finite"):
        run_config_from_dict(apply_overrides(run_config_to_dict(RunConfig()), [f"train.loss.scale={json.dumps(bad)}"]))
    for name, text in (("c.json", json.dumps({"train": {"learning_rate": bad}})),
                       ("c.yaml", yaml.safe_dump({"train": {"learning_rate": bad}}))):
        (tmp_path / name).write_text(text)
        with pytest.raises(ConfigError, match=r"train\.learning_rate must be float and finite"):
            load_run_config(tmp_path / name)
    with pytest.raises(ConfigError, match="k must be float and finite"):
        _typed([1.0, bad], tuple[float, ...], "k")


NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: TrainConfig(learning_rate=NAN), id="learning_rate"),
        pytest.param(lambda: EvalConfig(threshold_m=NAN), id="threshold_m"),
        pytest.param(lambda: ModelConfig(gem_p=NAN), id="gem_p"),
        pytest.param(lambda: CityConfig(extent_m=NAN), id="extent_m"),
        pytest.param(lambda: CityConfig(noise_sigma=NAN), id="noise_sigma"),
        pytest.param(lambda: CityConfig(heading_bin_deg=NAN), id="heading_bin_deg-nan"),
        pytest.param(lambda: CityConfig(heading_bin_deg=float("inf")), id="heading_bin_deg-inf"),
        pytest.param(lambda: pool(np.ones((2, 1, 1)), "gem", NAN), id="pool"),
        pytest.param(
            lambda: recall_at_n(build_index(np.eye(2), ["a", "b"], [GeoPose(0.0, 0.0, 0.0)] * 2),
                                [(np.eye(2)[0], GeoPose(0.0, 0.0, 0.0))], threshold_m=NAN),
            id="recall_at_n",
        ),
    ],
)
def test_library_range_checks_reject_nan(build):
    # The library types and calls check their own ranges, not only the config boundary.
    with pytest.raises(DomainError):
        build()


@pytest.mark.parametrize(
    "raw",
    [
        {"split": {"fraction": "10%"}},
        {"seed": "abc"},
        {"partition": {"cell_stride": True}},
        {"train": {"model": {"learn_gem_p": 1}}},
        {"eval": {"ks": 5}},
        {"city": {"feature_map_shape": [8, 2.5, 2]}},
    ],
)
def test_mistyped_values_rejected(raw):
    with pytest.raises(ConfigError, match="must be"):
        run_config_from_dict(raw)


def test_number_key_rejected(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("city: {extent_m: 100,0}\n")  # a mistyped decimal point makes the key 0
    with pytest.raises(ConfigError, match=r"unknown config key\(s\): city\.0"):
        load_run_config(path)


def test_derived_values_follow_their_sources():
    raw = {"eval": {"threshold_m": 7.5, "ks": [1, 20]}, "partition": {"cell_size_m": 20.0, "heading_bin_deg": 45.0}}
    cfg = run_config_from_dict(raw)
    assert (cfg.train.val_threshold_m, cfg.train.val_ks) == (7.5, (1, 20))
    assert (cfg.city.cell_size_m, cfg.city.heading_bin_deg) == (20.0, 45.0)
    echo = run_config_to_dict(cfg)
    for key in DERIVED:
        section, name = key.split(".")
        assert name not in echo[section]
        with pytest.raises(ConfigError, match=rf"unknown config key\(s\): {key}$"):
            run_config_from_dict({section: {name: 1.0}})
    assert run_config_from_dict(echo) == cfg
