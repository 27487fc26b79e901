"""Declarative run configuration: one file drives the whole pipeline.

The file (JSON or YAML) mirrors the nested dataclasses below; unknown keys
are rejected so a typo cannot silently fall back to a default. The few
values that must agree across sections are set once and derived for the
others (``DERIVED``). The resolved config is echoed into every output
artifact for provenance.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, get_args, get_origin, get_type_hints

from .errors import ConfigError, DomainError
from .partition import PartitionConfig
from .retrieval import DEFAULT_KS, DEFAULT_THRESHOLD_M
from .synth import CityConfig
from .train import TrainConfig


@dataclass(frozen=True)
class SplitConfig:
    """Random record-level validation split (queries and database each get ``fraction``)."""

    fraction: float = 0.1


@dataclass(frozen=True)
class EvalConfig:
    threshold_m: float = DEFAULT_THRESHOLD_M
    ks: tuple[int, ...] = DEFAULT_KS

    def __post_init__(self) -> None:
        if not self.threshold_m >= 0:
            raise DomainError(f"threshold must be >= 0, got {self.threshold_m}")
        ks = tuple(self.ks)
        if not ks or any(k < 1 for k in ks) or list(ks) != sorted(ks):
            raise DomainError(f"ks must be positive and ascending, got {ks}")
        object.__setattr__(self, "ks", ks)


# Values a run config derives from another section instead of accepting
# them: validation scores at the eval threshold and ks, and a synthetic world
# aligns to the grid the partition builds. Config files, overrides and echoes omit them.
DERIVED = {
    "train.val_threshold_m": "eval.threshold_m",
    "train.val_ks": "eval.ks",
    "city.cell_size_m": "partition.cell_size_m",
    "city.heading_bin_deg": "partition.heading_bin_deg",
}


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    city: CityConfig = field(default_factory=CityConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self) -> None:
        for target, source in DERIVED.items():
            section, name = target.split(".")
            source_section, source_name = source.split(".")
            value = getattr(getattr(self, source_section), source_name)
            # object.__setattr__ because the dataclass is frozen
            object.__setattr__(self, section, replace(getattr(self, section), **{name: value}))


def _key(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


# Each config class's resolved type hints: they never change, and resolving them compiles annotation strings.
_HINTS: dict[type, dict[str, Any]] = {}


def _build(cls: type, data: Any, path: str) -> Any:
    if not isinstance(data, dict):
        raise ConfigError(f"config section {path or cls.__name__!r} must be a mapping, got {type(data).__name__}")
    hints = _HINTS.get(cls) or _HINTS.setdefault(cls, get_type_hints(cls))
    known = {f.name for f in fields(cls) if _key(path, f.name) not in DERIVED}
    unknown = [str(k) for k in data if k not in known]  # YAML keys may be numbers
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(_key(path, k) for k in sorted(unknown))}")
    kwargs = {}
    for name, value in data.items():
        hint, key = hints[name], _key(path, name)
        if is_dataclass(hint):
            kwargs[name] = _build(hint, value, key)
        else:
            kwargs[name] = _typed(value, hint, key)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, DomainError) as exc:
        raise ConfigError(f"invalid config at {path or 'top level'}: {exc}") from exc


def _typed(value: Any, hint: Any, key: str) -> Any:
    """``value`` as a field of type ``hint`` stores it; ConfigError unless it fits.

    A tuple field takes a list of its element type; a bool is not a number. A
    float field stores an int as a float, so ``10`` and ``10.0`` give the same
    config and the same bytes wherever it is echoed, and rejects NaN and ±inf.
    """
    if get_origin(hint) is tuple:
        element, items = get_args(hint)[0], value if isinstance(value, list) else None
    else:
        element, items = hint, [value]
    allowed = (int, float) if element is float else (element,)
    name = str(hint) if get_origin(hint) else hint.__name__
    error = ConfigError(f"config value {key} must be {name}, got {value!r}")
    if items is None or not all(isinstance(v, allowed) and isinstance(v, bool) == (element is bool) for v in items):
        raise error
    if element is float:
        if not all(abs(v) <= sys.float_info.max for v in items):  # NaN, ±inf or an int too large for a float
            raise ConfigError(f"config value {key} must be float and finite, got {value!r}")
        items = [float(v) for v in items]
    return tuple(items) if get_origin(hint) is tuple else items[0]


def run_config_from_dict(data: dict) -> RunConfig:
    return _build(RunConfig, data, "")


def run_config_to_dict(cfg: RunConfig) -> dict:
    """The settable values of ``cfg`` as plain data; derived values are left out."""

    def convert(value: Any, path: str) -> Any:
        if is_dataclass(value):
            keys = ((f.name, _key(path, f.name)) for f in fields(value))
            return {name: convert(getattr(value, name), key) for name, key in keys if key not in DERIVED}
        if isinstance(value, tuple):
            return list(value)
        return value

    return convert(cfg, "")


def load_run_config(path: str | Path) -> RunConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if p.suffix == ".json":
        parse, errors = json.loads, json.JSONDecodeError
    else:
        import yaml  # only a YAML config loads PyYAML

        parse, errors = yaml.safe_load, yaml.YAMLError
    try:
        data = parse(text)
    except errors as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if data is None:
        data = {}
    return run_config_from_dict(data)


def key_path(text: str) -> list[str]:
    """The keys of a ``section.key`` path, outermost first."""
    return [p for p in text.strip().split(".") if p]


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """Apply ``section.key=value`` overrides onto a raw config mapping."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key.path=value")
        keypath, raw = item.split("=", 1)
        parts = key_path(keypath)
        if not parts:
            raise ConfigError(f"override {item!r} lacks a key path")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {item!r} descends into a non-mapping")
        node[parts[-1]] = value
    return data
