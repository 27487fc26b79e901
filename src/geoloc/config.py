"""Declarative run configuration: one file drives the whole pipeline.

The file (JSON or YAML) mirrors the nested dataclasses below; unknown keys
are rejected so a typo cannot silently fall back to a default. The resolved
config is echoed into every output artifact for provenance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any

import yaml

from .embed import ModelConfig
from .errors import ConfigError, DomainError
from .loss import LossConfig
from .partition import PartitionConfig
from .synth import CityConfig
from .train import TrainConfig


@dataclass(frozen=True)
class SplitConfig:
    """Random record-level validation split (queries and database each get ``fraction``)."""

    fraction: float = 0.1


@dataclass(frozen=True)
class EvalConfig:
    threshold_m: float = 25.0
    ks: tuple[int, ...] = (1, 5, 10, 20)

    def __post_init__(self) -> None:
        if self.threshold_m < 0:
            raise DomainError(f"threshold must be >= 0, got {self.threshold_m}")
        ks = tuple(self.ks)
        if not ks or any(k < 1 for k in ks) or list(ks) != sorted(ks):
            raise DomainError(f"ks must be positive and ascending, got {ks}")
        object.__setattr__(self, "ks", ks)


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    city: CityConfig = field(default_factory=CityConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


def _build(cls: type, data: Any, path: str) -> Any:
    if not isinstance(data, dict):
        raise ConfigError(f"config section {path or cls.__name__!r} must be a mapping, got {type(data).__name__}")
    known = {f.name: f for f in fields(cls)}
    unknown = [k for k in data if k not in known]
    if unknown:
        where = f"{path}." if path else ""
        raise ConfigError(f"unknown config key(s): {', '.join(where + k for k in sorted(unknown))}")
    kwargs = {}
    for name, value in data.items():
        f = known[name]
        key = f"{path}.{name}" if path else name
        if is_dataclass(f.type) or (isinstance(f.type, str) and f.type in _SECTION_TYPES):
            kwargs[name] = _build(_SECTION_TYPES.get(f.type, f.type), value, key)
        elif isinstance(value, list):
            kwargs[name] = tuple(value)
        else:
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, DomainError) as exc:
        raise ConfigError(f"invalid config at {path or 'top level'}: {exc}") from exc


# Dataclass fields carry string annotations (from __future__ annotations), so
# nested sections are resolved by name.
_SECTION_TYPES = {
    "PartitionConfig": PartitionConfig,
    "TrainConfig": TrainConfig,
    "CityConfig": CityConfig,
    "SplitConfig": SplitConfig,
    "EvalConfig": EvalConfig,
    "LossConfig": LossConfig,
    "ModelConfig": ModelConfig,
}


def run_config_from_dict(data: dict) -> RunConfig:
    return _build(RunConfig, data, "")


def run_config_to_dict(cfg: RunConfig) -> dict:
    def convert(value: Any) -> Any:
        if is_dataclass(value):
            return {f.name: convert(getattr(value, f.name)) for f in fields(value)}
        if isinstance(value, tuple):
            return [convert(v) for v in value]
        return value

    return convert(cfg)


def load_run_config(path: str | Path) -> RunConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        if p.suffix == ".json":
            data = json.loads(text)
        else:
            data = yaml.safe_load(text)
    except (json.JSONDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if data is None:
        data = {}
    return run_config_from_dict(data)


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """Apply ``section.key=value`` overrides onto a raw config mapping."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key.path=value")
        keypath, raw = item.split("=", 1)
        parts = [p for p in keypath.strip().split(".") if p]
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
