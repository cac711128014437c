"""Run configuration: INI-style sections covering every pipeline knob.

Unknown sections or keys are rejected so typos cannot silently fall back
to defaults. Every tunable pipeline decision (filter chain and cutoffs,
envelope cutoff, segmentation parameters, model dimensions, training
hyperparameters) is a key here. `[model] activation` is a key too, whose
one accepted value is `gated`. The schema, `snapshot()` and
`load_run_config` are derived from the dataclass fields: a dataclass field
of `RunConfig` is a section, any other a `[data]` key, and each key's type
is that of its default value.
"""

from __future__ import annotations

import configparser
import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .dataio import SegmentationParams, json_is
from .errors import ConfigError
from .model import ModelConfig
from .signal import FilterChainConfig
from .train import TrainConfig

# Set by the data layout (six IMU channels in, one envelope out), not by the user.
_FIXED_FIELDS = ("in_channels", "out_channels")


def _band_keys(name: str, value):
    """The keys of a `(low, high)` cutoff pair, `<stem>_low_hz` and `<stem>_high_hz`."""
    if isinstance(value, tuple) and name.endswith("_hz"):
        stem = name[: -len("_hz")]
        return f"{stem}_low_hz", f"{stem}_high_hz"
    return None


def _flat_keys(obj, prefix: str) -> dict:
    """`obj`'s fields as flat `section.key` entries; a nested dataclass is its own section."""
    out = {}
    for f in dataclasses.fields(obj):
        if f.name in _FIXED_FIELDS:
            continue
        value = getattr(obj, f.name)
        band = _band_keys(f.name, value)
        if dataclasses.is_dataclass(value):
            out.update(_flat_keys(value, f"{f.name}."))
        elif band:
            out.update(zip((prefix + k for k in band), value))
        else:
            out[prefix + f.name] = ",".join(value) if isinstance(value, tuple) else value
    return out


def _replace_from_keys(obj, keys: dict, prefix: str, source):
    """The inverse of `_flat_keys`: a copy of `obj` with the values found in
    `keys`. A value the copy rejects raises a ConfigError naming `source`, the
    file the values came from, and the section."""
    changes = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        band = _band_keys(f.name, value)
        key = prefix + f.name
        if dataclasses.is_dataclass(value):
            changes[f.name] = _replace_from_keys(value, keys, f"{f.name}.", source)
        elif band:
            changes[f.name] = tuple(keys.get(prefix + k, v) for k, v in zip(band, value))
        elif key in keys and isinstance(value, tuple):
            changes[f.name] = tuple(s.strip() for s in keys[key].split(","))
        elif key in keys:
            changes[f.name] = keys[key]
    try:
        return dataclasses.replace(obj, **changes)
    except ConfigError as exc:
        raise ConfigError(f"{source} [{prefix[:-1]}]: {exc}") from exc


@dataclass
class RunConfig:
    filter: FilterChainConfig = field(default_factory=FilterChainConfig)
    segmentation: SegmentationParams = field(default_factory=SegmentationParams)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    fs: float = 1000.0

    def __post_init__(self):
        if not 0 < self.fs < math.inf:
            raise ConfigError(f"sample rate must be finite and positive, got {self.fs}")

    def snapshot(self) -> dict:
        """Flat key/value view for run metadata."""
        return _flat_keys(self, "data.")


_SCHEMA: dict[str, dict[str, type]] = {}
for _name, _value in RunConfig().snapshot().items():
    _section, _key = _name.split(".")
    _SCHEMA.setdefault(_section, {})[_key] = type(_value)


def load_run_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}] in {path}")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}] of {path}")
            values[f"{section}.{key}"] = _cast(section, key, raw, path)
    return _replace_from_keys(RunConfig(), values, "data.", path)


def _cast(section: str, key: str, raw, source):
    caster = _SCHEMA[section][key]
    try:
        return caster(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"bad value {raw!r} for [{section}] {key} in {source} (expected {caster.__name__})"
        ) from exc


def _cast_json(section: str, key: str, value, source):
    """A parsed JSON `value`, which must have its key's type, cast to that type."""
    caster = _SCHEMA[section][key]
    if not json_is(value, caster):
        raise ConfigError(
            f"bad value {value!r} for [{section}] {key} in {source} (expected {caster.__name__})"
        )
    return caster(value)


# The keys that decide how recordings become segments.
_SEGMENTING_SECTIONS = ("data", "filter", "segmentation")


def segmenting_config(cfg: RunConfig, run_json, explicit: bool) -> RunConfig:
    """The config to segment a trained checkpoint's data with.

    `run_json` is the checkpoint's `<ckpt>.run.json`; without one, `cfg` is
    returned. Otherwise an implicit `cfg` takes the recorded `[data]`,
    `[filter]` and `[segmentation]` values, and an `explicit` one (from
    `--config` or the environment) must agree with each of them, or a
    ConfigError names the first key that differs.
    """
    run_json = Path(run_json)
    if not run_json.exists():
        return cfg
    try:
        raw = json.loads(run_json.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise ConfigError(f"cannot parse {run_json}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{run_json}: expected a JSON object, got {type(raw).__name__}")
    recorded = {}
    for name, value in raw.items():
        section, _, key = name.partition(".")
        if section in _SEGMENTING_SECTIONS and key in _SCHEMA[section]:
            recorded[name] = _cast_json(section, key, value, run_json)
    if not explicit:
        return _replace_from_keys(cfg, recorded, "data.", run_json)
    current = cfg.snapshot()
    for name in sorted(recorded):
        if current[name] != recorded[name]:
            raise ConfigError(
                f"{name} = {current[name]!r} in the config disagrees with "
                f"{recorded[name]!r} in {run_json}, which the checkpoint was trained with"
            )
    return cfg


def default_run_config() -> RunConfig:
    """Same as `RunConfig()`; kept because `perfbench/workloads.py` calls it."""
    return RunConfig()
