"""Flat key=value configuration covering physics, episodes, rewards and
training.

File format: one `key = value` per line, `#` comments, vectors as
comma-separated numbers. The keys are the fields of the four section
dataclasses (SI units); each value takes its default's type, a vector as
many numbers as its default has and no empty entry, and every number must
be finite. A config file must contain every key, each once; any
TILTRL_<KEY> environment variable overrides the corresponding value.
"""

from __future__ import annotations

import dataclasses
import math
import os

from .dynamics import SimParams
from .env import EpisodeConfig, RewardWeights
from .neuralnet import atomic_open
from .ppo import TrainConfig

ENV_PREFIX = "TILTRL_"


class ConfigError(ValueError):
    """Missing or invalid configuration key; message names the key."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    sim: SimParams
    episode: EpisodeConfig
    rewards: RewardWeights
    train: TrainConfig


_SECTIONS = {"sim": SimParams, "episode": EpisodeConfig, "rewards": RewardWeights,
             "train": TrainConfig}

# key -> (section, default): one key per dataclass field, in field order. The
# default fixes the key's kind (int, float or tuple) and a tuple's length.
SCHEMA = {f.name: (section, f.default)
          for section, cls in _SECTIONS.items() for f in dataclasses.fields(cls)}


def default_config() -> RunConfig:
    """All defaults: the reported physical parameters and hyperparameters."""
    return RunConfig(SimParams(), EpisodeConfig(), RewardWeights(), TrainConfig())


def _parse_value(key: str, raw: str):
    _, default = SCHEMA[key]
    vector = isinstance(default, tuple)
    parts = [p.strip() for p in raw.split(",")] if vector else [raw]
    if not all(parts):
        raise ConfigError(f"key '{key}' has an empty entry: {raw!r}")
    try:
        value = tuple(type(default[0] if vector else default)(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"invalid value for key '{key}': {raw!r}") from exc
    if not all(map(math.isfinite, value)):
        raise ConfigError(f"key '{key}' needs finite numbers, got {raw!r}")
    if not vector:
        return value[0]
    if len(value) != len(default):
        raise ConfigError(f"key '{key}' needs {len(default)} comma-separated values,"
                          f" got {len(value)}: {raw!r}")
    return value


def _parse_lines(lines, source: str) -> dict:
    values = {}
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, raw = (s.strip() for s in line.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key '{key}' ({source}:{lineno})")
        if key in values:
            raise ConfigError(f"repeated config key '{key}' ({source}:{lineno})")
        values[key] = _parse_value(key, raw)
    return values


def _apply_env_overrides(values: dict) -> dict:
    for key in SCHEMA:
        raw = os.environ.get(ENV_PREFIX + key.upper())
        if raw is not None:
            values[key] = _parse_value(key, raw)
    return values


def _build(values: dict) -> RunConfig:
    kwargs = {name: {} for name in _SECTIONS}
    for key, value in values.items():
        kwargs[SCHEMA[key][0]][key] = value
    try:
        built = {name: cls(**kwargs[name]) for name, cls in _SECTIONS.items()}
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(**built)


def load_config(path: str | None) -> RunConfig:
    """Load a complete config file (or the built-in defaults when path is
    None), then apply TILTRL_* environment overrides."""
    if path is None:
        values = as_flat_dict(default_config())
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                values = _parse_lines(fh, str(path))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
        missing = [k for k in SCHEMA if k not in values]
        if missing:
            raise ConfigError(f"missing config key '{missing[0]}'"
                              + (f" (and {len(missing) - 1} more)" if len(missing) > 1 else ""))
    return _build(_apply_env_overrides(values))


def as_flat_dict(cfg: RunConfig) -> dict:
    return {key: getattr(getattr(cfg, section), key)
            for key, (section, _) in SCHEMA.items()}


def format_config(cfg: RunConfig) -> str:
    return "".join(f"{key} = {', '.join(map(repr, v)) if isinstance(v, tuple) else repr(v)}\n"
                   for key, v in as_flat_dict(cfg).items())


def write_config(cfg: RunConfig, path) -> None:
    with atomic_open(path) as fh:
        fh.write(format_config(cfg))
