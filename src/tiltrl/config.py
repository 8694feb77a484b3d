"""Flat key=value configuration covering physics, episodes, rewards,
training, and PID gains.

File format: one `key = value` per line, `#` comments, vectors as
comma-separated numbers. Keys match the dataclass field names (SI units).
A config file must contain every known key; any TILTRL_<KEY> environment
variable overrides the corresponding value.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .dynamics import SimParams
from .env import EpisodeConfig, RewardWeights
from .evalsuite import PidGains
from .ppo import TrainConfig

ENV_PREFIX = "TILTRL_"


class ConfigError(ValueError):
    """Missing or invalid configuration key; message names the key."""


@dataclass(frozen=True)
class RunConfig:
    sim: SimParams
    episode: EpisodeConfig
    rewards: RewardWeights
    train: TrainConfig
    pid: PidGains


_SCALAR = "scalar"
_INT = "int"
_VEC = "vec"

# key -> (section, field, kind)
SCHEMA = {
    "mass_kg": ("sim", "mass_kg", _SCALAR),
    "arm_length_m": ("sim", "arm_length_m", _SCALAR),
    "inertia_diag": ("sim", "inertia_diag", _VEC),
    "gravity_mps2": ("sim", "gravity_mps2", _SCALAR),
    "moment_ratio_m": ("sim", "moment_ratio_m", _SCALAR),
    "motor_lag_s": ("sim", "motor_lag_s", _SCALAR),
    "dt_s": ("sim", "dt_s", _SCALAR),
    "thrust_range_n": ("sim", "thrust_range_n", _VEC),
    "tilt_angle_range_rad": ("sim", "tilt_angle_range_rad", _VEC),
    "tilt_rate_range_radps": ("sim", "tilt_rate_range_radps", _VEC),
    "rotor_spin_signs": ("sim", "rotor_spin_signs", _VEC),
    "target_position_m": ("episode", "target_position_m", _VEC),
    "max_steps": ("episode", "max_steps", _INT),
    "bound_halfwidth_m": ("episode", "bound_halfwidth_m", _SCALAR),
    "init_pos_halfwidth_m": ("episode", "init_pos_halfwidth_m", _SCALAR),
    "init_speed_max_mps": ("episode", "init_speed_max_mps", _SCALAR),
    "init_rate_max_radps": ("episode", "init_rate_max_radps", _SCALAR),
    "so3_warmup_episodes": ("episode", "so3_warmup_episodes", _INT),
    "euler_init_range_rad": ("episode", "euler_init_range_rad", _SCALAR),
    "beta": ("rewards", "beta", _SCALAR),
    "alpha_a": ("rewards", "alpha_a", _SCALAR),
    "alpha_p": ("rewards", "alpha_p", _SCALAR),
    "alpha_v": ("rewards", "alpha_v", _SCALAR),
    "alpha_omega": ("rewards", "alpha_omega", _SCALAR),
    "alpha_roll": ("rewards", "alpha_roll", _SCALAR),
    "alpha_pitch": ("rewards", "alpha_pitch", _SCALAR),
    "alpha_tilt": ("rewards", "alpha_tilt", _SCALAR),
    "total_steps": ("train", "total_steps", _INT),
    "lr0": ("train", "lr0", _SCALAR),
    "gamma": ("train", "gamma", _SCALAR),
    "gae_lambda": ("train", "gae_lambda", _SCALAR),
    "clip_eps": ("train", "clip_eps", _SCALAR),
    "epochs_per_update": ("train", "epochs_per_update", _INT),
    "minibatch_size": ("train", "minibatch_size", _INT),
    "value_loss_coef": ("train", "value_loss_coef", _SCALAR),
    "sigma": ("train", "sigma", _SCALAR),
    "rollout_horizon": ("train", "rollout_horizon", _INT),
    "n_envs": ("train", "n_envs", _INT),
    "hidden_sizes": ("train", "hidden_sizes", _VEC),
    "checkpoint_every": ("train", "checkpoint_every", _INT),
    "seed": ("train", "seed", _INT),
    "kp_pos": ("pid", "kp_pos", _SCALAR),
    "kd_pos": ("pid", "kd_pos", _SCALAR),
    "kp_att": ("pid", "kp_att", _SCALAR),
    "kd_att": ("pid", "kd_att", _SCALAR),
    "kp_yaw": ("pid", "kp_yaw", _SCALAR),
    "kd_yaw": ("pid", "kd_yaw", _SCALAR),
    "k_tilt": ("pid", "k_tilt", _SCALAR),
    "max_tilt_accel": ("pid", "max_tilt_accel", _SCALAR),
}

_SECTIONS = {"sim": SimParams, "episode": EpisodeConfig, "rewards": RewardWeights,
             "train": TrainConfig, "pid": PidGains}

_INT_VECS = {"hidden_sizes"}


def default_config() -> RunConfig:
    """All defaults: the reported physical parameters and hyperparameters."""
    return RunConfig(SimParams(), EpisodeConfig(), RewardWeights(),
                     TrainConfig(), PidGains())


def _parse_value(key: str, raw: str):
    _, _, kind = SCHEMA[key]
    try:
        if kind == _INT:
            return int(raw)
        if kind == _SCALAR:
            return float(raw)
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if key in _INT_VECS:
            return tuple(int(p) for p in parts)
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"invalid value for key '{key}': {raw!r}") from exc


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
        section, fieldname, _ = SCHEMA[key]
        kwargs[section][fieldname] = value
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
        with open(path) as fh:
            values = _parse_lines(fh, str(path))
        missing = [k for k in SCHEMA if k not in values]
        if missing:
            raise ConfigError(f"missing config key '{missing[0]}'"
                              + (f" (and {len(missing) - 1} more)" if len(missing) > 1 else ""))
    return _build(_apply_env_overrides(values))


def as_flat_dict(cfg: RunConfig) -> dict:
    out = {}
    for key, (section, fieldname, _) in SCHEMA.items():
        out[key] = getattr(getattr(cfg, section), fieldname)
    return out


def format_config(cfg: RunConfig) -> str:
    lines = []
    for key, value in as_flat_dict(cfg).items():
        if isinstance(value, tuple):
            lines.append(f"{key} = {', '.join(repr(v) for v in value)}")
        else:
            lines.append(f"{key} = {value!r}")
    return "\n".join(lines) + "\n"


def write_config(cfg: RunConfig, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_config(cfg))
