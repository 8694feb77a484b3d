"""Hover MDP around the rigid-body simulator.

The observation is an error vector (current minus desired) plus the flattened
body->world rotation matrix: 18 components for the quadcopter, 22 for the
tilt-rotor (extra tilt-angle errors). Actions live in [-1, 1] per actuator
and are scaled linearly to thrusts (centered at hover) and tilt rates.

The MDP is four functions: `actuator_command` maps an action to actuator
commands, `observation` and `termination` read the flat simulator state
(layout in `dynamics`), and `reward` reads the observation and the clamped
action. `HoverEnv` and the evaluation protocols both call them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    SimParams,
    _euler_from_rot,
    euler_zyx,
    quat_from_euler_zyx,
    rot_entries,
    step_flat,
    NonFiniteError,
)
from .neuralnet import atomic_open


class Platform(enum.Enum):
    QUAD = "quad"
    TILT_ROTOR = "tilt_rotor"

    @property
    def obs_dim(self) -> int:
        return 18 if self is Platform.QUAD else 22

    @property
    def act_dim(self) -> int:
        return 4 if self is Platform.QUAD else 8


class TermStatus(enum.Enum):
    RUNNING = "running"
    MAX_STEPS = "max_steps"
    OUT_OF_BOUNDS = "out_of_bounds"
    DIVERGED = "diverged"
    REACHED = "reached"    # evaluation only: the trial or leg reached its goal


@dataclass(frozen=True)
class EpisodeConfig:
    target_position_m: tuple[float, float, float] = (0.0, 0.0, 5.0)
    max_steps: int = 1500
    bound_halfwidth_m: float = 1.5
    init_pos_halfwidth_m: float = 1.0
    init_speed_max_mps: float = 1.0
    init_rate_max_radps: float = 1.0
    so3_warmup_episodes: int = 500
    euler_init_range_rad: float = math.pi / 3

    def __post_init__(self):
        if self.max_steps <= 0:
            raise ValueError("max_steps must be > 0")
        if not (self.bound_halfwidth_m > self.init_pos_halfwidth_m > 0):
            raise ValueError("need bound_halfwidth_m > init_pos_halfwidth_m > 0")


@dataclass(frozen=True)
class RewardWeights:
    beta: float = 5.0
    alpha_a: float = 0.25
    alpha_p: float = 1.0
    alpha_v: float = 0.05
    alpha_omega: float = 0.25
    alpha_roll: float = 0.1
    alpha_pitch: float = 0.1
    alpha_tilt: float = 0.5

    def __post_init__(self):
        for name in ("beta", "alpha_a", "alpha_p", "alpha_v", "alpha_omega",
                     "alpha_roll", "alpha_pitch", "alpha_tilt"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


def actuator_command(action: np.ndarray, platform: Platform,
                     params: SimParams) -> tuple[np.ndarray, list, list]:
    """Clamp the action to [-1, 1] and scale it to physical commands.

    Thrusts are centered at hover and clamped to their range; tilt rates
    span the servo range on the tilt-rotor and are zero on the quadcopter.
    Returns (clamped action, thrusts, tilt rates), the commands as lists of
    four floats."""
    # ndarray.clip is np.clip without its dispatch wrapper: same ufunc, same
    # bits. The thrust clamp returns what np.clip returns, NaN and signed
    # zeros included: v itself unless it lies strictly outside the range.
    a = np.asarray(action).clip(-1.0, 1.0)
    al = a.tolist()
    flo, fhi = params.thrust_range_n
    hover = params.hover_thrust_n
    thrust = [hover + v * (fhi - flo) / 2.0 for v in al[:4]]
    thrust = [flo if v < flo else fhi if v > fhi else v for v in thrust]
    if platform is Platform.TILT_ROTOR:
        rlo, rhi = params.tilt_rate_range_radps
        rates = [v * (rhi - rlo) / 2.0 for v in al[4:8]]
    else:
        rates = [0.0] * 4
    return a, thrust, rates


def observation(y: np.ndarray, target, platform: Platform) -> np.ndarray:
    """Error observation of the flat state: position error, velocity,
    row-major body->world rotation, body rates and, on the tilt-rotor, tilt
    angles. Desired velocity, rates and tilts are all zero."""
    yl = y.tolist()
    tx, ty, tz = target
    obs = [yl[0] - tx, yl[1] - ty, yl[2] - tz, yl[3], yl[4], yl[5],
           *rot_entries(*yl[6:10]), yl[10], yl[11], yl[12]]
    if platform is Platform.TILT_ROTOR:
        obs += yl[13:17]
    return np.array(obs)


def reward(obs: np.ndarray, a: np.ndarray, weights: RewardWeights) -> float:
    """Alive bonus minus weighted norms of the observation's errors and of
    the action. Roll and pitch come from the observation's rotation block;
    yaw is never penalized. Tilt errors exist on the tilt-rotor only."""
    e_p, e_v, e_omega, e_tilt = obs[0:3], obs[3:6], obs[15:18], obs[18:]
    roll, pitch, _ = _euler_from_rot(obs[6:15].tolist())
    w = weights
    r = (w.beta
         - w.alpha_a * math.sqrt(float(a @ a))
         - w.alpha_p * math.sqrt(float(e_p @ e_p))
         - w.alpha_v * math.sqrt(float(e_v @ e_v))
         - w.alpha_omega * math.sqrt(float(e_omega @ e_omega))
         - w.alpha_roll * abs(roll) - w.alpha_pitch * abs(pitch))
    if e_tilt.size:
        r -= w.alpha_tilt * math.sqrt(float(e_tilt @ e_tilt))
    return r


def termination(y: np.ndarray, t: int, cfg: EpisodeConfig) -> TermStatus:
    """Episode status of the flat state after step t."""
    yl = y.tolist()
    if not all(map(math.isfinite, yl)):
        return TermStatus.DIVERGED
    if t >= cfg.max_steps:
        return TermStatus.MAX_STEPS
    hw = cfg.bound_halfwidth_m
    tx, ty, tz = cfg.target_position_m
    if abs(yl[0] - tx) > hw or abs(yl[1] - ty) > hw or abs(yl[2] - tz) > hw:
        return TermStatus.OUT_OF_BOUNDS
    return TermStatus.RUNNING


def random_unit_quat(rng: np.random.Generator) -> np.ndarray:
    """Uniform sample on SO(3) via a normalized 4-dim Gaussian."""
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


def reset_state(rng: np.random.Generator, cfg: EpisodeConfig,
                episode_index: int, params: SimParams) -> np.ndarray:
    """Sample an initial flat state for one episode.

    Position is uniform in a cube around the target; speed and body-rate
    magnitudes are uniform with uniformly random directions. Orientation is
    uniform on SO(3) during the warmup episodes, afterwards Euler angles are
    drawn from the shrunk range. Tilt angles start at zero, thrusts at hover.
    """
    w = cfg.init_pos_halfwidth_m
    pos = np.asarray(cfg.target_position_m) + rng.uniform(-w, w, 3)

    def _random_dir():
        v = rng.standard_normal(3)
        n = np.linalg.norm(v)
        return v / n if n > 0 else np.array([1.0, 0.0, 0.0])

    vel = rng.uniform(0.0, cfg.init_speed_max_mps) * _random_dir()
    omega = rng.uniform(0.0, cfg.init_rate_max_radps) * _random_dir()

    if episode_index < cfg.so3_warmup_episodes:
        q = random_unit_quat(rng)
    else:
        e = cfg.euler_init_range_rad
        q = quat_from_euler_zyx(*rng.uniform(-e, e, 3))

    return np.concatenate([pos, vel, q, omega, np.zeros(4),
                           np.full(4, params.hover_thrust_n)])


class EpisodeCounter:
    """Global episode index shared by a pool of environments."""

    def __init__(self, start: int = 0):
        self.value = start

    def next(self) -> int:
        idx = self.value
        self.value += 1
        return idx


class HoverEnv:
    """Gym-style wrapper: reset() -> obs, step(action) -> (obs, reward, status).

    Each instance owns its RNG and its flat state `y` (layout in `dynamics`,
    None before the first reset); instances are independent. `t` counts the
    steps of the current episode and `episode_return` sums their rewards.
    """

    def __init__(self, platform: Platform, params: SimParams, cfg: EpisodeConfig,
                 weights: RewardWeights, rng: np.random.Generator,
                 counter: EpisodeCounter | None = None):
        self.platform = platform
        self.params = params
        self.cfg = cfg
        self.weights = weights
        self.rng = rng
        self.counter = counter if counter is not None else EpisodeCounter()
        self.y: np.ndarray | None = None
        self.t = 0
        self.episode_return = 0.0
        self._target = tuple(map(float, cfg.target_position_m))

    @property
    def obs_dim(self) -> int:
        return self.platform.obs_dim

    @property
    def act_dim(self) -> int:
        return self.platform.act_dim

    def observe(self) -> np.ndarray:
        return observation(self.y, self._target, self.platform)

    def reset(self) -> np.ndarray:
        self.y = reset_state(self.rng, self.cfg, self.counter.next(), self.params)
        self.t = 0
        self.episode_return = 0.0
        return self.observe()

    def step(self, action: np.ndarray) -> tuple[np.ndarray, float, TermStatus]:
        """Apply one clamped/scaled action; reward is on the post-step state."""
        a, thrust, rates = actuator_command(action, self.platform, self.params)
        self.t += 1
        try:
            y = step_flat(self.y, thrust, rates, self.params)
        except NonFiniteError:
            return np.zeros(self.obs_dim), 0.0, TermStatus.DIVERGED
        self.y = y
        obs = observation(y, self._target, self.platform)
        r = reward(obs, a, self.weights)
        self.episode_return += r
        return obs, r, termination(y, self.t, self.cfg)


TRACE_HEADER = ("t,x,y,z,vx,vy,vz,roll,pitch,yaw,p,q,r,"
                "tilt1,tilt2,tilt3,tilt4,F1,F2,F3,F4,"
                "a1,a2,a3,a4,a5,a6,a7,a8,reward")


_TRACE_ROW = "%d," + ",".join(["%.9g"] * (len(TRACE_HEADER.split(",")) - 1))


def trace_row(t: int, y: np.ndarray, action: np.ndarray, rew: float) -> str:
    """One CSV row of the episode trace schema for the flat state y
    (actions padded to 8)."""
    yl = y.tolist()
    a = np.asarray(action, dtype=float).tolist()
    return _TRACE_ROW % (t, *yl[0:6], *euler_zyx(yl[6:10]), *yl[10:21],
                         *a, *[0.0] * (8 - len(a)), rew)


def write_trace(path, rows: list[str]) -> None:
    with atomic_open(path) as fh:
        fh.write(TRACE_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")
