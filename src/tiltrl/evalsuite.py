"""Evaluation protocols: hover recovery from random initial states, tilt
servo fault ablations, and waypoint missions against a cascaded PID baseline.

Evaluation is deterministic: actions are the policy mean, never sampled.
Fault/initialization randomness comes from per-trial seeds so compared
policies see identical conditions.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import neuralnet as nn
from .dynamics import NonFiniteError, SimParams, hover_state, quat_to_rot, step_flat
from .env import (EpisodeConfig, Platform, TermStatus, actuator_command, observation,
                  reset_state, trace_row, write_trace)

HOVER_TARGET = (0.0, 0.0, 3.0)
SUCCESS_TOLERANCE_M = 0.2
# Physical-validity envelope: a vehicle past either bound is lost, and the
# trial or leg ends as DIVERGED instead of integrating it until RK4 overflows.
MAX_SPEED_MPS = 50.0
MAX_BODY_RATE_RADPS = 100.0
MAX_EVAL_STEPS = 1500
# Per step, a faulty tilt servo obeys its commanded rate with this probability.
FAULT_RESPONSE_PROBABILITY = 0.4
# Square circuit of side 2 m at 3 m altitude.
SQUARE_MISSION = ((1.0, 1.0, 3.0), (-1.0, 1.0, 3.0), (-1.0, -1.0, 3.0), (1.0, -1.0, 3.0))


@dataclass
class TrialResult:
    trial: int
    seed: int
    end: TermStatus              # REACHED, MAX_STEPS or DIVERGED
    steps_to_reach: int          # -1 when the goal was never reached
    final_error_m: float
    final_tilt_rad: tuple[float, float, float, float]
    servo_ids: tuple[int, ...] = ()

    @property
    def success(self) -> bool:
        return self.end is TermStatus.REACHED


def policy_command(actor: nn.Mlp, y: np.ndarray, target,
                   platform: Platform, params: SimParams) -> tuple[list, list, np.ndarray]:
    """Deterministic actuator command from the policy mean at the flat
    state y. Returns (thrusts, tilt rates, clamped action)."""
    a, thrust, rates = actuator_command(
        nn.forward(actor, observation(y, target, platform)), platform, params)
    return thrust, rates, a


def _run_to_goal(command_fn, y: np.ndarray, target, params: SimParams,
                 max_steps: int = MAX_EVAL_STEPS, tolerance: float = SUCCESS_TOLERANCE_M,
                 record_trace: bool = False):
    """Step the simulator from the flat state y until the target is reached,
    the state leaves the physical-validity envelope or the budget runs out.

    command_fn(y) -> (thrusts, tilt rates, action vector). Returns
    (flat state, end, steps_to_reach, rows): end is REACHED, MAX_STEPS or
    DIVERGED (past MAX_SPEED_MPS or MAX_BODY_RATE_RADPS after a step, or a
    non-finite RK4 step), and the trace keeps the row of the last step."""
    target = np.asarray(target, dtype=float)
    tx, ty, tz = target.tolist()
    # A squared distance beyond this band has no norm within the tolerance,
    # so np.linalg.norm, which decides, runs only inside it.
    band = (tolerance * (1 + 1e-9)) ** 2
    speed2 = MAX_SPEED_MPS * MAX_SPEED_MPS
    rate2 = MAX_BODY_RATE_RADPS * MAX_BODY_RATE_RADPS

    def reached(y):
        px, py, pz = y[0:3].tolist()
        d2 = (px - tx) * (px - tx) + (py - ty) * (py - ty) + (pz - tz) * (pz - tz)
        return d2 <= band and np.linalg.norm(y[0:3] - target) <= tolerance

    rows: list[str] = []
    if reached(y):
        return y, TermStatus.REACHED, 0, rows
    for t in range(max_steps):
        thrust, rates, action = command_fn(y)
        try:
            y = step_flat(y, thrust, rates, params)
        except NonFiniteError:
            return y, TermStatus.DIVERGED, -1, rows
        if record_trace:
            rows.append(trace_row(t + 1, y, action, 0.0))
        if reached(y):
            return y, TermStatus.REACHED, t + 1, rows
        vx, vy, vz, _, _, _, _, wx, wy, wz = y[3:13].tolist()
        if vx * vx + vy * vy + vz * vz > speed2 or wx * wx + wy * wy + wz * wz > rate2:
            return y, TermStatus.DIVERGED, -1, rows
    return y, TermStatus.MAX_STEPS, -1, rows


def _trial_result(trial: int, seed: int, end: TermStatus, steps: int, y: np.ndarray,
                  target, servo_ids: tuple[int, ...] = ()) -> TrialResult:
    return TrialResult(
        trial=trial, seed=seed, end=end, steps_to_reach=steps,
        final_error_m=float(np.linalg.norm(y[0:3] - np.asarray(target))),
        final_tilt_rad=tuple(y[13:17]), servo_ids=servo_ids)


def actor_platform(actor: nn.Mlp) -> Platform:
    """The platform whose observation the actor takes as input."""
    for platform in Platform:
        if actor.in_dim == platform.obs_dim:
            return platform
    raise nn.ShapeMismatchError(f"actor input width {actor.in_dim} fits no platform")


def _run_trials(actor: nn.Mlp, params: SimParams, n_trials: int, seed: int,
                n_faulty: int = 0, trace_dir: str | None = None) -> list[TrialResult]:
    """Hover-recovery trials around HOVER_TARGET, with n_faulty servos that
    obey each commanded rate with probability FAULT_RESPONSE_PROBABILITY.

    Trial k's SeedSequence([seed, k]) drives the faulty-servo choice, then
    the initial state; a stream spawned from it drives the servo responses,
    so two policies evaluated with the same seed see identical conditions
    and draws. Choosing zero servos draws nothing: hover is the zero-fault
    case."""
    platform = actor_platform(actor)
    cfg = EpisodeConfig(target_position_m=HOVER_TARGET)
    results = []
    for trial in range(n_trials):
        trial_seed = np.random.SeedSequence([seed, trial])
        init_rng = np.random.default_rng(trial_seed)
        faulty = tuple(int(s) for s in init_rng.choice(4, size=n_faulty, replace=False))
        y = reset_state(init_rng, cfg, cfg.so3_warmup_episodes, params)
        frng = np.random.default_rng(trial_seed.spawn(1)[0])

        def cmd_fn(y):
            thrust, rates, a = policy_command(actor, y, HOVER_TARGET, platform, params)
            for s in faulty:
                if frng.random() >= FAULT_RESPONSE_PROBABILITY:
                    rates[s] = 0.0
            return thrust, rates, a

        final, end, steps, rows = _run_to_goal(
            cmd_fn, y, HOVER_TARGET, params, record_trace=trace_dir is not None)
        if trace_dir is not None:
            write_trace(os.path.join(trace_dir, f"hover_trace_{trial:03d}.csv"), rows)
        results.append(_trial_result(trial, seed, end, steps, final, HOVER_TARGET,
                                     faulty))
    return results


def run_hover_eval(actor: nn.Mlp, params: SimParams, n_trials: int, seed: int,
                   trace_dir: str | None = None) -> list[TrialResult]:
    """Hover recovery of the actor's platform from random initial states.

    Initialization follows the training distribution with the shrunk Euler
    range (no SO(3) warmup at evaluation). Success: within 0.2 m of the
    target at any step within the budget. With trace_dir, each trial's
    trace is written to trace_dir/hover_trace_NNN.csv as the trial ends."""
    return _run_trials(actor, params, n_trials, seed, trace_dir=trace_dir)


def run_fault_ablation(actor: nn.Mlp, n_faulty: int, trials: int,
                       params: SimParams, seed: int) -> tuple[int, list[TrialResult]]:
    """Servo-fault ablation on the tilt-rotor: per timestep each faulty servo
    obeys the commanded rate with probability FAULT_RESPONSE_PROBABILITY,
    otherwise rate 0. Returns (successes, trial results)."""
    if actor.in_dim != Platform.TILT_ROTOR.obs_dim:
        raise nn.ShapeMismatchError("fault ablation requires a tilt-rotor actor")
    results = _run_trials(actor, params, trials, seed, n_faulty)
    return sum(r.success for r in results), results


# --- PID baseline -------------------------------------------------------------

@dataclass(frozen=True)
class PidGains:
    """Cascaded controller gains; defaults from a manual tuning run.

    Yaw uses its own soft gains: the drag-moment ratio is small, so yaw
    torque costs a large differential thrust and must not be allowed to
    drown out roll/pitch authority in the mixer."""

    kp_pos: float = 2.0
    kd_pos: float = 2.8
    kp_att: float = 100.0
    kd_att: float = 20.0
    kp_yaw: float = 5.0
    kd_yaw: float = 2.0
    k_tilt: float = 4.0
    max_tilt_accel: float = 5.0   # m/s^2 cap on horizontal acceleration demand


def pid_controller(y: np.ndarray, target, gains: PidGains,
                   params: SimParams) -> tuple[list, list]:
    """Cascaded PID on the flat state y: position error -> desired
    acceleration -> desired attitude + collective thrust; attitude PD ->
    torques -> plus-config mixing; tilt rates regulate tilt angles to zero.
    Returns (thrusts, tilt rates)."""
    g = params.gravity_mps2
    m = params.mass_kg
    l = params.arm_length_m
    k = params.moment_ratio_m
    px, py, pz, vx, vy, vz, qw, qx, qy, qz, wx, wy, wz = y[0:13].tolist()
    x_t, y_t, z_t = np.asarray(target, dtype=float).tolist()

    ax = gains.kp_pos * (x_t - px) - gains.kd_pos * vx
    ay = gains.kp_pos * (y_t - py) - gains.kd_pos * vy
    az = gains.kp_pos * (z_t - pz) - gains.kd_pos * vz
    a_norm = np.linalg.norm(np.array([ax, ay]))
    if a_norm > gains.max_tilt_accel:
        s = gains.max_tilt_accel / a_norm
        ax *= s
        ay *= s
    az += g
    a_des = np.array([ax, ay, az])

    r = quat_to_rot((qw, qx, qy, qz))
    # Desired body z aligned with the acceleration demand; yaw kept current.
    n = max(np.linalg.norm(a_des), 1e-9)
    z0, z1, z2 = ax / n, ay / n, az / n
    yaw = math.atan2(r[1, 0], r[0, 0])
    c0, c1, c2 = math.cos(yaw), math.sin(yaw), 0.0
    # y_des = z_des x c and x_des = y_des x z_des, in np.cross's operation order.
    y0, y1, y2 = z1 * c2 - z2 * c1, z2 * c0 - z0 * c2, z0 * c1 - z1 * c0
    n = max(np.linalg.norm(np.array([y0, y1, y2])), 1e-9)
    y0, y1, y2 = y0 / n, y1 / n, y2 / n
    x0, x1, x2 = y1 * z2 - y2 * z1, y2 * z0 - y0 * z2, y0 * z1 - y1 * z0
    r_des = np.array([[x0, y0, z0], [x1, y1, z1], [x2, y2, z2]])

    # Geometric attitude error 0.5*(Rd^T R - R^T Rd)^vee.
    e_p = (r_des.T @ r).tolist()
    e_m = (r.T @ r_des).tolist()
    ex = 0.5 * (e_p[2][1] - e_m[2][1])
    ey = 0.5 * (e_p[0][2] - e_m[0][2])
    ez = 0.5 * (e_p[1][0] - e_m[1][0])
    ix, iy, iz = params.inertia_diag
    tx = ix * (-gains.kp_att * ex - gains.kd_att * wx)
    ty = iy * (-gains.kp_att * ey - gains.kd_att * wy)
    tz = iz * (-gains.kp_yaw * ez - gains.kd_yaw * wz)

    collective = m * float(a_des @ r[:, 2])
    collective = max(collective, 0.0)

    # Plus-configuration mixing at zero tilt (yaw via rotor drag moments,
    # signs matching the dynamics' spin-sign pattern).
    fc = collective / 4.0
    g1, g2, g3, g4 = params.rotor_spin_signs
    f1 = fc - ty / (2 * l) + g1 * tz / (4 * k)
    f2 = fc + tx / (2 * l) + g2 * tz / (4 * k)
    f3 = fc + ty / (2 * l) + g3 * tz / (4 * k)
    f4 = fc - tx / (2 * l) + g4 * tz / (4 * k)
    # Clamped as np.clip clamps: v itself unless strictly outside the range.
    flo, fhi = params.thrust_range_n
    thrust = [flo if f < flo else fhi if f > fhi else f for f in (f1, f2, f3, f4)]
    rlo, rhi = params.tilt_rate_range_radps
    rates = [-gains.k_tilt * t for t in y[13:17].tolist()]
    rates = [rlo if v < rlo else rhi if v > rhi else v for v in rates]
    return thrust, rates


@dataclass
class MissionResult:
    hits: list[bool]
    all_visited: bool
    trace: list[str]


def run_waypoint_mission(controller, waypoints, params: SimParams,
                         gains: PidGains | None = None) -> MissionResult:
    """Fly the waypoints in order from hover at the first one's altitude
    above the origin; the target switches to the next waypoint on reach,
    within SUCCESS_TOLERANCE_M and MAX_EVAL_STEPS per leg.

    controller is either "pid" or a trained actor Mlp of either platform.
    Returns per-waypoint hit flags and the full trace."""
    y = hover_state(params, (0.0, 0.0, waypoints[0][2]))
    platform = None if controller == "pid" else actor_platform(controller)
    gains = gains if gains is not None else PidGains()
    rows: list[str] = []
    hits: list[bool] = []
    for wp in waypoints:
        wp = tuple(map(float, wp))

        if controller == "pid":
            def cmd_fn(y, _wp=wp):
                return (*pid_controller(y, _wp, gains, params), np.zeros(4))
        else:
            def cmd_fn(y, _wp=wp):
                return policy_command(controller, y, _wp, platform, params)

        y, end, steps, trace = _run_to_goal(cmd_fn, y, wp, params, record_trace=True)
        rows.extend(trace)
        hits.append(end is TermStatus.REACHED)
        if not hits[-1]:
            break
    return MissionResult(hits=hits, all_visited=len(hits) == len(waypoints)
                         and all(hits), trace=rows)


SUMMARY_HEADER = "trial,seed,n_faulty,servo_ids,success,steps_to_reach,final_error_m,end"


def summary_rows(results: list[TrialResult]) -> list[str]:
    rows = []
    for r in results:
        ids = ";".join(str(s) for s in r.servo_ids)
        rows.append(f"{r.trial},{r.seed},{len(r.servo_ids)},{ids},{int(r.success)},"
                    f"{r.steps_to_reach},{r.final_error_m:.6g},{r.end.value}")
    return rows
