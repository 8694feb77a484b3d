"""Rigid-body dynamics of a tilt-rotor quadcopter in plus configuration.

Four rotors sit on arms along the body x/y axes; each rotor can tilt about
its arm axis, redirecting thrust in a body plane. The conventional
quadcopter is the special case with all tilt angles pinned at zero. Motors
respond to thrust commands through a first-order lag; tilt joints are ideal
velocity servos clamped at their angle limits.

State is integrated with classical RK4 on a flat 21-vector:
position (3), velocity (3), unit quaternion body->world (4),
body rates (3), tilt angles (4), actual thrusts (4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NonFiniteError(RuntimeError):
    """Raised when integration produces NaN/Inf state components."""


# Signs of each rotor's axial drag moment along its thrust axis.
# Pattern chosen so equal thrusts at zero tilt produce zero net yaw moment.
DEFAULT_SPIN_SIGNS = (-1.0, 1.0, 1.0, -1.0)


@dataclass(frozen=True)
class SimParams:
    """Physical constants of the vehicle and simulation (SI units)."""

    mass_kg: float = 1.5
    arm_length_m: float = 0.13
    inertia_diag: tuple[float, float, float] = (0.0082, 0.0082, 0.0164)
    gravity_mps2: float = 9.81
    moment_ratio_m: float = 0.016
    motor_lag_s: float = 0.05
    dt_s: float = 0.01
    thrust_range_n: tuple[float, float] = (0.0, 15.0)
    tilt_angle_range_rad: tuple[float, float] = (-math.pi / 3, math.pi / 3)
    tilt_rate_range_radps: tuple[float, float] = (-3.0, 3.0)
    rotor_spin_signs: tuple[float, float, float, float] = DEFAULT_SPIN_SIGNS

    def __post_init__(self):
        if self.mass_kg <= 0:
            raise ValueError("mass_kg must be > 0")
        if self.arm_length_m <= 0:
            raise ValueError("arm_length_m must be > 0")
        if self.moment_ratio_m <= 0:   # yaw direction lives in rotor_spin_signs
            raise ValueError("moment_ratio_m must be > 0")
        if any(i <= 0 for i in self.inertia_diag):
            raise ValueError("inertia_diag components must be > 0")
        if self.dt_s <= 0:
            raise ValueError("dt_s must be > 0")
        if self.motor_lag_s < self.dt_s:
            raise ValueError("motor_lag_s must be >= dt_s")
        if self.thrust_range_n[0] < 0 or self.thrust_range_n[1] <= self.thrust_range_n[0]:
            raise ValueError("thrust_range_n must satisfy 0 <= min < max")
        if not self.thrust_range_n[0] <= self.hover_thrust_n <= self.thrust_range_n[1]:
            raise ValueError(f"thrust_range_n {self.thrust_range_n} must hold the hover thrust"
                             f" mass_kg * gravity_mps2 / 4 = {self.hover_thrust_n:g} N")
        lo, hi = self.tilt_rate_range_radps
        if lo >= hi or abs(lo + hi) > 1e-12:
            raise ValueError("tilt_rate_range_radps must satisfy min < max, symmetric about 0")
        lo, hi = self.tilt_angle_range_rad
        if lo > hi or abs(lo + hi) > 1e-12:
            raise ValueError("tilt_angle_range_rad must satisfy min <= max, symmetric about 0")
        if abs(sum(self.rotor_spin_signs)) > 1e-12:
            raise ValueError("rotor_spin_signs must sum to 0")

    @property
    def hover_thrust_n(self) -> float:
        """Per-rotor thrust balancing gravity at level attitude."""
        return self.mass_kg * self.gravity_mps2 / 4.0


def hover_state(params: SimParams, position=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Flat state of the level equilibrium at rest with hover thrusts."""
    y = np.zeros(21)
    y[0:3] = position
    y[6] = 1.0
    y[17:21] = params.hover_thrust_n
    return y


def rot_entries(w, x, y, z) -> list:
    """Row-major entries of the rotation matrix (body->world) of the unit
    quaternion (w, x, y, z), in scalar math."""
    return [
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ]


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    """Rotation matrix (body->world) from unit quaternion (w, x, y, z)."""
    return np.array(rot_entries(*q)).reshape(3, 3)


def quat_from_euler_zyx(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Quaternion for R = Rz(yaw) Ry(pitch) Rx(roll)."""
    cr, sr = math.cos(roll / 2), math.sin(roll / 2)
    cp, sp = math.cos(pitch / 2), math.sin(pitch / 2)
    cy, sy = math.cos(yaw / 2), math.sin(yaw / 2)
    return np.array([
        cy * cp * cr + sy * sp * sr,
        cy * cp * sr - sy * sp * cr,
        cy * sp * cr + sy * cp * sr,
        sy * cp * cr - cy * sp * sr,
    ])


def euler_zyx(orientation) -> tuple[float, float, float]:
    """Z-Y-X Euler angles (roll, pitch, yaw) of a unit quaternion.

    Pitch lies in [-pi/2, pi/2]. Near the gimbal-lock singularity
    (|pitch| within 1e-6 of pi/2) yaw is defined as 0 and roll absorbs
    the remaining rotation about the vertical.
    """
    return _euler_from_rot(rot_entries(*orientation))


def _euler_from_rot(r) -> tuple[float, float, float]:
    """Euler angles of the rotation matrix given by its 9 row-major entries."""
    s = -r[6]
    s = min(1.0, max(-1.0, s))
    pitch = math.asin(s)
    if abs(abs(pitch) - math.pi / 2) < 1e-6:
        if pitch > 0:
            roll = math.atan2(r[1], r[2])
        else:
            roll = math.atan2(-r[1], -r[2])
        return roll, pitch, 0.0
    roll = math.atan2(r[7], r[8])
    yaw = math.atan2(r[3], r[0])
    return roll, pitch, yaw


def derivative(y, thrust_cmd, tilt_cmd, p: SimParams) -> list:
    """Time derivative of the flat 21-state under held thrust and tilt-rate
    commands. Hot path: scalar math only.

    The body-frame wrench comes from the rotor thrusts and tilt angles;
    gravity is applied in the world frame and the gyroscopic term in
    Euler's equations. Rotor drag moments are M_i = moment_ratio_m * F_i,
    directed along each rotor's thrust axis with sign rotor_spin_signs[i].
    """
    vx, vy, vz = y[3], y[4], y[5]
    qw, qx, qy, qz = y[6], y[7], y[8], y[9]
    wx, wy, wz = y[10], y[11], y[12]
    t1, t2, t3, t4 = y[13], y[14], y[15], y[16]
    f1, f2, f3, f4 = y[17], y[18], y[19], y[20]

    s1, c1 = math.sin(t1), math.cos(t1)
    s2, c2 = math.sin(t2), math.cos(t2)
    s3, c3 = math.sin(t3), math.cos(t3)
    s4, c4 = math.sin(t4), math.cos(t4)

    l = p.arm_length_m
    k = p.moment_ratio_m
    g1, g2, g3, g4 = p.rotor_spin_signs
    m1, m2, m3, m4 = k * f1, k * f2, k * f3, k * f4

    fx = f2 * s2 + f4 * s4
    fy = -f1 * s1 - f3 * s3
    fz = f1 * c1 + f2 * c2 + f3 * c3 + f4 * c4

    # Thrust lever arms plus axial rotor moments resolved on body axes.
    tx = l * (f2 * c2 - f4 * c4) + g2 * m2 * s2 + g4 * m4 * s4
    ty = l * (f3 * c3 - f1 * c1) - g1 * m1 * s1 - g3 * m3 * s3
    tz = (l * (-f1 * s1 - f2 * s2 + f3 * s3 + f4 * s4)
          + g1 * m1 * c1 + g2 * m2 * c2 + g3 * m3 * c3 + g4 * m4 * c4)

    # World-frame acceleration: rotate body force, subtract gravity.
    inv_m = 1.0 / p.mass_kg
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = rot_entries(qw, qx, qy, qz)
    ax = (r00 * fx + r01 * fy + r02 * fz) * inv_m
    ay = (r10 * fx + r11 * fy + r12 * fz) * inv_m
    az = (r20 * fx + r21 * fy + r22 * fz) * inv_m - p.gravity_mps2

    # Euler's equations with diagonal inertia.
    ix, iy, iz = p.inertia_diag
    wxd = (tx - (iz - iy) * wy * wz) / ix
    wyd = (ty - (ix - iz) * wz * wx) / iy
    wzd = (tz - (iy - ix) * wx * wy) / iz

    # Quaternion kinematics: q' = 0.5 * q (x) (0, omega).
    qwd = 0.5 * (-qx * wx - qy * wy - qz * wz)
    qxd = 0.5 * (qw * wx + qy * wz - qz * wy)
    qyd = 0.5 * (qw * wy + qz * wx - qx * wz)
    qzd = 0.5 * (qw * wz + qx * wy - qy * wx)

    # Tilt servos: ideal velocity servo, rate zeroed when pushing past a limit.
    tlo, thi = p.tilt_angle_range_rad
    td1, td2, td3, td4 = tilt_cmd[0], tilt_cmd[1], tilt_cmd[2], tilt_cmd[3]
    if (t1 >= thi and td1 > 0) or (t1 <= tlo and td1 < 0):
        td1 = 0.0
    if (t2 >= thi and td2 > 0) or (t2 <= tlo and td2 < 0):
        td2 = 0.0
    if (t3 >= thi and td3 > 0) or (t3 <= tlo and td3 < 0):
        td3 = 0.0
    if (t4 >= thi and td4 > 0) or (t4 <= tlo and td4 < 0):
        td4 = 0.0

    inv_tau = 1.0 / p.motor_lag_s
    return [
        vx, vy, vz,
        ax, ay, az,
        qwd, qxd, qyd, qzd,
        wxd, wyd, wzd,
        td1, td2, td3, td4,
        (thrust_cmd[0] - f1) * inv_tau,
        (thrust_cmd[1] - f2) * inv_tau,
        (thrust_cmd[2] - f3) * inv_tau,
        (thrust_cmd[3] - f4) * inv_tau,
    ]


def step_flat(y: np.ndarray, thrust_cmd, tilt_cmd, params: SimParams) -> np.ndarray:
    """One RK4 step on the flat state vector with zero-order-hold commands."""
    dt = params.dt_s
    yl = y.tolist()
    h = 0.5 * dt
    k1 = derivative(yl, thrust_cmd, tilt_cmd, params)
    k2 = derivative([a + h * b for a, b in zip(yl, k1)], thrust_cmd, tilt_cmd, params)
    k3 = derivative([a + h * b for a, b in zip(yl, k2)], thrust_cmd, tilt_cmd, params)
    k4 = derivative([a + dt * b for a, b in zip(yl, k3)], thrust_cmd, tilt_cmd, params)
    w = dt / 6.0
    out = [a + w * (b + 2.0 * (c + d) + e)
           for a, b, c, d, e in zip(yl, k1, k2, k3, k4)]

    nsq = out[6] * out[6] + out[7] * out[7] + out[8] * out[8] + out[9] * out[9]
    if not (nsq > 0 and all(map(math.isfinite, out))):
        raise NonFiniteError("integrator produced non-finite state")
    n = math.sqrt(nsq)
    out[6] /= n
    out[7] /= n
    out[8] /= n
    out[9] /= n
    tlo, thi = params.tilt_angle_range_rad
    flo, fhi = params.thrust_range_n
    # Each clamp is min(hi, max(lo, v)) written out: the same result, the
    # sign of a zero included, without two builtin calls per entry.
    for i in range(13, 17):
        v = out[i]
        v = v if v > tlo else tlo
        out[i] = v if v < thi else thi
    for i in range(17, 21):
        v = out[i]
        v = v if v > flo else flo
        out[i] = v if v < fhi else fhi
    return np.array(out)
