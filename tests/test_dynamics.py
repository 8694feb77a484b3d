import math

import numpy as np
import pytest

from tiltrl.dynamics import (NonFiniteError, SimParams, derivative, euler_zyx,
                             hover_state, quat_from_euler_zyx, quat_to_rot,
                             step_flat)

PARAMS = SimParams()
F_H = 1.5 * 9.81 / 4  # 3.67875 N


HOVER_CMD = (np.full(4, F_H), np.zeros(4))   # thrust and tilt-rate commands
IDLE_CMD = (np.zeros(4), np.zeros(4))


def random_state(rng, tilt_scale=1.0, rate_scale=2.0):
    """Flat state: position, velocity, unit quaternion, body rates, tilt
    angles, thrusts."""
    q = rng.standard_normal(4)
    return np.concatenate([
        rng.uniform(-2, 2, 3),
        rng.uniform(-2, 2, 3),
        q / np.linalg.norm(q),
        rng.uniform(-rate_scale, rate_scale, 3),
        rng.uniform(-math.pi / 3, math.pi / 3, 4) * tilt_scale,
        rng.uniform(0, 15, 4),
    ])


class TestSimParams:
    def test_defaults_valid(self):
        p = SimParams()
        assert p.hover_thrust_n == pytest.approx(F_H, abs=1e-12)

    @pytest.mark.parametrize("kwargs", [
        {"mass_kg": -1.0},
        {"arm_length_m": 0.0},
        {"inertia_diag": (0.01, -0.01, 0.01)},
        {"dt_s": 0.0},
        {"motor_lag_s": 0.001},
        {"thrust_range_n": (-1.0, 15.0)},
        {"tilt_angle_range_rad": (-0.5, 1.0)},
        {"rotor_spin_signs": (1.0, 1.0, 1.0, -1.0)},
        {"tilt_rate_range_radps": (3.0, -3.0)},
        {"tilt_rate_range_radps": (3.0, 3.0)},
        {"tilt_angle_range_rad": (0.5, -0.5)},   # symmetric but inverted
        {"tilt_rate_range_radps": (0.0, 6.0)},   # ordered but not symmetric
        {"moment_ratio_m": 0.0},
        {"mass_kg": 10.0},                     # hover thrust 24.5 N above the range
        {"thrust_range_n": (0.0, 3.0)},        # hover thrust 3.7 N above the range
        {"thrust_range_n": (4.0, 15.0)},       # hover thrust 3.7 N below the range
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimParams(**kwargs)


def body_wrench(y, params):
    """Body-frame force (gravity excluded) and torque read off the derivative
    at zero body rates, where the gyroscopic term vanishes:
    force = m R^T (a + g e_z), torque = I omega_dot."""
    y = y.copy()
    y[10:13] = 0.0
    d = np.array(derivative(y, y[17:21], np.zeros(4), params))
    r = quat_to_rot(y[6:10])
    force = params.mass_kg * r.T @ (d[3:6] + [0.0, 0.0, params.gravity_mps2])
    torque = np.array(params.inertia_diag) * d[10:13]
    return force, torque


class TestBodyWrench:
    def test_equal_thrusts_zero_tilt(self):
        s = hover_state(PARAMS)
        force, torque = body_wrench(s, PARAMS)
        np.testing.assert_allclose(force, [0, 0, 14.715], atol=1e-12)
        np.testing.assert_allclose(torque, [0, 0, 0], atol=1e-12)

    def test_single_tilt_force(self):
        s = hover_state(PARAMS)
        s[14] = math.pi / 3   # tilt of rotor 2
        force, _ = body_wrench(s, PARAMS)
        assert force[0] == pytest.approx(F_H * math.sin(math.pi / 3), abs=1e-9)
        assert force[0] == pytest.approx(3.18589, abs=1e-4)
        assert force[1] == pytest.approx(0.0, abs=1e-12)
        assert force[2] == pytest.approx((3 + math.cos(math.pi / 3)) * F_H, abs=1e-9)
        assert force[2] == pytest.approx(12.8756, abs=1e-4)

    def test_differential_thrust_roll_torque(self):
        s = hover_state(PARAMS)
        s[17:21] = [F_H, 5.0, F_H, 2.0]
        _, torque = body_wrench(s, PARAMS)
        assert torque[0] == pytest.approx(0.13 * 3.0, abs=1e-12)

    def test_yaw_moment_cancels_with_equal_thrusts(self):
        s = hover_state(PARAMS)
        s[17:21] = 7.3
        _, torque = body_wrench(s, PARAMS)
        assert torque[2] == 0.0

    def test_quadcopter_reduction_oracle(self):
        # Independent plus-configuration quadcopter wrench at zero tilt.
        rng = np.random.default_rng(7)
        l, k = PARAMS.arm_length_m, PARAMS.moment_ratio_m
        worst = 0.0
        for _ in range(1000):
            s = random_state(rng, tilt_scale=0.0)
            f1, f2, f3, f4 = s[17:21]
            force_o = np.array([0.0, 0.0, f1 + f2 + f3 + f4])
            torque_o = np.array([l * (f2 - f4), l * (f3 - f1),
                                 k * (-f1 + f2 + f3 - f4)])
            force, torque = body_wrench(s, PARAMS)
            worst = max(worst, np.abs(force - force_o).max(),
                        np.abs(torque - torque_o).max())
        assert worst < 1e-12


class TestDerivative:
    def test_hover_equilibrium(self):
        d = derivative(hover_state(PARAMS), *HOVER_CMD, PARAMS)
        np.testing.assert_allclose(d, 0.0, atol=1e-13)

    def test_principal_axis_spin_no_gyroscopic_torque(self):
        p = SimParams(gravity_mps2=0.0)
        s = hover_state(p)
        s[17:21] = 0.0
        s[10:13] = [1.0, 0.0, 0.0]
        d = np.array(derivative(s, *IDLE_CMD, p))
        np.testing.assert_allclose(d[10:13], 0.0, atol=1e-15)

    def test_motor_lag(self):
        s = hover_state(PARAMS)
        s[17:21] = 0.0
        d = np.array(derivative(s, np.full(4, 15.0), np.zeros(4), PARAMS))
        np.testing.assert_allclose(d[17:21], 300.0, atol=1e-9)

    def test_tilt_rate_passthrough_and_limit(self):
        s = hover_state(PARAMS)
        rates = np.array([0.5, -1.0, 0.0, 2.0])
        d = np.array(derivative(s, np.full(4, F_H), rates, PARAMS))
        np.testing.assert_allclose(d[13:17], rates)
        s[13] = PARAMS.tilt_angle_range_rad[1]
        d = derivative(s, np.full(4, F_H), rates, PARAMS)
        assert d[13] == 0.0   # outward command at the limit


class TestStep:
    def test_hover_is_fixed_point(self):
        s = hover_state(PARAMS)
        np.testing.assert_allclose(step_flat(s, *HOVER_CMD, PARAMS), s, atol=1e-10)

    def test_free_fall_ballistics(self):
        s = hover_state(PARAMS)
        s[17:21] = 0.0
        for _ in range(100):
            s = step_flat(s, *IDLE_CMD, PARAMS)
        assert s[5] == pytest.approx(-9.81, abs=1e-6)    # vertical velocity
        assert s[2] == pytest.approx(-4.905, abs=1e-4)   # altitude

    def test_tilt_clamped_at_limit(self):
        s = hover_state(PARAMS)
        s[13] = PARAMS.tilt_angle_range_rad[1]
        s2 = step_flat(s, np.full(4, F_H), np.array([3.0, 0, 0, 0]), PARAMS)
        assert s2[13] == PARAMS.tilt_angle_range_rad[1]

    def test_quaternion_renormalized(self):
        rng = np.random.default_rng(3)
        s = random_state(rng)
        thrust, rates = rng.uniform(0, 15, 4), rng.uniform(-3, 3, 4)
        for _ in range(50):
            s = step_flat(s, thrust, rates, PARAMS)
        assert abs(np.linalg.norm(s[6:10]) - 1.0) < 1e-9
        r = quat_to_rot(s[6:10])
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-9)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)

    def test_nonfinite_raises(self):
        s = hover_state(PARAMS)
        s[3] = math.inf
        with pytest.raises(NonFiniteError):
            step_flat(s, *HOVER_CMD, PARAMS)

    def test_conservation_torque_free(self):
        # No thrust, no gravity: momentum constant, rotational KE conserved.
        p = SimParams(gravity_mps2=0.0)
        rng = np.random.default_rng(11)
        s = hover_state(p)
        s[17:21] = 0.0
        s[3:6] = rng.uniform(-1, 1, 3)
        s[10:13] = rng.uniform(-2, 2, 3)
        inertia = np.diag(p.inertia_diag)

        def rot_ke(y):
            w = y[10:13]
            return 0.5 * w @ inertia @ w

        v0 = s[3:6].copy()
        ke0 = rot_ke(s)
        for _ in range(1000):   # 10 s
            s = step_flat(s, *IDLE_CMD, p)
        np.testing.assert_allclose(s[3:6], v0, rtol=1e-6, atol=1e-9)
        assert abs(rot_ke(s) - ke0) / ke0 < 1e-6

    def test_rk4_order(self):
        # Halving dt must cut the one-step error vs a fine reference >= 8x.
        rng = np.random.default_rng(5)
        for _ in range(5):
            s = random_state(rng, tilt_scale=0.5, rate_scale=1.0)
            thrust = rng.uniform(2, 10, 4)
            rates = rng.uniform(-1, 1, 4)

            def advance(dt, n):
                p = SimParams(dt_s=dt)
                st = s
                for _ in range(n):
                    st = step_flat(st, thrust, rates, p)
                return st

            ref = advance(0.01 / 100, 100)
            e_full = np.abs(advance(0.01, 1) - ref).max()
            e_half = np.abs(advance(0.005, 2) - ref).max()
            assert e_full / e_half >= 8.0


class TestEulerZyx:
    def test_identity(self):
        assert euler_zyx(np.array([1.0, 0, 0, 0])) == (0.0, 0.0, 0.0)

    def test_pure_yaw(self):
        q = quat_from_euler_zyx(0.0, 0.0, math.pi / 2)
        roll, pitch, yaw = euler_zyx(q)
        assert (roll, pitch) == (0.0, 0.0)
        assert yaw == pytest.approx(math.pi / 2, abs=1e-12)

    def test_round_trip(self):
        q = quat_from_euler_zyx(0.1, 0.2, 0.3)
        roll, pitch, yaw = euler_zyx(q)
        assert roll == pytest.approx(0.1, abs=1e-9)
        assert pitch == pytest.approx(0.2, abs=1e-9)
        assert yaw == pytest.approx(0.3, abs=1e-9)

    def test_round_trip_random(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            roll, pitch, yaw = euler_zyx(q)
            q2 = quat_from_euler_zyx(roll, pitch, yaw)
            np.testing.assert_allclose(quat_to_rot(q2), quat_to_rot(q), atol=1e-8)
            assert -math.pi / 2 <= pitch <= math.pi / 2

    def test_gimbal_lock_convention(self):
        q = quat_from_euler_zyx(0.4, math.pi / 2, 0.0)
        roll, pitch, yaw = euler_zyx(q)
        assert yaw == 0.0
        assert pitch == pytest.approx(math.pi / 2, abs=1e-9)
        q2 = quat_from_euler_zyx(roll, pitch, yaw)
        np.testing.assert_allclose(quat_to_rot(q2), quat_to_rot(q), atol=1e-6)


def clamped_rk4_reference(y, thrust_cmd, tilt_cmd, p):
    """RK4 step with quaternion renormalization and the tilt and thrust
    clamps written as builtin min(hi, max(lo, v)), in step_flat's order of
    operations."""
    y, dt = list(y), p.dt_s
    k1 = derivative(y, thrust_cmd, tilt_cmd, p)
    k2 = derivative([a + 0.5 * dt * b for a, b in zip(y, k1)], thrust_cmd, tilt_cmd, p)
    k3 = derivative([a + 0.5 * dt * b for a, b in zip(y, k2)], thrust_cmd, tilt_cmd, p)
    k4 = derivative([a + dt * b for a, b in zip(y, k3)], thrust_cmd, tilt_cmd, p)
    out = [a + dt / 6.0 * (b + 2.0 * (c + d) + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)]
    n = math.sqrt(out[6] * out[6] + out[7] * out[7] + out[8] * out[8] + out[9] * out[9])
    out[6:10] = [v / n for v in out[6:10]]
    (tlo, thi), (flo, fhi) = p.tilt_angle_range_rad, p.thrust_range_n
    out[13:17] = [min(thi, max(tlo, v)) for v in out[13:17]]
    out[17:21] = [min(fhi, max(flo, v)) for v in out[17:21]]
    return np.array(out)


def test_step_clamps_match_builtin_min_max_bit_for_bit():
    # Tilts and thrusts start outside their ranges, and -0.0 entries meet
    # zero-valued bounds of the other sign (a degenerate but valid tilt range
    # and thrust floor), where the sign of the clamped zero depends on which
    # operand a clamp returns on a tie.
    rng = np.random.default_rng(17)
    signed_zero_bounds = SimParams(thrust_range_n=(-0.0, 15.0), tilt_angle_range_rad=(-0.0, 0.0))
    zeros_out = 0
    for p in (PARAMS, signed_zero_bounds):
        for i in range(300):
            y = random_state(rng, tilt_scale=1.5)
            y[17:21] = rng.uniform(-5.0, 20.0, 4)
            thrust = rng.uniform(-5.0, 20.0, 4)
            rates = rng.uniform(-4.0, 4.0, 4)
            zeros = rng.random(8) < 0.5
            if i % 2:
                y[13:21][zeros] = 0.0
                thrust[zeros[4:]] = 0.0
                rates[zeros[:4]] = -0.0
                y[13:17][zeros[:4]] = -0.0
            got = step_flat(y, thrust, rates, p)
            want = clamped_rk4_reference(y, thrust.tolist(), rates.tolist(), p)
            assert got.tobytes() == want.tobytes(), i
            zeros_out += int(np.sum(got[13:21] == 0.0))
    assert zeros_out > 100
