import math

import numpy as np
import pytest

from tiltrl.dynamics import (ActuatorCommand, NonFiniteError, RigidState,
                             SimParams, derivative, euler_zyx,
                             quat_from_euler_zyx, quat_to_rot, step)

PARAMS = SimParams()
F_H = 1.5 * 9.81 / 4  # 3.67875 N


def random_state(rng, tilt_scale=1.0, rate_scale=2.0):
    q = rng.standard_normal(4)
    return RigidState(
        position_m=rng.uniform(-2, 2, 3),
        velocity_mps=rng.uniform(-2, 2, 3),
        orientation=q / np.linalg.norm(q),
        body_rates_radps=rng.uniform(-rate_scale, rate_scale, 3),
        tilt_angles_rad=rng.uniform(-math.pi / 3, math.pi / 3, 4) * tilt_scale,
        thrusts_n=rng.uniform(0, 15, 4),
    )


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
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimParams(**kwargs)


def body_wrench(state, params):
    """Body-frame force (gravity excluded) and torque read off the derivative
    at zero body rates, where the gyroscopic term vanishes:
    force = m R^T (a + g e_z), torque = I omega_dot."""
    y = state.to_flat()
    y[10:13] = 0.0
    d = np.array(derivative(y, state.thrusts_n, np.zeros(4), params))
    r = quat_to_rot(state.orientation)
    force = params.mass_kg * r.T @ (d[3:6] + [0.0, 0.0, params.gravity_mps2])
    torque = np.array(params.inertia_diag) * d[10:13]
    return force, torque


def state_derivative(state, cmd, params):
    """derivative() of a RigidState, split back into its fields."""
    d = np.array(derivative(state.to_flat(), cmd.thrust_cmd_n,
                            cmd.tilt_rate_cmd_radps, params))
    return RigidState.from_flat(d)


class TestBodyWrench:
    def test_equal_thrusts_zero_tilt(self):
        s = RigidState.hover(PARAMS)
        force, torque = body_wrench(s, PARAMS)
        np.testing.assert_allclose(force, [0, 0, 14.715], atol=1e-12)
        np.testing.assert_allclose(torque, [0, 0, 0], atol=1e-12)

    def test_single_tilt_force(self):
        s = RigidState.hover(PARAMS)
        s.tilt_angles_rad[1] = math.pi / 3
        force, _ = body_wrench(s, PARAMS)
        assert force[0] == pytest.approx(F_H * math.sin(math.pi / 3), abs=1e-9)
        assert force[0] == pytest.approx(3.18589, abs=1e-4)
        assert force[1] == pytest.approx(0.0, abs=1e-12)
        assert force[2] == pytest.approx((3 + math.cos(math.pi / 3)) * F_H, abs=1e-9)
        assert force[2] == pytest.approx(12.8756, abs=1e-4)

    def test_differential_thrust_roll_torque(self):
        s = RigidState.hover(PARAMS)
        s.thrusts_n[:] = [F_H, 5.0, F_H, 2.0]
        _, torque = body_wrench(s, PARAMS)
        assert torque[0] == pytest.approx(0.13 * 3.0, abs=1e-12)

    def test_yaw_moment_cancels_with_equal_thrusts(self):
        s = RigidState.hover(PARAMS)
        s.thrusts_n[:] = 7.3
        _, torque = body_wrench(s, PARAMS)
        assert torque[2] == 0.0

    def test_quadcopter_reduction_oracle(self):
        # Independent plus-configuration quadcopter wrench at zero tilt.
        rng = np.random.default_rng(7)
        l, k = PARAMS.arm_length_m, PARAMS.moment_ratio_m
        worst = 0.0
        for _ in range(1000):
            s = random_state(rng, tilt_scale=0.0)
            f1, f2, f3, f4 = s.thrusts_n
            force_o = np.array([0.0, 0.0, f1 + f2 + f3 + f4])
            torque_o = np.array([l * (f2 - f4), l * (f3 - f1),
                                 k * (-f1 + f2 + f3 - f4)])
            force, torque = body_wrench(s, PARAMS)
            worst = max(worst, np.abs(force - force_o).max(),
                        np.abs(torque - torque_o).max())
        assert worst < 1e-12


class TestDerivative:
    def test_hover_equilibrium(self):
        s = RigidState.hover(PARAMS)
        d = state_derivative(s, ActuatorCommand.hover(PARAMS), PARAMS)
        for arr in (d.position_m, d.velocity_mps, d.orientation,
                    d.body_rates_radps, d.tilt_angles_rad, d.thrusts_n):
            np.testing.assert_allclose(arr, 0.0, atol=1e-13)

    def test_principal_axis_spin_no_gyroscopic_torque(self):
        p = SimParams(gravity_mps2=0.0)
        s = RigidState.hover(p)
        s.thrusts_n[:] = 0.0
        s.body_rates_radps[:] = [1.0, 0.0, 0.0]
        d = state_derivative(s, ActuatorCommand(np.zeros(4), np.zeros(4)), p)
        np.testing.assert_allclose(d.body_rates_radps, 0.0, atol=1e-15)

    def test_motor_lag(self):
        s = RigidState.hover(PARAMS)
        s.thrusts_n[:] = 0.0
        cmd = ActuatorCommand(np.full(4, 15.0), np.zeros(4))
        d = state_derivative(s, cmd, PARAMS)
        np.testing.assert_allclose(d.thrusts_n, 300.0, atol=1e-9)

    def test_tilt_rate_passthrough_and_limit(self):
        s = RigidState.hover(PARAMS)
        cmd = ActuatorCommand(np.full(4, F_H), np.array([0.5, -1.0, 0.0, 2.0]))
        d = state_derivative(s, cmd, PARAMS)
        np.testing.assert_allclose(d.tilt_angles_rad, cmd.tilt_rate_cmd_radps)
        s.tilt_angles_rad[0] = PARAMS.tilt_angle_range_rad[1]
        d = state_derivative(s, cmd, PARAMS)
        assert d.tilt_angles_rad[0] == 0.0   # outward command at the limit


class TestStep:
    def test_hover_is_fixed_point(self):
        s = RigidState.hover(PARAMS)
        s2 = step(s, ActuatorCommand.hover(PARAMS), PARAMS)
        np.testing.assert_allclose(s2.to_flat(), s.to_flat(), atol=1e-10)

    def test_free_fall_ballistics(self):
        s = RigidState.hover(PARAMS)
        s.thrusts_n[:] = 0.0
        cmd = ActuatorCommand(np.zeros(4), np.zeros(4))
        for _ in range(100):
            s = step(s, cmd, PARAMS)
        assert s.velocity_mps[2] == pytest.approx(-9.81, abs=1e-6)
        assert s.position_m[2] == pytest.approx(-4.905, abs=1e-4)

    def test_tilt_clamped_at_limit(self):
        s = RigidState.hover(PARAMS)
        s.tilt_angles_rad[0] = PARAMS.tilt_angle_range_rad[1]
        cmd = ActuatorCommand(np.full(4, F_H), np.array([3.0, 0, 0, 0]))
        s2 = step(s, cmd, PARAMS)
        assert s2.tilt_angles_rad[0] == PARAMS.tilt_angle_range_rad[1]

    def test_quaternion_renormalized(self):
        rng = np.random.default_rng(3)
        s = random_state(rng)
        cmd = ActuatorCommand(rng.uniform(0, 15, 4), rng.uniform(-3, 3, 4))
        for _ in range(50):
            s = step(s, cmd, PARAMS)
        assert abs(np.linalg.norm(s.orientation) - 1.0) < 1e-9
        r = quat_to_rot(s.orientation)
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-9)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)

    def test_nonfinite_raises(self):
        s = RigidState.hover(PARAMS)
        s.velocity_mps[0] = math.inf
        with pytest.raises(NonFiniteError):
            step(s, ActuatorCommand.hover(PARAMS), PARAMS)

    def test_conservation_torque_free(self):
        # No thrust, no gravity: momentum constant, rotational KE conserved.
        p = SimParams(gravity_mps2=0.0)
        rng = np.random.default_rng(11)
        s = RigidState.hover(p)
        s.thrusts_n[:] = 0.0
        s.velocity_mps[:] = rng.uniform(-1, 1, 3)
        s.body_rates_radps[:] = rng.uniform(-2, 2, 3)
        cmd = ActuatorCommand(np.zeros(4), np.zeros(4))
        inertia = np.diag(p.inertia_diag)

        def rot_ke(state):
            w = state.body_rates_radps
            return 0.5 * w @ inertia @ w

        v0 = s.velocity_mps.copy()
        ke0 = rot_ke(s)
        for _ in range(1000):   # 10 s
            s = step(s, cmd, p)
        np.testing.assert_allclose(s.velocity_mps, v0, rtol=1e-6, atol=1e-9)
        assert abs(rot_ke(s) - ke0) / ke0 < 1e-6

    def test_rk4_order(self):
        # Halving dt must cut the one-step error vs a fine reference >= 8x.
        rng = np.random.default_rng(5)
        for _ in range(5):
            s = random_state(rng, tilt_scale=0.5, rate_scale=1.0)
            thrust = rng.uniform(2, 10, 4)
            rates = rng.uniform(-1, 1, 4)
            cmd = ActuatorCommand(thrust, rates)

            def advance(dt, n):
                p = SimParams(dt_s=dt)
                st = RigidState.from_flat(s.to_flat())
                for _ in range(n):
                    st = step(st, cmd, p)
                return st.to_flat()

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
