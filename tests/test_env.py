import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tiltrl.env
from tiltrl.dynamics import (SimParams, euler_zyx, hover_state,
                             quat_from_euler_zyx, quat_to_rot)
from tiltrl.env import (EpisodeConfig, HoverEnv, Platform,
                        RewardWeights, TermStatus, actuator_command,
                        observation, random_unit_quat, reset_state, reward,
                        termination, trace_row)

PARAMS = SimParams()
WEIGHTS = RewardWeights()
CFG = EpisodeConfig()


def make_env(platform=Platform.QUAD, seed=0, cfg=CFG):
    return HoverEnv(platform, PARAMS, cfg, WEIGHTS, np.random.default_rng(seed))


class TestObserve:
    def test_at_target_level_rest(self):
        s = hover_state(PARAMS, position=CFG.target_position_m)
        obs = observation(s, CFG.target_position_m, Platform.TILT_ROTOR)
        np.testing.assert_allclose(obs[0:3], 0.0)      # position error
        np.testing.assert_allclose(obs[3:6], 0.0)      # velocity error
        np.testing.assert_allclose(obs[15:18], 0.0)    # body-rate error
        np.testing.assert_allclose(obs[18:22], 0.0)    # tilt error
        np.testing.assert_allclose(obs[6:15], np.eye(3).reshape(9))

    def test_position_error_convention(self):
        s = hover_state(PARAMS, position=(1.0, 2.0, 3.0))
        obs = observation(s, (0.0, 0.0, 5.0), Platform.QUAD)
        np.testing.assert_allclose(obs[0:3], [1.0, 2.0, -2.0])

    def test_dimensions(self):
        s = hover_state(PARAMS)
        # The quadcopter observation has no tilt-error block.
        assert observation(s, CFG.target_position_m, Platform.QUAD).shape == (18,)
        assert observation(s, CFG.target_position_m, Platform.TILT_ROTOR).shape == (22,)

    def test_dimension_constant_over_episode(self):
        for platform in Platform:
            env = make_env(platform)
            obs = env.reset(0)
            for _ in range(50):
                assert obs.shape == (platform.obs_dim,)
                obs, _, status = env.step(np.zeros(platform.act_dim))
                if status is not TermStatus.RUNNING:
                    obs = env.reset(env.episodes)


def scale_thrust(a, params):
    """Thrust command of rotor 1 for the action value a on every actuator."""
    _, thrust, _ = actuator_command(np.full(8, a), Platform.TILT_ROTOR, params)
    return thrust[0]


def scale_tilt_rate(a, params):
    """Tilt-rate command of servo 1 for the action value a on every actuator."""
    _, _, rates = actuator_command(np.full(8, a), Platform.TILT_ROTOR, params)
    return rates[0]


class TestActionScaling:
    def test_zero_maps_to_hover(self):
        assert scale_thrust(0.0, PARAMS) == pytest.approx(3.67875, abs=1e-12)

    def test_full_scale(self):
        assert scale_thrust(1.0, PARAMS) == pytest.approx(11.17875, abs=1e-12)

    def test_negative_clamped_to_min(self):
        assert scale_thrust(-1.0, PARAMS) == 0.0

    def test_tilt_rate(self):
        assert scale_tilt_rate(0.0, PARAMS) == 0.0
        assert scale_tilt_rate(1.0, PARAMS) == pytest.approx(3.0)
        assert scale_tilt_rate(-0.5, PARAMS) == pytest.approx(-1.5)

    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert scale_thrust(lo, PARAMS) <= scale_thrust(hi, PARAMS)
        assert scale_tilt_rate(lo, PARAMS) <= scale_tilt_rate(hi, PARAMS)

    def test_action_clamped_before_scaling(self):
        a, thrust, rates = actuator_command(np.full(8, 2.0), Platform.TILT_ROTOR, PARAMS)
        np.testing.assert_array_equal(a, 1.0)
        assert thrust[0] == scale_thrust(1.0, PARAMS)
        assert rates[0] == scale_tilt_rate(1.0, PARAMS)

    def test_quad_has_zero_tilt_rates(self):
        _, _, rates = actuator_command(np.ones(4), Platform.QUAD, PARAMS)
        assert rates == [0.0] * 4

    def test_clamps_match_np_clip_bit_for_bit(self):
        # NaN must propagate, and at a zero hover thrust against a -0.0
        # thrust floor the clamp must return np.clip's zero.
        specials = [math.nan, -0.0, 0.0, math.inf, -math.inf, 1.0, -1.0, 1.5, -1.5, 5e-324]
        rng = np.random.default_rng(4)
        zero_hover = SimParams(thrust_range_n=(-0.0, 15.0), gravity_mps2=0.0)
        for p in (PARAMS, zero_hover):
            flo, fhi = p.thrust_range_n
            for _ in range(200):
                action = np.where(rng.random(8) < 0.5, rng.choice(specials, 8),
                                  rng.uniform(-2.0, 2.0, 8))
                a, thrust, rates = actuator_command(action, Platform.TILT_ROTOR, p)
                want_a = np.clip(action, -1.0, 1.0)
                want_thrust = np.clip(p.hover_thrust_n + want_a[:4] * (fhi - flo) / 2.0,
                                      flo, fhi)
                want_rates = want_a[4:8] * 6.0 / 2.0
                assert a.tobytes() == want_a.tobytes()
                assert np.array(thrust).tobytes() == want_thrust.tobytes()
                assert np.array(rates).tobytes() == want_rates.tobytes()


class TestReward:
    def zero_obs(self, platform):
        s = hover_state(PARAMS, position=CFG.target_position_m)
        return observation(s, CFG.target_position_m, platform)

    def test_at_goal_zero_action(self):
        obs = self.zero_obs(Platform.QUAD)
        assert reward(obs, np.zeros(4), WEIGHTS) == 5.0

    def test_position_penalty(self):
        obs = self.zero_obs(Platform.QUAD)
        obs[0:3] = [1.0, 0.0, 0.0]
        assert reward(obs, np.zeros(4), WEIGHTS) == pytest.approx(4.0)

    def test_tilt_penalty(self):
        obs = self.zero_obs(Platform.TILT_ROTOR)
        obs[0:3] = [1.0, 0.0, 0.0]
        obs[18:22] = [0.4, 0.0, 0.0, 0.0]
        r = reward(obs, np.zeros(8), WEIGHTS)
        assert r == pytest.approx(3.8)

    def test_action_penalty(self):
        obs = self.zero_obs(Platform.QUAD)
        a = np.array([2.0, 0.0, 0.0, 0.0])  # ||a|| = 2
        assert reward(obs, a, WEIGHTS) == pytest.approx(4.5)

    def test_upper_bound_beta(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            obs = self.zero_obs(Platform.TILT_ROTOR)
            obs[0:3] = rng.uniform(-2, 2, 3)
            obs[3:6] = rng.uniform(-2, 2, 3)
            obs[15:18] = rng.uniform(-2, 2, 3)
            obs[18:22] = rng.uniform(-1, 1, 4)
            a = rng.uniform(-1, 1, 8)
            euler = rng.uniform(-1, 1, 3)
            obs[6:15] = quat_to_rot(quat_from_euler_zyx(*euler)).reshape(9)
            assert reward(obs, a, WEIGHTS) <= WEIGHTS.beta

    def test_yaw_invariance(self):
        rng = np.random.default_rng(4)
        s = hover_state(PARAMS, position=(0.4, -0.2, 5.3))
        s[6:10] = quat_from_euler_zyx(0.2, -0.3, 0.7)
        s[3:6] = rng.uniform(-1, 1, 3)
        obs = observation(s, CFG.target_position_m, Platform.QUAD)
        r0 = reward(obs, np.zeros(4), WEIGHTS)
        for dyaw in (0.5, 1.5, 3.0):
            s2 = s.copy()
            s2[6:10] = quat_from_euler_zyx(0.2, -0.3, 0.7 + dyaw)
            obs2 = observation(s2, CFG.target_position_m, Platform.QUAD)
            r1 = reward(obs2, np.zeros(4), WEIGHTS)
            assert r1 == pytest.approx(r0, abs=1e-12)


class TestReset:
    def test_so3_warmup_then_shrunk(self):
        rng = np.random.default_rng(0)
        # Warmup episodes can be upside down; afterwards Euler bounded.
        found_inverted = False
        for _ in range(300):
            s = reset_state(rng, CFG, 0, PARAMS)
            roll, pitch, yaw = euler_zyx(s[6:10])
            if abs(roll) > 2.8:
                found_inverted = True
        assert found_inverted
        for _ in range(300):
            s = reset_state(rng, CFG, 600, PARAMS)
            roll, pitch, yaw = euler_zyx(s[6:10])
            bound = CFG.euler_init_range_rad + 1e-9
            assert abs(roll) <= bound and abs(pitch) <= bound and abs(yaw) <= bound

    def test_ranges(self):
        rng = np.random.default_rng(1)
        lo = np.array(CFG.target_position_m) - 1.0
        hi = np.array(CFG.target_position_m) + 1.0
        for ep in (0, 600):
            for _ in range(500):
                s = reset_state(rng, CFG, ep, PARAMS)
                assert s.shape == (21,)
                assert np.all(s[0:3] >= lo) and np.all(s[0:3] <= hi)
                assert np.linalg.norm(s[3:6]) <= 1.0 + 1e-12
                assert np.linalg.norm(s[10:13]) <= 1.0 + 1e-12
                np.testing.assert_allclose(s[13:17], 0.0)
                np.testing.assert_allclose(s[17:21], PARAMS.hover_thrust_n)

    @pytest.mark.parametrize("key, part, at_zero", [
        ("init_speed_max_mps", slice(3, 6), [0.0, 0.0, 0.0]),
        ("init_rate_max_radps", slice(10, 13), [0.0, 0.0, 0.0]),
        ("euler_init_range_rad", slice(6, 10), [1.0, 0.0, 0.0, 0.0]),
        ("so3_warmup_episodes", slice(6, 10), [1.0, 0.0, 0.0, 0.0])])
    def test_negative_range_rejected_zero_kept(self, key, part, at_zero):
        with pytest.raises(ValueError, match=key):
            EpisodeConfig(**{key: -1})
        # Without warm-up, episode 0 already draws from the Euler range, here
        # zero wide too; the default warm-up would draw it uniform on SO(3).
        cfg = EpisodeConfig(**{"so3_warmup_episodes": 0, "euler_init_range_rad": 0.0, key: 0})
        s = reset_state(np.random.default_rng(0), cfg, 0, PARAMS)
        assert s[part].tolist() == at_zero

    def test_so3_mean_rotation_angle(self):
        # Brute-force oracle: mean angle of uniform SO(3) by numeric
        # integration of theta * (1-cos theta)/pi over [0, pi].
        thetas = np.linspace(0.0, math.pi, 20001)
        density = (1.0 - np.cos(thetas)) / math.pi
        oracle = np.trapezoid(thetas * density, thetas)
        assert oracle == pytest.approx((math.pi ** 2 + 4) / (2 * math.pi), abs=1e-6)

        rng = np.random.default_rng(9)
        n = 100_000
        q = rng.standard_normal((n, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        angles = 2.0 * np.arccos(np.clip(np.abs(q[:, 0]), -1.0, 1.0))
        assert abs(angles.mean() - oracle) < 0.02


class TestTerminated:
    def test_max_steps(self):
        s = hover_state(PARAMS, position=CFG.target_position_m)
        assert termination(s, 1500, CFG) is TermStatus.MAX_STEPS

    def test_out_of_bounds(self):
        s = hover_state(PARAMS, position=(0, 0, 7.0))
        assert termination(s, 10, CFG) is TermStatus.OUT_OF_BOUNDS

    def test_out_of_bounds_outranks_the_step_limit(self):
        # A state that left the box on the last step is terminal: the
        # rollout must not bootstrap it as if a time limit had cut it.
        s = hover_state(PARAMS, position=(0, 0, 7.0))
        assert termination(s, 1500, CFG) is TermStatus.OUT_OF_BOUNDS

    def test_running(self):
        s = hover_state(PARAMS, position=CFG.target_position_m)
        assert termination(s, 10, CFG) is TermStatus.RUNNING


class TestHoverEnv:
    def test_reset_passes_its_index_and_counts_the_episode(self, monkeypatch):
        seen = []

        def spy(rng, cfg, episode_index, params):
            seen.append(episode_index)
            return reset_state(rng, cfg, episode_index, params)

        monkeypatch.setattr(tiltrl.env, "reset_state", spy)
        env = make_env()
        for n, i in enumerate([7, 600, 7], start=1):
            env.reset(i)
            assert seen[-1] == i and env.episodes == n

    def test_step_statuses(self):
        env = make_env(cfg=EpisodeConfig(max_steps=5))
        env.reset(0)
        status = TermStatus.RUNNING
        for _ in range(5):
            _, _, status = env.step(np.zeros(4))
            if status is not TermStatus.RUNNING:
                break
        assert status in (TermStatus.MAX_STEPS, TermStatus.OUT_OF_BOUNDS)

    def test_episode_return_is_the_sum_of_its_rewards(self):
        env = make_env(seed=5)
        env.reset(0)
        rng = np.random.default_rng(5)
        total, status = 0.0, TermStatus.RUNNING
        while status is TermStatus.RUNNING:
            _, r, status = env.step(rng.uniform(-1.0, 1.0, 4))
            total += r
            assert env.episode_return == total
        assert env.t > 1
        env.reset(env.episodes)
        assert env.episode_return == 0.0 and env.t == 0

    def test_trace_schema(self, tmp_path):
        from tiltrl.env import TRACE_HEADER, trace_row
        from tiltrl.neuralnet import write_rows
        env = make_env(Platform.TILT_ROTOR)
        env.reset(0)
        rows = []
        for t in range(5):
            a = np.zeros(8)
            _, r, _ = env.step(a)
            rows.append(trace_row(t, env.y, a, r))
        path = tmp_path / "trace.csv"
        write_rows(path, TRACE_HEADER, rows)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 6
        assert all(len(line.split(",")) == len(TRACE_HEADER.split(","))
                   for line in lines)

    def test_trace_row_formats_like_format_spec(self):
        # Each value as f"{v:.9g}": random bit patterns plus signed zeros,
        # infinities, NaN, the smallest subnormal and a huge value, in the
        # state, the actions (quad actions padded with zeros) and the reward.
        rng = np.random.default_rng(8)
        specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300, -1e300]
        for t in range(300):
            vals = rng.integers(0, 2**64, 26, dtype=np.uint64).view(np.float64)
            mask = rng.random(26) < 0.3
            vals[mask] = rng.choice(specials, 26)[mask]
            y = np.concatenate([vals[0:6], random_unit_quat(rng), vals[6:17]])
            action = vals[17:21] if t % 2 else vals[17:25]
            padded = np.concatenate([action, np.zeros(8 - len(action))])
            fields = [*y[0:6], *euler_zyx(y[6:10]), *y[10:21], *padded, vals[25]]
            want = f"{t}," + ",".join(f"{v:.9g}" for v in fields)
            assert trace_row(t, y, action, vals[25]) == want
