import math
import re
import warnings

import numpy as np
import pytest

import tiltrl.neuralnet as nn
from tiltrl import evalsuite as ev
from tiltrl.dynamics import SimParams, hover_state, quat_from_euler_zyx
from tiltrl.env import TRACE_HEADER, Platform, TermStatus


def zero_actor(platform=Platform.TILT_ROTOR):
    """Actor whose mean action is exactly zero everywhere (hover command)."""
    net = nn.make_mlp([platform.obs_dim, 8, platform.act_dim],
                      np.random.default_rng(0), output_tanh=True)
    net.weights[-1][:] = 0.0
    net.biases[-1][:] = 0.0
    return net


def blowup_actor():
    """Untrained tilt-rotor actor whose trials spin the vehicle up until RK4
    overflows when nothing stops them."""
    return nn.make_mlp([22, 64, 64, 8], np.random.default_rng(22), output_tanh=True)


def pid_command(p):
    """_run_to_goal command function: the PID baseline, zero action vector."""
    return lambda y, target: (np.zeros(4), *ev.pid_controller(y, target, p))


class TestPidController:
    def test_hover_equilibrium(self):
        p = SimParams()
        st = hover_state(p, (0.0, 0.0, 3.0))
        thrust, rates = ev.pid_controller(st, (0.0, 0.0, 3.0), p)
        np.testing.assert_allclose(thrust, p.hover_thrust_n, atol=1e-12)
        np.testing.assert_allclose(rates, 0.0, atol=1e-12)

    def test_below_target_commands_more_thrust(self):
        p = SimParams()
        st = hover_state(p, (0.0, 0.0, 2.0))
        thrust, _ = ev.pid_controller(st, (0.0, 0.0, 3.0), p)
        assert all(f > p.hover_thrust_n for f in thrust)
        # Symmetric demand: all four rotors equal.
        np.testing.assert_allclose(thrust, thrust[0])

    def test_tilt_rates_oppose_tilt(self):
        p = SimParams()
        st = hover_state(p, (0.0, 0.0, 3.0))
        st[13:17] = [0.2, -0.1, 0.0, 0.3]
        _, rates = ev.pid_controller(st, (0.0, 0.0, 3.0), p)
        assert rates[0] < 0
        assert rates[1] > 0
        assert rates[2] == 0
        assert rates[3] < 0

    def test_thrust_clamped_to_range(self):
        p = SimParams()
        st = hover_state(p, (0.0, 0.0, 0.0))
        st[3:6] = [0.0, 0.0, -20.0]
        thrust, _ = ev.pid_controller(st, (0.0, 0.0, 50.0), p)
        lo, hi = p.thrust_range_n
        assert all(lo <= f <= hi for f in thrust)

    def test_x_step_response_settles(self, monkeypatch):
        p = SimParams()
        st = hover_state(p, (0.0, 0.0, 3.0))
        monkeypatch.setattr(ev, "MAX_EVAL_STEPS", 1500)
        monkeypatch.setattr(ev, "SUCCESS_TOLERANCE_M", 0.1)
        _, end, steps, _ = ev._run_to_goal(pid_command(p), st, (1.0, 0.0, 3.0), p)
        assert end is TermStatus.REACHED and 0 < steps < 1500

    def test_attitude_recovery_from_roll(self):
        p = SimParams()
        st = hover_state(p, (0.0, 0.0, 3.0))
        st[6:10] = quat_from_euler_zyx(0.3, 0.0, 0.0)
        _, end, _, _ = ev._run_to_goal(pid_command(p), st, (0.0, 0.0, 3.0), p)
        assert end is TermStatus.REACHED


class TestRunToGoal:
    def test_immediate_success_at_target(self):
        p = SimParams()
        st = hover_state(p, (0.0, 0.0, 3.0))
        _, end, steps, _ = ev._run_to_goal(pid_command(p), st, (0.0, 0.0, 3.0), p)
        assert end is TermStatus.REACHED and steps == 0

    def test_stops_at_reach(self):
        p = SimParams()
        st = hover_state(p, (0.0, 0.0, 3.0))
        _, end, steps, rows = ev._run_to_goal(pid_command(p), st, (1.0, 0.0, 3.0), p,
                                              record_trace=True)
        assert end is TermStatus.REACHED
        assert len(rows) == steps

    def test_commands_are_handed_the_callers_tuple(self, monkeypatch):
        p, target = SimParams(), (1.0, 0.0, 3.0)
        monkeypatch.setattr(ev, "MAX_EVAL_STEPS", 5)
        seen = []

        def cmd(y, goal):
            seen.append(goal)
            return pid_command(p)(y, goal)

        ev._run_to_goal(cmd, hover_state(p, (0.0, 0.0, 3.0)), target, p)
        assert len(seen) == 5 and all(goal is target for goal in seen)

    def test_budget_exhaustion_fails(self, monkeypatch):
        p = SimParams()
        st = hover_state(p, (0.0, 0.0, 3.0))
        monkeypatch.setattr(ev, "MAX_EVAL_STEPS", 50)
        _, end, steps, _ = ev._run_to_goal(pid_command(p), st, (100.0, 0.0, 3.0), p)
        assert end is TermStatus.MAX_STEPS and steps == -1

    def test_reach_decision_at_the_tolerance_is_the_norms(self, monkeypatch):
        # Points on the 0.2 m sphere and one ulp of radius inside and
        # outside it. The decision must be np.linalg.norm(...) <= tol; the
        # corpus holds points where a scalar squared-distance test decides
        # otherwise, so a goal test that skips the norm fails here.
        p, tol = SimParams(), ev.SUCCESS_TOLERANCE_M
        monkeypatch.setattr(ev, "MAX_EVAL_STEPS", 0)
        target = np.array([0.3, -0.2, 3.0])
        rng = np.random.default_rng(12)
        scalar_differs = 0
        for _ in range(300):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            for radius in (np.nextafter(tol, 0.0), tol, np.nextafter(tol, 1.0)):
                st = hover_state(p, target + u * radius)
                d = st[0:3] - target
                want = bool(np.linalg.norm(d) <= tol)
                _, end, steps, _ = ev._run_to_goal(pid_command(p), st, target, p)
                assert (end is TermStatus.REACHED) == want and steps == (0 if want else -1)
                d0, d1, d2 = d.tolist()
                scalar_differs += (d0 * d0 + d1 * d1 + d2 * d2 <= tol * tol) != want
        assert scalar_differs > 0


class TestEnvelope:
    @pytest.mark.parametrize("block, value", [(slice(3, 6), (0.0, 60.0, 0.0)),
                                              (slice(10, 13), (0.0, 0.0, 150.0))])
    def test_state_past_a_bound_ends_after_one_step(self, block, value):
        p = SimParams()
        st = hover_state(p, (0.0, 0.0, 3.0))
        st[block] = value
        target = (5.0, 0.0, 3.0)
        _, end, steps, rows = ev._run_to_goal(pid_command(p), st, target, p,
                                              record_trace=True)
        assert end is TermStatus.DIVERGED and steps == -1
        assert len(rows) == 1

    @pytest.mark.parametrize("speed, rate", [(50.0, 100.0), (50.0, math.inf),
                                             (math.inf, 100.0)])
    def test_rows_are_a_prefix_ending_at_the_first_crossing(self, monkeypatch, speed, rate):
        # Oracle: with both bounds at infinity the envelope never fires, and
        # the loop integrates the lost vehicle until RK4 overflows (warnings
        # silenced there). With the bounds in place the trial must stop at
        # the first post-step state past an enabled bound, keeping its row.
        p = SimParams()
        actor = blowup_actor()
        start = hover_state(p, (0.5, -0.3, 2.6))

        def run(seen):
            def cmd(y, target):
                seen.append(y)
                return ev.policy_command(actor, y, target, Platform.TILT_ROTOR, p)
            return ev._run_to_goal(cmd, start, ev.HOVER_TARGET, p, record_trace=True)

        monkeypatch.setattr(ev, "MAX_SPEED_MPS", math.inf)
        monkeypatch.setattr(ev, "MAX_BODY_RATE_RADPS", math.inf)
        seen = []
        with np.errstate(all="ignore"):
            final, end, _, oracle = run(seen)
        # The overflowing step raised, so the trial ended on the state it
        # was commanded from; every step before it left one row.
        assert end is TermStatus.DIVERGED and final is seen[-1]
        post = seen[1:]                     # post[k]: the state after step k + 1
        assert len(post) == len(oracle)

        def past(y):
            vx, vy, vz = y[3:6].tolist()
            wx, wy, wz = y[10:13].tolist()
            return (vx * vx + vy * vy + vz * vz > speed * speed
                    or wx * wx + wy * wy + wz * wz > rate * rate)
        k = next(i for i, y in enumerate(post) if past(y))
        assert 0 < k < len(oracle) - 1

        monkeypatch.setattr(ev, "MAX_SPEED_MPS", speed)
        monkeypatch.setattr(ev, "MAX_BODY_RATE_RADPS", rate)
        final, end, steps, rows = run([])
        assert end is TermStatus.DIVERGED and steps == -1
        assert rows == oracle[:k + 1]
        np.testing.assert_array_equal(final, post[k])

    def test_protocols_on_a_blowing_up_actor_warn_nothing(self):
        p = SimParams()
        actor = blowup_actor()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            hover = ev.run_hover_eval(actor, p, 2, seed=7)
            _, ablation = ev.run_fault_ablation(actor, 2, 2, p, seed=7)
            mission = ev.run_waypoint_mission(actor, ev.SQUARE_MISSION, p)
        for r in hover + ablation:
            assert r.end is TermStatus.DIVERGED and math.isfinite(r.final_error_m)
        assert mission.hits == [False]


class TestHoverEval:
    def test_deterministic_and_seeded(self):
        actor = zero_actor(Platform.QUAD)
        p = SimParams()
        a = ev.run_hover_eval(actor, p, 5, seed=9)
        b = ev.run_hover_eval(actor, p, 5, seed=9)
        assert [r.final_error_m for r in a] == [r.final_error_m for r in b]
        c = ev.run_hover_eval(actor, p, 5, seed=10)
        assert [r.final_error_m for r in a] != [r.final_error_m for r in c]

    def test_trial_fields(self):
        actor = zero_actor(Platform.QUAD)
        results = ev.run_hover_eval(actor, SimParams(), 3, seed=1)
        assert [r.trial for r in results] == [0, 1, 2]
        for r in results:
            assert r.final_error_m >= 0.0
            assert isinstance(r.success, bool)

    def test_traces_recorded_on_request(self, tmp_path):
        actor = zero_actor(Platform.QUAD)
        results = ev.run_hover_eval(actor, SimParams(), 2,
                                    seed=1, trace_dir=str(tmp_path))
        n_cols = len(TRACE_HEADER.split(","))
        for r in results:
            lines = (tmp_path / f"hover_trace_{r.trial:03d}.csv").read_text().splitlines()
            assert lines[0] == TRACE_HEADER
            assert len(lines) > 1
            assert all(len(row.split(",")) == n_cols for row in lines)


class TestActorPlatform:
    def test_platform_from_input_width(self):
        assert ev.actor_platform(zero_actor(Platform.QUAD)) is Platform.QUAD
        assert ev.actor_platform(zero_actor()) is Platform.TILT_ROTOR

    def test_other_width_rejected(self):
        actor = nn.make_mlp([10, 8, 4], np.random.default_rng(0))
        with pytest.raises(nn.ShapeMismatchError, match="10"):
            ev.actor_platform(actor)
        with pytest.raises(nn.ShapeMismatchError):
            ev.run_waypoint_mission(actor, ev.SQUARE_MISSION, SimParams())
        with pytest.raises(nn.ShapeMismatchError):
            ev.run_hover_eval(actor, SimParams(), 1, seed=0)

    @pytest.mark.parametrize("sizes", [[22, 8, 4], [18, 8, 8]])
    def test_output_width_of_other_platform_rejected(self, sizes):
        # One platform's observation width with the other's action width.
        actor = nn.make_mlp(sizes, np.random.default_rng(0))
        with pytest.raises(nn.ShapeMismatchError, match=re.escape(str(sizes))):
            ev.actor_platform(actor)
        with pytest.raises(nn.ShapeMismatchError):
            ev.run_waypoint_mission(actor, ev.SQUARE_MISSION, SimParams())
        with pytest.raises(nn.ShapeMismatchError):
            ev.run_hover_eval(actor, SimParams(), 1, seed=0)


class TestFaultAblation:
    def test_requires_tilt_actor(self):
        with pytest.raises(nn.ShapeMismatchError):
            ev.run_fault_ablation(zero_actor(Platform.QUAD), 1, 2,
                                  SimParams(), seed=0)

    def test_pairing_identical_across_policies(self):
        # Two different actors with the same seed must see identical faulty
        # servos and identical initial states.
        p = SimParams()
        a1 = zero_actor()
        a2 = nn.make_mlp([22, 8, 8], np.random.default_rng(5), output_tanh=True)
        _, r1 = ev.run_fault_ablation(a1, 2, 4, p, seed=3)
        _, r2 = ev.run_fault_ablation(a2, 2, 4, p, seed=3)
        assert [r.servo_ids for r in r1] == [r.servo_ids for r in r2]

    def test_faulty_servo_count(self):
        p = SimParams()
        for n in (1, 2, 3, 4):
            _, results = ev.run_fault_ablation(zero_actor(), n, 2, p, seed=0)
            assert all(len(r.servo_ids) == n for r in results)
            assert all(len(set(r.servo_ids)) == n for r in results)

    def test_response_probability_zero_freezes_tilt(self, tmp_path, monkeypatch):
        # A dead servo (response probability 0) never moves: with all four
        # servos faulty and a constant tilt command, tilt angles stay at the
        # zero initialization. The trace's tilt columns show every step.
        actor = zero_actor()
        actor.biases[-1][4:] = 0.5
        tilt = [TRACE_HEADER.split(",").index(f"tilt{i}") for i in (1, 2, 3, 4)]

        def tilts(probability):
            monkeypatch.setattr(ev, "FAULT_RESPONSE_PROBABILITY", probability)
            trace_dir = tmp_path / str(probability)
            trace_dir.mkdir()
            ev.run_hover_eval(actor, SimParams(), 2, seed=2, trace_dir=str(trace_dir),
                              n_faulty=4)
            return np.vstack([np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, tilt]
                              for path in sorted(trace_dir.iterdir())])

        dead = tilts(0.0)
        assert dead.size and not dead.any()
        assert tilts(1.0)[-1].all()

    def test_success_count_matches_results(self):
        p = SimParams()
        succ, results = ev.run_fault_ablation(zero_actor(), 1, 5, p, seed=0)
        assert succ == sum(r.success for r in results)


class TestTrialIndependence:
    def test_a_trial_does_not_depend_on_the_process_that_ran_it(self, tmp_path, monkeypatch):
        # fork_map hands trials 2.. to whichever process is free first, so
        # a trial's process depends on the trial count and on timing.
        p = SimParams()
        actor = nn.make_mlp([22, 16, 8], np.random.default_rng(4), output_tanh=True)

        def first_three(n, tag):
            (tmp_path / tag).mkdir()
            _, ablation = ev.run_fault_ablation(actor, 2, n, p, seed=12)
            hover = ev.run_hover_eval(actor, p, n, seed=12, trace_dir=str(tmp_path / tag))
            traces = [(tmp_path / tag / f"hover_trace_{k:03d}.csv").read_bytes()
                      for k in range(3)]
            return ablation[:3], hover[:3], traces

        five, three = first_three(5, "five"), first_three(3, "three")
        monkeypatch.setattr(nn, "fork_map", lambda fn, n: [fn(i) for i in range(n)])
        assert five == three == first_three(3, "in_process")


class TestWaypointMission:
    def test_default_square(self):
        m = ev.SQUARE_MISSION
        assert len(m) == 4
        assert all(w[2] == 3.0 for w in m)
        # Corners of a 2 m square around the origin, flown in turn.
        assert {(abs(x), abs(y)) for x, y, _ in m} == {(1.0, 1.0)}
        assert len(set(m)) == 4

    def test_pid_flies_default_mission(self):
        res = ev.run_waypoint_mission("pid", ev.SQUARE_MISSION, SimParams())
        assert res.all_visited
        assert res.hits == [True, True, True, True]
        assert res.trace  # full trace recorded

    def test_trivial_single_waypoint_at_start(self):
        res = ev.run_waypoint_mission("pid", ((0.0, 0.0, 3.0),), SimParams())
        assert res.all_visited

    def test_mission_deterministic(self):
        a = ev.run_waypoint_mission("pid", ev.SQUARE_MISSION, SimParams())
        b = ev.run_waypoint_mission("pid", ev.SQUARE_MISSION, SimParams())
        assert a.trace == b.trace


class TestSummaryRows:
    def test_schema(self):
        p = SimParams()
        _, results = ev.run_fault_ablation(zero_actor(), 2, 3, p, seed=0)
        rows = ev.summary_rows(results)
        n_cols = len(ev.SUMMARY_HEADER.split(","))
        assert len(rows) == 3
        for row in rows:
            assert len(row.split(",")) == n_cols
        assert ev.SUMMARY_HEADER.endswith(",end")
        assert [row.split(",")[-1] for row in rows] == [r.end.value for r in results]
        # n_faulty counts the servo ids, which are ;-separated inside one field
        assert all(row.split(",")[2] == "2" for row in rows)
        assert all(len(row.split(",")[3].split(";")) == 2 for row in rows)
