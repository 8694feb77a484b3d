import csv
import dataclasses
import itertools
import math
import os
import signal
import statistics

import numpy as np
import pytest

import tiltrl.neuralnet as nn
from tiltrl import ppo
from tiltrl.dynamics import SimParams
from tiltrl.env import (EpisodeConfig, HoverEnv, Platform,
                        RewardWeights, TermStatus)


def make_envs(n, seed=0, platform=Platform.QUAD, episode=EpisodeConfig()):
    seqs = np.random.SeedSequence(seed).spawn(n)
    return [HoverEnv(platform, SimParams(), episode, RewardWeights(),
                     np.random.default_rng(s)) for s in seqs]


def make_nets(platform=Platform.QUAD, hidden=(16, 16), seed=0):
    rng = np.random.default_rng(seed)
    policy = nn.make_mlp([platform.obs_dim, *hidden, platform.act_dim], rng,
                         output_tanh=True)
    critic = nn.make_mlp([platform.obs_dim, *hidden, 1], rng, output_tanh=False)
    return policy, critic


def brute_force_gae(rewards, values, dones, bootstrap, gamma, lam):
    """O(T^2) GAE: A_t = sum_k (gamma*lam)^k delta_{t+k}, truncated at the
    first done at or after t."""
    t_total = len(rewards)
    vals_next = np.append(values[1:], bootstrap)
    deltas = rewards + gamma * vals_next * (1.0 - dones) - values
    adv = np.zeros(t_total)
    for t in range(t_total):
        acc = 0.0
        w = 1.0
        for k in range(t, t_total):
            acc += w * deltas[k]
            if dones[k]:
                break
            w *= gamma * lam
        adv[t] = acc
    return adv


def lockstep_oracle(policy, critic, envs, cfg, rng):
    """The rollout as one plain loop: every env, in order at every time
    step, takes a single-row actor and critic forward, steps, and resets
    with the pool's next episode index. The noise block is drawn up front as
    collect_rollout draws it. Returns the buffer's arrays, env-major."""
    n, steps = len(envs), cfg.rollout_horizon // len(envs)
    index = itertools.count(sum(env.episodes for env in envs))
    obs = [env.observe() if env.y is not None else env.reset(next(index)) for env in envs]
    noise = rng.standard_normal((n, steps, policy.out_dim))
    out = {name: np.zeros((n, steps, *shape)) for name, shape in [
        ("obs", (len(obs[0]),)), ("actions", (policy.out_dim,)), ("log_probs", ()),
        ("rewards", ()), ("values", ()), ("dones", ()), ("truncation_values", ())]}
    episodes = [[] for _ in envs]
    for t in range(steps):
        for e, env in enumerate(envs):
            mean = nn.forward(policy, obs[e])
            action = mean + cfg.sigma * noise[e, t]
            out["obs"][e, t], out["actions"][e, t] = obs[e], action
            out["log_probs"][e, t] = nn.gaussian_log_prob(mean, cfg.sigma, action)
            out["values"][e, t] = nn.forward(critic, obs[e])[0]
            obs[e], out["rewards"][e, t], status = env.step(action)
            if status is not TermStatus.RUNNING:
                out["dones"][e, t] = 1.0
                episodes[e].append((env.episode_return, env.t, status))
                if status is TermStatus.MAX_STEPS:
                    out["truncation_values"][e, t] = nn.forward(critic, obs[e])[0]
                obs[e] = env.reset(next(index))
    out = {name: a.reshape(n * steps, *a.shape[2:]) for name, a in out.items()}
    out["bootstrap"] = np.array([0.0 if out["dones"][(e + 1) * steps - 1]
                                 else nn.forward(critic, obs[e])[0] for e in range(n)])
    out["episodes"] = [ep for per_env in episodes for ep in per_env]
    return out


class WarmupLengthEnv:
    """Env stand-in whose SO(3) warm-up episodes last 3 steps and later ones
    5, so an episode's index decides where it ends. Its flat state holds the
    episode's length; observation fixed, reward 1.0."""

    def __init__(self, warmup):
        self.cfg = EpisodeConfig(so3_warmup_episodes=warmup)
        self.rng = np.random.default_rng(0)
        self.y = None
        self.episodes = 0
        self.t = 0
        self.episode_return = 0.0

    def reset(self, episode_index):
        warm = episode_index < self.cfg.so3_warmup_episodes
        self.y = np.full(21, 3.0 if warm else 5.0)
        self.episodes += 1
        self.t = 0
        self.episode_return = 0.0
        return self.observe()

    def observe(self):
        return np.full(3, 0.5)

    def step(self, action):
        self.t += 1
        self.episode_return += 1.0
        status = TermStatus.MAX_STEPS if self.t >= self.y[0] else TermStatus.RUNNING
        return self.observe(), 1.0, status


class TestTrainConfig:
    def test_defaults(self):
        cfg = ppo.TrainConfig()
        assert cfg.total_steps == 2_000_000
        assert cfg.lr0 == 5e-5
        assert cfg.gamma == 0.95 and cfg.gae_lambda == 0.95
        assert cfg.clip_eps == 0.2
        assert cfg.epochs_per_update == 10
        assert cfg.minibatch_size == 32
        assert cfg.sigma == 1.0
        assert cfg.hidden_sizes == (64, 64)

    @pytest.mark.parametrize("kwargs", [
        {"gamma": 1.0}, {"gamma": -0.1}, {"clip_eps": 0.0},
        {"total_steps": 0}, {"rollout_horizon": 100, "n_envs": 8},
        {"checkpoint_every": 0}, {"sigma": 0.0}, {"sigma": -1.0},
        {"hidden_sizes": (-1, 64)}, {"hidden_sizes": (0, 64)},
        {"gae_lambda": -3.0}, {"gae_lambda": 1.5}, {"lr0": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ppo.TrainConfig(**kwargs)


class FixedRewardEnv:
    """Minimal env stand-in: fixed observation, reward 1.0, episodes of
    `length` steps (5; math.inf never ends one). It has the episode count,
    the episode config and the RNG that collect_rollout reads."""

    def __init__(self, length=5):
        self.length = length
        self.cfg = EpisodeConfig()
        self.rng = np.random.default_rng(0)
        self.y = None
        self.episodes = 0
        self.t = 0
        self.episode_return = 0.0

    def reset(self, episode_index):
        self.y = np.zeros(21)
        self.episodes += 1
        self.t = 0
        self.episode_return = 0.0
        return self.observe()

    def observe(self):
        return np.full(3, 0.5)

    def step(self, action):
        self.t += 1
        self.episode_return += 1.0
        status = TermStatus.MAX_STEPS if self.t >= self.length else TermStatus.RUNNING
        return self.observe(), 1.0, status


class TestCollectRollout:
    def test_counting_contract(self):
        envs = make_envs(4)
        policy, critic = make_nets()
        cfg = ppo.TrainConfig(rollout_horizon=64, n_envs=4)
        buf = ppo.collect_rollout(policy, critic, envs, cfg,
                                  np.random.default_rng(0))
        assert len(buf) == 64
        assert buf.obs.shape == (64, 18)
        assert buf.actions.shape == (64, 4)
        assert buf.n_envs == 4

    def test_nonfinite_step_is_diverged_and_resets_the_env(self):
        # The integrator's NonFiniteError is the one divergence test in
        # training: the env reports the step DIVERGED without taking its
        # state, and the rollout counts the episode and resets that env.
        envs = make_envs(2)
        for i, env in enumerate(envs):
            env.reset(i)
        envs[0].y[3] = math.inf
        before = envs[0].y.copy()
        obs, r, status = envs[0].step(np.zeros(4))
        assert (obs.tolist(), r, status) == ([0.0] * 18, 0.0, TermStatus.DIVERGED)
        np.testing.assert_array_equal(envs[0].y, before)

        policy, critic = make_nets()
        cfg = ppo.TrainConfig(rollout_horizon=2, n_envs=2)
        buf = ppo.collect_rollout(policy, critic, envs, cfg, np.random.default_rng(0))
        # The train log's n_diverged counts these endings.
        assert [end for _, _, end in buf.episodes] == [TermStatus.DIVERGED]
        assert buf.dones.tolist() == [1.0, 0.0]
        assert envs[0].t == 0 and np.isfinite(envs[0].y).all()

    def test_fixed_reward_env(self):
        envs = [FixedRewardEnv(), FixedRewardEnv()]
        policy, critic = make_nets()
        # Stub envs are 3-dim; use matching tiny nets.
        rng = np.random.default_rng(1)
        policy = nn.make_mlp([3, 4, 2], rng, output_tanh=True)
        critic = nn.make_mlp([3, 4, 1], rng, output_tanh=False)
        cfg = ppo.TrainConfig(rollout_horizon=20, n_envs=2)
        buf = ppo.collect_rollout(policy, critic, envs, cfg,
                                  np.random.default_rng(0))
        np.testing.assert_allclose(buf.rewards, 1.0)
        # Episode length 5 -> dones at indices 4, 9 within each 10-segment.
        expect = np.zeros(20)
        expect[[4, 9, 14, 19]] = 1.0
        np.testing.assert_allclose(buf.dones, expect)
        assert [(r, n) for r, n, _ in buf.episodes] == [(5.0, 5)] * 4
        # Tail steps ended episodes, so no bootstrap.
        np.testing.assert_allclose(buf.bootstrap, 0.0)

    def test_episode_carries_across_rollouts(self):
        # An episode cut by the end of one rollout is reported by the next
        # with the return and length of all its steps.
        envs = make_envs(1, seed=2)
        policy, critic = make_nets()
        cfg = ppo.TrainConfig(rollout_horizon=64, n_envs=1)
        rng = np.random.default_rng(0)
        first = ppo.collect_rollout(policy, critic, envs, cfg, rng)
        second = ppo.collect_rollout(policy, critic, envs, cfg, rng)
        assert first.dones[-1] == 0.0 and second.dones.sum() > 0
        want, ret, length = [], 0.0, 0
        for r, done in zip([*first.rewards.tolist(), *second.rewards.tolist()],
                           [*first.dones.tolist(), *second.dones.tolist()]):
            ret, length = ret + r, length + 1
            if done:
                want.append((ret, length))
                ret, length = 0.0, 0
        got = [(r, n) for r, n, _ in first.episodes + second.episodes]
        assert got == want
        assert envs[0].episode_return == ret and envs[0].t == length

    def test_bootstrap_on_truncation(self):
        envs = [FixedRewardEnv()]
        rng = np.random.default_rng(1)
        policy = nn.make_mlp([3, 4, 2], rng, output_tanh=True)
        critic = nn.make_mlp([3, 4, 1], rng, output_tanh=False)
        cfg = ppo.TrainConfig(rollout_horizon=3, n_envs=1)
        buf = ppo.collect_rollout(policy, critic, envs, cfg,
                                  np.random.default_rng(0))
        assert buf.dones.sum() == 0.0
        expected = float(nn.forward(critic, envs[0].observe())[0])
        assert buf.bootstrap[0] == pytest.approx(expected)

    def test_log_probs_consistent(self):
        envs = make_envs(2)
        policy, critic = make_nets()
        cfg = ppo.TrainConfig(rollout_horizon=32, n_envs=2, sigma=1.0)
        buf = ppo.collect_rollout(policy, critic, envs, cfg,
                                  np.random.default_rng(0))
        for i in range(len(buf)):
            mean = nn.forward(policy, buf.obs[i])
            assert buf.log_probs[i] == pytest.approx(
                nn.gaussian_log_prob(mean, 1.0, buf.actions[i]), abs=1e-12)

    def test_sigma_zero_limit_actions_equal_mean(self):
        envs = make_envs(1)
        policy, critic = make_nets()
        cfg = ppo.TrainConfig(rollout_horizon=16, n_envs=1, sigma=1e-12)
        buf = ppo.collect_rollout(policy, critic, envs, cfg,
                                  np.random.default_rng(0))
        for i in range(len(buf)):
            mean = nn.forward(policy, buf.obs[i])
            np.testing.assert_allclose(buf.actions[i], mean, atol=1e-9)

    def test_replay_oracle_bit_exact(self):
        # Replay each env's segment of the buffer's actions through a fresh
        # env built from the same seed, one observation at a time, and
        # rebuild every stored quantity from single-row forwards and an
        # identically seeded block noise draw.
        n, horizon, sigma = 3, 3 * 120, 0.7
        envs = make_envs(n, seed=4)
        policy, critic = make_nets(seed=4)
        cfg = ppo.TrainConfig(rollout_horizon=horizon, n_envs=n, sigma=sigma)
        buf = ppo.collect_rollout(policy, critic, envs, cfg,
                                  np.random.default_rng(11))
        seg = horizon // n
        noise = np.random.default_rng(11).standard_normal((n, seg, 4))
        assert buf.dones.sum() > 0   # the replay crosses episode resets

        for e, seq in enumerate(np.random.SeedSequence(4).spawn(n)):
            env = HoverEnv(Platform.QUAD, SimParams(), EpisodeConfig(),
                           RewardWeights(), np.random.default_rng(seq))
            obs = env.reset(0)
            for t in range(seg):
                i = e * seg + t
                assert buf.obs[i].tobytes() == obs.tobytes()
                mean = nn.forward(policy, obs)
                assert buf.actions[i].tobytes() == (mean + sigma * noise[e, t]).tobytes()
                assert buf.log_probs[i] == nn.gaussian_log_prob(mean, sigma, buf.actions[i])
                assert buf.values[i] == nn.forward(critic, obs)[0]
                obs, r, status = env.step(buf.actions[i])
                assert buf.rewards[i] == r
                assert buf.dones[i] == float(status is not TermStatus.RUNNING)
                if status is not TermStatus.RUNNING:
                    obs = env.reset(env.episodes)
            tail = 0.0 if buf.dones[e * seg + seg - 1] else nn.forward(critic, obs)[0]
            assert buf.bootstrap[e] == tail

    def test_deterministic_given_seeds(self):
        def run():
            envs = make_envs(2, seed=5)
            policy, critic = make_nets(seed=5)
            cfg = ppo.TrainConfig(rollout_horizon=32, n_envs=2)
            return ppo.collect_rollout(policy, critic, envs, cfg,
                                       np.random.default_rng(9))
        a, b = run(), run()
        assert a.obs.tobytes() == b.obs.tobytes()
        assert a.actions.tobytes() == b.actions.tobytes()
        assert a.rewards.tobytes() == b.rewards.tobytes()

    # Episodes of 9 steps start in step with each other, so at every reset
    # step both halves of the pool reset, and each warm-up end below falls
    # inside such a step of the second rollout, between two envs.
    @pytest.mark.parametrize("n_envs, warmup", [(7, 17), (3, 8), (1, 2)])
    def test_serial_oracle_bit_exact_across_warmup_end(self, n_envs, warmup):
        episode = EpisodeConfig(max_steps=9, so3_warmup_episodes=warmup)
        cfg = ppo.TrainConfig(rollout_horizon=16 * n_envs, n_envs=n_envs, sigma=0.7)
        policy, critic = make_nets(seed=4)
        envs, twins = make_envs(n_envs, 4, episode=episode), make_envs(n_envs, 4, episode=episode)
        rng, twin_rng = np.random.default_rng(11), np.random.default_rng(11)
        started = n_envs   # the pool's first episodes
        for _ in range(2):
            buf = ppo.collect_rollout(policy, critic, envs, cfg, rng)
            want = lockstep_oracle(policy, critic, twins, cfg, twin_rng)
            for name in ("obs", "actions", "log_probs", "rewards", "values", "dones",
                         "bootstrap", "truncation_values"):
                assert getattr(buf, name).tobytes() == want[name].tobytes(), name
            assert buf.episodes == want["episodes"]
            for env, twin in zip(envs, twins):
                assert (env.y.tobytes(), env.t, env.episode_return) == (
                    twin.y.tobytes(), twin.t, twin.episode_return)
                assert env.rng.bit_generator.state == twin.rng.bit_generator.state
            assert rng.bit_generator.state == twin_rng.bit_generator.state
            started += len(buf.episodes)
        assert started - len(buf.episodes) <= warmup < started   # the second rollout crosses it
        assert (sum(env.episodes for env in envs) == sum(twin.episodes for twin in twins)
                == started)

    def test_rollout_straddling_warmup_end_matches_serial_loop(self):
        # Indices 0-3 start the first episodes; the resets at step 2 take
        # 4-7, and only 4 and 5 are warm-up ones. Each half counting its own
        # resets from 4 would give envs 2 and 3 warm-up episodes that end two
        # steps early, so the rollout is stepped again in one process.
        def pool():
            return [WarmupLengthEnv(warmup=6) for _ in range(4)]

        envs, twins = pool(), pool()
        rng = np.random.default_rng(1)
        policy = nn.make_mlp([3, 4, 2], rng, output_tanh=True)
        critic = nn.make_mlp([3, 4, 1], rng, output_tanh=False)
        cfg = ppo.TrainConfig(rollout_horizon=4 * 12, n_envs=4)
        buf = ppo.collect_rollout(policy, critic, envs, cfg, np.random.default_rng(2))
        want = lockstep_oracle(policy, critic, twins, cfg, np.random.default_rng(2))
        for name in ("obs", "actions", "log_probs", "rewards", "values", "dones",
                     "bootstrap", "truncation_values"):
            assert getattr(buf, name).tobytes() == want[name].tobytes(), name
        assert buf.episodes == want["episodes"]
        assert [(env.y[0], env.t) for env in envs] == [(twin.y[0], twin.t) for twin in twins]
        assert (sum(env.episodes for env in envs) == sum(twin.episodes for twin in twins)
                == 4 + len(want["episodes"]))

    def test_each_env_counts_its_episodes_in_either_half(self):
        # Envs 0-1 step in this process and 2-3 in the forked child, whose
        # counts come back with its env states.
        envs = [FixedRewardEnv(length) for length in (3, 4, 5, 7)]
        rng = np.random.default_rng(1)
        policy = nn.make_mlp([3, 4, 2], rng, output_tanh=True)
        critic = nn.make_mlp([3, 4, 1], rng, output_tanh=False)
        cfg = ppo.TrainConfig(rollout_horizon=4 * 12, n_envs=4)
        buf = ppo.collect_rollout(policy, critic, envs, cfg, np.random.default_rng(0))
        dones = buf.dones.reshape(4, 12).sum(axis=1)
        assert [env.episodes for env in envs] == (1 + dones).tolist() == [5, 4, 3, 2]

    @pytest.mark.parametrize("failing", [0, -1])
    def test_step_failure_in_either_half_is_raised(self, monkeypatch, failing):
        # env 0 steps in this process and the last env in the forked child.
        # Either way the step's own exception reaches the caller, with no
        # hang and, by the autouse fixture in conftest.py, no child left.
        envs = make_envs(3, seed=1)
        real_step = HoverEnv.step

        def step(env, action):
            if env is envs[failing] and env.t == 20:
                raise ValueError("step failed")
            return real_step(env, action)

        def hung(*_):
            raise TimeoutError("collect_rollout hung")

        monkeypatch.setattr(HoverEnv, "step", step)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            with pytest.raises(ValueError, match="^step failed$"):
                ppo.collect_rollout(*make_nets(), envs, ppo.TrainConfig(
                    rollout_horizon=3 * 64, n_envs=3), np.random.default_rng(0))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_episodes_that_never_end_do_not_hang(self):
        # 70 000 steps per half without a reset: neither half waits on the
        # other, however long it steps.
        envs = [FixedRewardEnv(length=math.inf), FixedRewardEnv(length=math.inf)]
        rng = np.random.default_rng(1)
        policy = nn.make_mlp([3, 4, 2], rng, output_tanh=True)
        critic = nn.make_mlp([3, 4, 1], rng, output_tanh=False)

        def hung(*_):
            raise TimeoutError("collect_rollout hung")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        try:
            buf = ppo.collect_rollout(policy, critic, envs, ppo.TrainConfig(
                rollout_horizon=2 * 70_000, n_envs=2), np.random.default_rng(0))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert buf.dones.sum() == 0 and buf.episodes == []
        assert [env.t for env in envs] == [70_000, 70_000]

    def test_no_descriptor_left_open(self):
        envs = make_envs(4)
        policy, critic = make_nets()
        cfg = ppo.TrainConfig(rollout_horizon=64, n_envs=4)
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            ppo.collect_rollout(policy, critic, envs, cfg, np.random.default_rng(0))
        assert len(os.listdir("/proc/self/fd")) == before


class TestGae:
    def test_hand_recursion(self):
        # Single segment, gamma=lam=0.95, rewards (1,1,1), values (2,1,0.5),
        # bootstrap 0.4, no dones:
        #   delta2 = 1 + .95*.4  - .5 = 0.88
        #   delta1 = 1 + .95*.5  - 1  = 0.475
        #   delta0 = 1 + .95*1   - 2  = -0.05
        #   A2 = 0.88
        #   A1 = 0.475 + .9025*0.88   = 1.2692
        #   A0 = -0.05 + .9025*1.2692 = 1.0954530
        buf = ppo.RolloutBuffer(
            obs=np.zeros((3, 1)), actions=np.zeros((3, 1)),
            log_probs=np.zeros(3), rewards=np.ones(3),
            values=np.array([2.0, 1.0, 0.5]), dones=np.zeros(3),
            bootstrap=np.array([0.4]), n_envs=1, truncation_values=np.zeros(3))
        adv, ret = ppo.compute_gae(buf, 0.95, 0.95)
        np.testing.assert_allclose(adv, [1.0954530, 1.2692, 0.88], atol=1e-7)
        np.testing.assert_allclose(ret, adv + buf.values, atol=1e-12)

    def test_done_blocks_bootstrap_and_credit(self):
        buf = ppo.RolloutBuffer(
            obs=np.zeros((2, 1)), actions=np.zeros((2, 1)),
            log_probs=np.zeros(2), rewards=np.array([1.0, 2.0]),
            values=np.array([0.5, 0.25]), dones=np.array([1.0, 0.0]),
            bootstrap=np.array([3.0]), n_envs=1, truncation_values=np.zeros(2))
        adv, _ = ppo.compute_gae(buf, 0.95, 0.95)
        # Step 0 ends its episode: A0 = r0 - V0 exactly.
        assert adv[0] == pytest.approx(1.0 - 0.5)
        assert adv[1] == pytest.approx(2.0 + 0.95 * 3.0 - 0.25)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            t = int(rng.integers(1, 12))
            rewards = rng.standard_normal(t)
            values = rng.standard_normal(t)
            dones = (rng.random(t) < 0.25).astype(float)
            bootstrap = rng.standard_normal(1)
            gamma = float(rng.uniform(0.8, 0.999))
            lam = float(rng.uniform(0.8, 1.0))
            buf = ppo.RolloutBuffer(
                obs=np.zeros((t, 1)), actions=np.zeros((t, 1)),
                log_probs=np.zeros(t), rewards=rewards, values=values,
                dones=dones, bootstrap=bootstrap, n_envs=1,
                truncation_values=np.zeros(t))
            adv, _ = ppo.compute_gae(buf, gamma, lam)
            oracle = brute_force_gae(rewards, values, dones, bootstrap[0],
                                     gamma, lam)
            worst = max(worst, np.abs(adv - oracle).max())
        assert worst < 1e-10

    def test_truncation_bootstraps_from_final_state(self):
        # FixedRewardEnv ends every episode after 5 steps as MAX_STEPS, with
        # reward 1 and one constant observation, so the critic reads the same
        # value v at every state. A truncated episode is cut, not over: its
        # last step bootstraps from v, so every step of it has
        #   delta = 1 + gamma*v - v,  A_t = delta + gamma*lam*A_{t+1},
        # with the recursion cut at the truncation step.
        envs = [FixedRewardEnv(), FixedRewardEnv()]
        rng = np.random.default_rng(1)
        policy = nn.make_mlp([3, 4, 2], rng, output_tanh=True)
        critic = nn.make_mlp([3, 4, 1], rng, output_tanh=False)
        cfg = ppo.TrainConfig(rollout_horizon=20, n_envs=2)
        buf = ppo.collect_rollout(policy, critic, envs, cfg, np.random.default_rng(0))
        gamma, lam = 0.95, 0.9
        adv, ret = ppo.compute_gae(buf, gamma, lam)

        v = float(nn.forward(critic, envs[0].observe())[0])
        assert abs(v) > 1e-3
        truncated = buf.dones == 1.0
        assert truncated.sum() == 4
        delta = 1.0 + gamma * v - v
        episode, acc = [], 0.0
        for _ in range(5):
            acc = delta + gamma * lam * acc
            episode.insert(0, acc)
        np.testing.assert_allclose(adv[truncated], delta, rtol=1e-12)
        np.testing.assert_allclose(adv, episode * 4, rtol=1e-12)
        np.testing.assert_allclose(ret, adv + buf.values, rtol=1e-12)

        np.testing.assert_allclose(buf.truncation_values[truncated], v, rtol=1e-12)
        np.testing.assert_array_equal(buf.truncation_values[~truncated], 0.0)
        np.testing.assert_allclose(buf.rewards, 1.0)   # rewards and dones stay as stepped

    def test_segments_independent(self):
        # Two envs: env 1's data must not leak into env 0's advantages.
        rng = np.random.default_rng(1)
        rewards = rng.standard_normal(8)
        values = rng.standard_normal(8)
        buf = ppo.RolloutBuffer(
            obs=np.zeros((8, 1)), actions=np.zeros((8, 1)),
            log_probs=np.zeros(8), rewards=rewards, values=values,
            dones=np.zeros(8), bootstrap=np.array([0.1, 0.2]), n_envs=2,
            truncation_values=np.zeros(8))
        adv, _ = ppo.compute_gae(buf, 0.95, 0.95)
        solo = ppo.RolloutBuffer(
            obs=np.zeros((4, 1)), actions=np.zeros((4, 1)),
            log_probs=np.zeros(4), rewards=rewards[:4], values=values[:4],
            dones=np.zeros(4), bootstrap=np.array([0.1]), n_envs=1,
            truncation_values=np.zeros(4))
        adv0, _ = ppo.compute_gae(solo, 0.95, 0.95)
        np.testing.assert_allclose(adv[:4], adv0, atol=1e-12)


class TestClipFormula:
    def test_clip_examples(self):
        # ratio 1.5, eps 0.2, A=1: clipped objective = 1.2*1 = 1.2
        eps = 0.2
        ratio = np.array([1.5])
        a = np.array([1.0])
        clipped = np.clip(ratio, 1 - eps, 1 + eps) * a
        assert float(np.minimum(ratio * a, clipped)[0]) == pytest.approx(1.2)
        # ratio 0.5, A=-1: min(-0.5, -0.8) = -0.8
        ratio = np.array([0.5])
        a = np.array([-1.0])
        clipped = np.clip(ratio, 1 - eps, 1 + eps) * a
        assert float(np.minimum(ratio * a, clipped)[0]) == pytest.approx(-0.8)


class TestPpoUpdate:
    def small_setup(self, horizon=64, n_envs=2):
        envs = make_envs(n_envs)
        policy, critic = make_nets()
        cfg = ppo.TrainConfig(rollout_horizon=horizon, n_envs=n_envs,
                              lr0=1e-3)
        buf = ppo.collect_rollout(policy, critic, envs, cfg,
                                  np.random.default_rng(0))
        return policy, critic, cfg, buf

    def test_lr_schedule(self):
        policy, critic, cfg, buf = self.small_setup()
        stats = ppo.ppo_update(policy, critic, nn.AdamState.for_net(policy),
                               nn.AdamState.for_net(critic), buf, cfg, 0.25,
                               np.random.default_rng(0))
        assert stats["lr"] == pytest.approx(cfg.lr0 * 0.75)

    def test_update_changes_params_and_reduces_value_loss(self):
        policy, critic, cfg, buf = self.small_setup(horizon=256)
        w0 = policy.weights[0].copy()
        p_opt = nn.AdamState.for_net(policy)
        c_opt = nn.AdamState.for_net(critic)
        s1 = ppo.ppo_update(policy, critic, p_opt, c_opt, buf, cfg, 0.0,
                            np.random.default_rng(0))
        assert not np.array_equal(policy.weights[0], w0)
        # Regressing the fixed buffer again should fit better.
        s2 = ppo.ppo_update(policy, critic, p_opt, c_opt, buf, cfg, 0.0,
                            np.random.default_rng(1))
        assert s2["value_loss"] < s1["value_loss"]

    def test_first_minibatch_ratio_is_one(self):
        # Before any update the new and old policies coincide, so every
        # element of the first minibatch has ratio exactly 1 (never clipped).
        policy, critic, cfg, buf = self.small_setup()
        logp = nn.gaussian_log_prob(nn.forward(policy, buf.obs), cfg.sigma,
                                    buf.actions)
        np.testing.assert_allclose(np.exp(logp - buf.log_probs), 1.0,
                                   atol=1e-12)

    def update(self, policy, critic, cfg, buf, rng=None):
        opts = nn.AdamState.for_net(policy), nn.AdamState.for_net(critic)
        stats = ppo.ppo_update(policy, critic, *opts, buf, cfg, 0.0,
                               rng or np.random.default_rng(0))
        return stats, opts

    def test_permutations_and_update_reproducible(self):
        # The update draws one rng.permutation(T) per epoch and nothing
        # else; the same inputs give the same bits, Adam moments included.
        # A minibatch of 24 leaves a short last minibatch of 16 each epoch.
        def run():
            policy, critic, cfg, buf = self.small_setup()
            cfg = dataclasses.replace(cfg, minibatch_size=24)
            rng = np.random.default_rng(5)
            _, opts = self.update(policy, critic, cfg, buf, rng)
            arrays = [policy.params, critic.params] + [a for o in opts for a in (o.m, o.v)]
            return rng, cfg, len(buf), [a.tobytes() for a in arrays], [o.step_count for o in opts]

        rng, cfg, t_total, arrays, counts = run()
        twin = np.random.default_rng(5)
        for _ in range(cfg.epochs_per_update):
            twin.permutation(t_total)
        assert rng.bit_generator.state == twin.bit_generator.state
        assert counts == [cfg.epochs_per_update * 3] * 2
        _, _, _, arrays2, counts2 = run()
        assert arrays == arrays2 and counts == counts2

    def test_nonfinite_policy_loss_raises(self):
        policy, critic, cfg, buf = self.small_setup()
        buf.log_probs[5] = np.nan
        with pytest.raises(ppo.NonFiniteLossError,
                           match=r"policy=nan value=\d\S* ratio range=\(nan, nan\)"):
            self.update(policy, critic, cfg, buf)

    @pytest.mark.parametrize("bias", [np.inf, np.nan])
    def test_nonfinite_value_loss_raises(self, bias):
        policy, critic, cfg, buf = self.small_setup()
        critic.biases[-1][:] = bias
        # Arithmetic on an infinite loss may set numpy's invalid flag; only
        # the error raised for the loss matters here.
        with np.errstate(invalid="ignore"), pytest.raises(
                ppo.NonFiniteLossError,
                match=rf"policy=-?\d\S* value={bias} ratio range=\(\d\S*, \d\S*\)"):
            self.update(policy, critic, cfg, buf)

    def test_child_reaped(self):
        # The autouse fixture in conftest.py fails a test that leaves a child.
        policy, critic, cfg, buf = self.small_setup()
        self.update(policy, critic, cfg, buf)
        buf.log_probs[:] = np.nan
        with pytest.raises(ppo.NonFiniteLossError):
            self.update(policy, critic, cfg, buf)

    @pytest.mark.parametrize("side, action, message", [
        ("_policy_steps", "interrupt", None),
        ("_value_steps", "raise", "^critic step failed$"),
        ("_value_steps", "kill", f"status {-signal.SIGKILL}$"),
    ])
    def test_failure_leaves_critic_and_no_child(self, monkeypatch, side, action,
                                                message):
        # A policy-side exception kills the critic's child; the child's own
        # exception is raised here, and a child that is killed is an error
        # naming its status. Either way the critic and its Adam state keep
        # their values from before the update, and no child is left.
        def fail(*_):
            if action == "interrupt":
                raise KeyboardInterrupt
            if action == "raise":
                raise ValueError("critic step failed")
            os.kill(os.getpid(), signal.SIGKILL)

        policy, critic, cfg, buf = self.small_setup()
        before = critic.params.copy()
        monkeypatch.setattr(ppo, side, fail)
        opt = nn.AdamState.for_net(critic)
        expected = {"interrupt": KeyboardInterrupt, "raise": ValueError}.get(action, RuntimeError)
        with pytest.raises(expected, match=message):
            ppo.ppo_update(policy, critic, nn.AdamState.for_net(policy), opt,
                           buf, cfg, 0.0, np.random.default_rng(0))
        assert critic.params.tobytes() == before.tobytes()
        assert opt.step_count == 0 and not opt.m.any() and not opt.v.any()

    def test_diagnostics(self):
        policy, critic, cfg, buf = self.small_setup()
        adv, returns = ppo.compute_gae(buf, cfg.gamma, cfg.gae_lambda)
        # At lr = 0 the policy never moves, so every ratio is 1 and the
        # approximate KL vanishes up to the rounding of the forward pass.
        stats = ppo.ppo_update(policy, critic, nn.AdamState.for_net(policy),
                               nn.AdamState.for_net(critic), buf, cfg, 1.0,
                               np.random.default_rng(0))
        assert stats["clip_fraction"] == 0.0
        assert abs(stats["approx_kl"]) < 1e-12
        # returns - values is the advantage.
        want = 1.0 - statistics.pvariance(adv) / statistics.pvariance(returns)
        assert stats["explained_variance"] == pytest.approx(want, rel=1e-9)


class TestTrainLoop:
    def test_short_train_runs_and_logs(self, tmp_path):
        envs = make_envs(2)
        policy, critic = make_nets()
        cfg = ppo.TrainConfig(total_steps=128, rollout_horizon=32, n_envs=2)
        log = ppo.train(envs, policy, critic, cfg, np.random.default_rng(0), tmp_path)
        assert len(log) == 4
        assert [r.env_steps for r in log] == [32, 64, 96, 128]
        lines = (tmp_path / "train_log.csv").read_text().strip().split("\n")
        assert lines[0] == ppo.TRAIN_LOG_HEADER
        assert len(lines) == 5
        assert lines[0].split(",")[-3:] == ["action_clip_fraction", "approx_kl",
                                            "explained_variance"]
        assert all(math.isfinite(r.approx_kl) and r.explained_variance <= 1.0
                   for r in log)

    def test_log_counts_episode_ends_and_action_clipping(self, tmp_path):
        envs = [FixedRewardEnv(), FixedRewardEnv()]
        rng = np.random.default_rng(1)
        policy = nn.make_mlp([3, 4, 2], rng, output_tanh=True)
        critic = nn.make_mlp([3, 4, 1], rng, output_tanh=False)
        cfg = ppo.TrainConfig(total_steps=20, rollout_horizon=20, n_envs=2)
        (row,) = ppo.train(envs, policy, critic, cfg, np.random.default_rng(0), tmp_path)
        # Two envs x 10 steps, episodes of 5: four time-limit endings.
        assert (row.n_out_of_bounds, row.n_diverged, row.n_max_steps) == (0, 0, 4)
        # The policy is fixed during the rollout, so its actions are the
        # mean at the stub's constant observation plus the rng's block draw.
        mean = nn.forward(nn.make_mlp([3, 4, 2], np.random.default_rng(1)),
                          np.full(3, 0.5))
        actions = mean + np.random.default_rng(0).standard_normal((2, 10, 2))
        assert row.action_clip_fraction == np.mean(np.abs(actions) > 1.0)
        header, line = (tmp_path / "train_log.csv").read_text().strip().split("\n")
        fields = dict(zip(header.split(","), line.split(",")))
        assert list(fields)[:8] == ["update_index", "env_steps", "lr",
                                    "mean_ep_reward", "mean_ep_len",
                                    "policy_loss", "value_loss", "clip_fraction"]
        assert fields["n_out_of_bounds"] == fields["n_diverged"] == "0"
        assert fields["n_max_steps"] == "4"
        assert float(fields["action_clip_fraction"]) == pytest.approx(
            row.action_clip_fraction, rel=1e-9)

    def test_train_deterministic(self, tmp_path):
        def run(out):
            out.mkdir()
            envs = make_envs(2, seed=3)
            policy, critic = make_nets(seed=3)
            cfg = ppo.TrainConfig(total_steps=96, rollout_horizon=32, n_envs=2)
            ppo.train(envs, policy, critic, cfg, np.random.default_rng(7), out)
            return policy
        a, b = run(tmp_path / "a"), run(tmp_path / "b")
        for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
            assert wa.tobytes() == wb.tobytes()
        assert ((tmp_path / "a" / "checkpoint_final.bin").read_bytes()
                == (tmp_path / "b" / "checkpoint_final.bin").read_bytes())

    # Five updates of 32 rows; two epochs of two 16-row minibatches each.
    FIVE_UPDATES = ppo.TrainConfig(total_steps=160, rollout_horizon=32, n_envs=2,
                                   epochs_per_update=2, minibatch_size=16,
                                   checkpoint_every=2, seed=5)

    def test_writes_log_and_checkpoints(self, tmp_path):
        policy, critic = make_nets()
        log = ppo.train(make_envs(2), policy, critic, self.FIVE_UPDATES,
                        np.random.default_rng(0), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint_00002.bin", "checkpoint_00004.bin", "checkpoint_final.bin",
            "train_log.csv"]
        with open(tmp_path / "train_log.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["env_steps"]) for r in rows] == [r.env_steps for r in log]
        for name, updates in [("checkpoint_00002.bin", 2), ("checkpoint_00004.bin", 4),
                              ("checkpoint_final.bin", 5)]:
            nets, seed, steps = nn.load_checkpoint(tmp_path / name)
            assert (seed, steps) == (5, int(rows[updates - 1]["env_steps"]))
            assert nets["actor"][1].step_count == nets["critic"][1].step_count == 4 * updates
        assert nets["actor"][0].params.tobytes() == policy.params.tobytes()
        assert nets["critic"][0].params.tobytes() == critic.params.tobytes()

    def test_failure_keeps_finished_rows(self, tmp_path, monkeypatch):
        updates = []

        def update(*args):
            if len(updates) == 3:
                raise KeyboardInterrupt
            updates.append(real(*args))
            return updates[-1]
        real = ppo.ppo_update
        monkeypatch.setattr(ppo, "ppo_update", update)
        with pytest.raises(KeyboardInterrupt):
            ppo.train(make_envs(2), *make_nets(), self.FIVE_UPDATES,
                      np.random.default_rng(0), tmp_path)
        lines = (tmp_path / "train_log.csv").read_text().splitlines()
        assert lines[0] == ppo.TRAIN_LOG_HEADER
        assert [line.split(",")[:2] for line in lines[1:]] == [["0", "32"], ["1", "64"],
                                                                ["2", "96"]]
        assert sorted(p.name for p in tmp_path.glob("*.bin")) == ["checkpoint_00002.bin"]
