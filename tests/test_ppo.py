import math

import numpy as np
import pytest

import tiltrl.neuralnet as nn
from tiltrl import ppo
from tiltrl.dynamics import SimParams
from tiltrl.env import (EpisodeConfig, EpisodeCounter, HoverEnv, Platform,
                        RewardWeights, TermStatus)


def make_envs(n, seed=0, platform=Platform.QUAD):
    counter = EpisodeCounter()
    seqs = np.random.SeedSequence(seed).spawn(n)
    return [HoverEnv(platform, SimParams(), EpisodeConfig(), RewardWeights(),
                     np.random.default_rng(s), counter) for s in seqs]


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
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ppo.TrainConfig(**kwargs)


class FixedRewardEnv:
    """Minimal env stand-in: fixed observation, reward 1.0, episode of 5."""

    obs_dim = 3
    act_dim = 2

    def __init__(self):
        self.y = None
        self.t = 0
        self.episode_return = 0.0
        self.n_resets = 0

    def reset(self):
        self.y = np.zeros(21)
        self.t = 0
        self.episode_return = 0.0
        self.n_resets += 1
        return self.observe()

    def observe(self):
        return np.full(3, 0.5)

    def step(self, action):
        self.t += 1
        self.episode_return += 1.0
        status = TermStatus.MAX_STEPS if self.t >= 5 else TermStatus.RUNNING
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
        assert buf.episode_returns == [5.0, 5.0, 5.0, 5.0]
        assert buf.episode_lengths == [5, 5, 5, 5]
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
        got = [*zip(first.episode_returns, first.episode_lengths),
               *zip(second.episode_returns, second.episode_lengths)]
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
            obs = env.reset()
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
                    obs = env.reset()
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
            bootstrap=np.array([0.4]), n_envs=1)
        adv, ret = ppo.compute_gae(buf, 0.95, 0.95)
        np.testing.assert_allclose(adv, [1.0954530, 1.2692, 0.88], atol=1e-7)
        np.testing.assert_allclose(ret, adv + buf.values, atol=1e-12)

    def test_done_blocks_bootstrap_and_credit(self):
        buf = ppo.RolloutBuffer(
            obs=np.zeros((2, 1)), actions=np.zeros((2, 1)),
            log_probs=np.zeros(2), rewards=np.array([1.0, 2.0]),
            values=np.array([0.5, 0.25]), dones=np.array([1.0, 0.0]),
            bootstrap=np.array([3.0]), n_envs=1)
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
                dones=dones, bootstrap=bootstrap, n_envs=1)
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
            dones=np.zeros(8), bootstrap=np.array([0.1, 0.2]), n_envs=2)
        adv, _ = ppo.compute_gae(buf, 0.95, 0.95)
        solo = ppo.RolloutBuffer(
            obs=np.zeros((4, 1)), actions=np.zeros((4, 1)),
            log_probs=np.zeros(4), rewards=rewards[:4], values=values[:4],
            dones=np.zeros(4), bootstrap=np.array([0.1]), n_envs=1)
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
        ppo.compute_gae(buf, cfg.gamma, cfg.gae_lambda)
        return policy, critic, cfg, buf

    def test_requires_gae(self):
        policy, critic, cfg, buf = self.small_setup()
        buf.advantages = None
        with pytest.raises(ValueError):
            ppo.ppo_update(policy, critic, nn.AdamState.for_net(policy),
                           nn.AdamState.for_net(critic), buf, cfg, 0.0,
                           np.random.default_rng(0))

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


class TestTrainLoop:
    def test_short_train_runs_and_logs(self, tmp_path):
        envs = make_envs(2)
        policy, critic = make_nets()
        cfg = ppo.TrainConfig(total_steps=128, rollout_horizon=32, n_envs=2)
        log_path = tmp_path / "log.csv"
        log = ppo.train(envs, policy, critic, cfg, np.random.default_rng(0),
                        log_path=log_path)
        assert len(log) == 4
        assert [r.env_steps for r in log] == [32, 64, 96, 128]
        lines = log_path.read_text().strip().split("\n")
        assert lines[0] == ppo.TRAIN_LOG_HEADER
        assert len(lines) == 5

    def test_log_counts_episode_ends_and_action_clipping(self, tmp_path):
        envs = [FixedRewardEnv(), FixedRewardEnv()]
        rng = np.random.default_rng(1)
        policy = nn.make_mlp([3, 4, 2], rng, output_tanh=True)
        critic = nn.make_mlp([3, 4, 1], rng, output_tanh=False)
        cfg = ppo.TrainConfig(total_steps=20, rollout_horizon=20, n_envs=2)
        log_path = tmp_path / "log.csv"
        (row,) = ppo.train(envs, policy, critic, cfg, np.random.default_rng(0),
                           log_path=log_path)
        # Two envs x 10 steps, episodes of 5: four time-limit endings.
        assert (row.n_out_of_bounds, row.n_diverged, row.n_max_steps) == (0, 0, 4)
        # The policy is fixed during the rollout, so its actions are the
        # mean at the stub's constant observation plus the rng's block draw.
        mean = nn.forward(nn.make_mlp([3, 4, 2], np.random.default_rng(1)),
                          np.full(3, 0.5))
        actions = mean + np.random.default_rng(0).standard_normal((2, 10, 2))
        assert row.action_clip_fraction == np.mean(np.abs(actions) > 1.0)
        header, line = log_path.read_text().strip().split("\n")
        fields = dict(zip(header.split(","), line.split(",")))
        assert list(fields)[:8] == ["update_index", "env_steps", "lr",
                                    "mean_ep_reward", "mean_ep_len",
                                    "policy_loss", "value_loss", "clip_fraction"]
        assert fields["n_out_of_bounds"] == fields["n_diverged"] == "0"
        assert fields["n_max_steps"] == "4"
        assert float(fields["action_clip_fraction"]) == pytest.approx(
            row.action_clip_fraction, rel=1e-9)

    def test_train_deterministic(self):
        def run():
            envs = make_envs(2, seed=3)
            policy, critic = make_nets(seed=3)
            cfg = ppo.TrainConfig(total_steps=96, rollout_horizon=32, n_envs=2)
            ppo.train(envs, policy, critic, cfg, np.random.default_rng(7))
            return policy
        a, b = run(), run()
        for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
            assert wa.tobytes() == wb.tobytes()

    def test_checkpoint_fn_called(self):
        envs = make_envs(2)
        policy, critic = make_nets()
        cfg = ppo.TrainConfig(total_steps=96, rollout_horizon=32, n_envs=2,
                              checkpoint_every=2)
        calls = []
        ppo.train(envs, policy, critic, cfg, np.random.default_rng(0),
                  checkpoint_fn=lambda u, *a: calls.append(u))
        assert calls  # fired at least once at the configured cadence
