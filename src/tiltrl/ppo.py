"""On-policy PPO: rollout collection with a fixed-variance Gaussian policy,
GAE advantages, clipped-surrogate updates, and value regression. The value
loss takes no coefficient: the critic shares no parameters with the actor,
and Adam cancels a constant scale of its gradient up to eps.

The action distribution is N(actor(obs), sigma^2 I) with constant sigma, so
entropy is constant and no entropy bonus is optimized. Rollouts are
collected time-major, each half of the env pool stepping in lockstep on its
own core with one stacked actor forward per time step and one stacked
critic pass after its last, and stored env-major: all steps of env 0, then
env 1, and so on; each half returns its rows, which are joined in that order.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import neuralnet as nn
from .env import HoverEnv, TermStatus


class NonFiniteLossError(RuntimeError):
    """A PPO loss became NaN/Inf; diagnostics carried in the message."""


@dataclass(frozen=True)
class TrainConfig:
    total_steps: int = 2_000_000
    lr0: float = 5e-5
    gamma: float = 0.95
    gae_lambda: float = 0.95
    clip_eps: float = 0.2
    epochs_per_update: int = 10
    minibatch_size: int = 32
    sigma: float = 1.0
    rollout_horizon: int = 2048
    n_envs: int = 8
    hidden_sizes: tuple[int, int] = (64, 64)
    checkpoint_every: int = 50
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError("gamma must be in [0, 1)")
        if not (0.0 <= self.gae_lambda <= 1.0):
            raise ValueError("gae_lambda must be in [0, 1]")
        if self.lr0 < 0:
            raise ValueError("lr0 must be >= 0")
        if min(self.hidden_sizes) <= 0:
            raise ValueError("hidden_sizes entries must be > 0")
        if self.clip_eps <= 0:
            raise ValueError("clip_eps must be > 0")
        for name in ("total_steps", "epochs_per_update", "minibatch_size", "sigma",
                     "rollout_horizon", "n_envs", "checkpoint_every"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.rollout_horizon % self.n_envs != 0:
            raise ValueError("rollout_horizon must be divisible by n_envs")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")


@dataclass
class RolloutBuffer:
    """On-policy storage, collected time-major and stored env-major (each
    env's steps form one contiguous segment); discarded after each update.
    Finished episodes are listed env by env, in step order within an env."""

    obs: np.ndarray        # (T, obs_dim)
    actions: np.ndarray    # (T, act_dim) pre-clamp samples
    log_probs: np.ndarray  # (T,)
    rewards: np.ndarray    # (T,)
    values: np.ndarray     # (T,)
    dones: np.ndarray      # (T,) 1.0 where the episode ended at this step
    bootstrap: np.ndarray  # (n_envs,) critic value of each env's tail state
    n_envs: int
    # (T,) critic value of the final state where a MAX_STEPS ending truncated
    # the episode at this step, else zero.
    truncation_values: np.ndarray
    # (return, length, end) of each finished episode
    episodes: list[tuple[float, int, TermStatus]] = field(default_factory=list)

    def __len__(self):
        return len(self.rewards)


def _env_state(env: HoverEnv) -> tuple:
    return env.y, env.episodes, env.t, env.episode_return, env.rng.bit_generator.state


def _set_env_state(env: HoverEnv, state: tuple) -> None:
    env.y, env.episodes, env.t, env.episode_return, env.rng.bit_generator.state = state


def collect_rollout(policy: nn.Mlp, critic: nn.Mlp, envs: list[HoverEnv],
                    cfg: TrainConfig, rng: np.random.Generator) -> RolloutBuffer:
    """Run the env pool for rollout_horizon steps total, sampling actions
    from N(policy(obs), sigma^2 I). Terminated episodes reset in place; each
    env's truncated tail is bootstrapped with the critic value (zero if the
    tail step ended an episode, including divergence), and so is each
    episode that MAX_STEPS truncated, from the state it ended in.

    Each half of the pool steps in lockstep: at each time step one actor
    forward runs on its stacked observations, shaped (k, 1, obs_dim) so that
    each row is the same vector-matrix product a single observation gets;
    after its last step one critic forward values all its observations,
    shaped (k, T, 1, obs_dim) alike. The whole rollout's noise is drawn up
    front in env-major order.

    neuralnet.fork_map steps envs [0, ceil(n/2)) here and the rest in a
    forked child. Each half steps from its own copy of the start
    observations and returns its rows, its envs' bootstrap values, episodes
    and states, each env's episode count among them; the halves are joined
    env-major. The pool's next episode index is the sum of those counts.
    Resets take the indices in (time step, env) order, but an index only
    decides whether the episode is an SO(3) warm-up one (index <
    so3_warmup_episodes), so each half hands them out from the rollout's
    first index on its own and never reads the other's progress. A rollout
    whose indices straddle the warm-up end is stepped again, whole, in this
    process from the saved env states.
    """
    n_envs = len(envs)
    steps_per_env = cfg.rollout_horizon // n_envs
    index = itertools.count(sum(env.episodes for env in envs))
    obs = np.array([env.observe() if env.y is not None else env.reset(next(index))
                    for env in envs], dtype=float)
    start = next(index)
    saved = [_env_state(env) for env in envs]
    act_dim = policy.out_dim
    noise = rng.standard_normal((n_envs, steps_per_env, act_dim))
    bounds = (0, -(-n_envs // 2), n_envs)

    def run(lo, hi):
        index = itertools.count(start)
        ob_rows = obs[lo:hi].copy()
        rows = (hi - lo, steps_per_env)
        obs_buf, act_buf, means = (np.empty((*rows, d)) for d in (obs.shape[1], act_dim, act_dim))
        rew_buf, done_buf, trunc_buf = np.zeros((3, *rows))
        episodes: list[list[tuple[float, int, TermStatus]]] = [[] for _ in range(hi - lo)]
        for t in range(steps_per_env):
            obs_buf[:, t] = ob_rows
            mean = nn.forward(policy, ob_rows[:, None, :])[:, 0]
            means[:, t] = mean
            action = mean + cfg.sigma * noise[lo:hi, t]
            act_buf[:, t] = action
            for k, env in enumerate(envs[lo:hi]):
                ob, r, status = env.step(action[k])
                rew_buf[k, t] = r
                if status is not TermStatus.RUNNING:
                    done_buf[k, t] = 1.0
                    episodes[k].append((env.episode_return, env.t, status))
                    if status is TermStatus.MAX_STEPS:
                        trunc_buf[k, t] = nn.forward(critic, ob)[0]
                    ob = env.reset(next(index))
                ob_rows[k] = ob
        val_buf = nn.forward(critic, obs_buf[:, :, None, :])[:, :, 0, 0]
        tail = nn.forward(critic, ob_rows[:, None, :])[:, 0, 0]
        cols = (obs_buf, act_buf, nn.gaussian_log_prob(means, cfg.sigma, act_buf),
                rew_buf, val_buf, done_buf, trunc_buf)
        return ([a.reshape(-1, *a.shape[2:]) for a in cols]
                + [np.where(done_buf[:, -1] == 0.0, tail, 0.0)],
                [ep for per_env in episodes for ep in per_env],
                [_env_state(env) for env in envs[lo:hi]])

    parts = nn.fork_map(lambda i: run(bounds[i], bounds[i + 1]), min(n_envs, 2))
    episodes = [ep for part in parts for ep in part[1]]
    if len(parts) > 1 and start < envs[0].cfg.so3_warmup_episodes < start + len(episodes):
        for env, state in zip(envs, saved):
            _set_env_state(env, state)
        parts = [run(0, n_envs)]
        episodes = parts[0][1]
    # The child stepped copies of the second half's envs: take every state back.
    for env, state in zip(envs, (state for part in parts for state in part[2])):
        _set_env_state(env, state)
    obs_buf, act_buf, logp, rew, val, done, trunc, bootstrap = (
        np.concatenate(halves) for halves in zip(*(part[0] for part in parts)))
    return RolloutBuffer(obs_buf, act_buf, logp, rew, val, done, bootstrap, n_envs, trunc,
                         episodes)


def compute_gae(buffer: RolloutBuffer, gamma: float, lam: float):
    """GAE over each env's contiguous segment.

    delta_t = r_t + gamma*V_trunc_t + gamma*V(s_{t+1})*(1-done_t) - V(s_t)
    A_t = delta_t + gamma*lam*(1-done_t)*A_{t+1};  returns = A + V,
    where V_trunc_t is the value of the final state of an episode that
    MAX_STEPS truncated at step t, else zero.
    """
    t_total = len(buffer)
    seg = t_total // buffer.n_envs
    adv = np.zeros(t_total)
    rewards = buffer.rewards + gamma * buffer.truncation_values
    for e in range(buffer.n_envs):
        base = e * seg
        next_value = buffer.bootstrap[e]
        acc = 0.0
        for t in range(seg - 1, -1, -1):
            i = base + t
            nonterm = 1.0 - buffer.dones[i]
            delta = rewards[i] + gamma * next_value * nonterm - buffer.values[i]
            acc = delta + gamma * lam * nonterm * acc
            adv[i] = acc
            next_value = buffer.values[i]
    return adv, adv + buffer.values


def _minibatches(perms: list[np.ndarray], size: int, *arrays: np.ndarray):
    """Each epoch's rows of `arrays`, gathered once, cut into minibatch views."""
    for perm in perms:
        rows = [a[perm] for a in arrays]
        for start in range(0, len(perm), size):
            yield [r[start:start + size] for r in rows]


def _policy_steps(policy: nn.Mlp, opt: nn.AdamState, buffer: RolloutBuffer,
                  adv: np.ndarray, perms: list[np.ndarray], cfg: TrainConfig, lr: float):
    """Clipped-surrogate steps through the first non-finite policy loss.
    Returns (loss, ratios, mean(old_logp - logp)) for each minibatch."""
    steps = []
    grad = nn.backprop(policy)
    var, lo, hi = cfg.sigma * cfg.sigma, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps
    for ob, ac, a_n, old_logp in _minibatches(perms, cfg.minibatch_size, buffer.obs,
                                              buffer.actions, adv, buffer.log_probs):
        n = len(ob)
        pol_acts = nn.activations(policy, ob)
        diff = ac - pol_acts[-1]
        log_ratio = nn.gaussian_log_density(diff, cfg.sigma) - old_logp
        ratio = np.exp(log_ratio)
        unclipped = ratio * a_n
        clipped = ratio.clip(lo, hi) * a_n
        loss = float(-(np.add.reduce(np.minimum(unclipped, clipped)) / n))
        steps.append((loss, ratio, -float(np.add.reduce(log_ratio) / n)))
        if not math.isfinite(loss):
            break
        # d(-surrogate)/d(mean): gradient flows only where the
        # unclipped branch is active.
        use = (unclipped <= clipped).astype(float)
        coef = -(use * ratio * a_n) / n
        nn.adam_step(policy, opt, grad(pol_acts, coef[:, None] * diff / var), lr)
    return steps


def _value_steps(critic: nn.Mlp, opt: nn.AdamState, buffer: RolloutBuffer,
                 returns: np.ndarray, perms: list[np.ndarray], cfg: TrainConfig, lr: float):
    """Value-regression steps through the first non-finite value loss.
    Returns the value loss, half the mean squared error, per minibatch."""
    losses = []
    grad = nn.backprop(critic)
    for ob, ret in _minibatches(perms, cfg.minibatch_size, buffer.obs, returns):
        n = len(ob)
        cri_acts = nn.activations(critic, ob)
        err = cri_acts[-1][:, 0] - ret
        losses.append(0.5 * float(np.add.reduce(err * err) / n))
        if not math.isfinite(losses[-1]):
            break
        nn.adam_step(critic, opt, grad(cri_acts, (err / n)[:, None]), lr)
    return losses


def ppo_update(policy: nn.Mlp, critic: nn.Mlp, policy_opt: nn.AdamState,
               critic_opt: nn.AdamState, buffer: RolloutBuffer,
               cfg: TrainConfig, progress: float,
               rng: np.random.Generator) -> dict:
    """Clipped-surrogate policy update and value regression over the buffer.

    Advantages (compute_gae) are normalized once per update; the learning
    rate follows the linear schedule lr0 * (1 - progress). Frozen parameters
    stay untouched. Actor and critic share no parameters, so
    neuralnet.fork_map takes the policy's steps in this process and the
    critic's in a forked child, which hands the critic back bit for bit.
    """
    adv, returns = compute_gae(buffer, cfg.gamma, cfg.gae_lambda)
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    lr = cfg.lr0 * (1.0 - progress)
    perms = [rng.permutation(len(buffer)) for _ in range(cfg.epochs_per_update)]

    def side(i):
        if i == 0:
            return _policy_steps(policy, policy_opt, buffer, adv, perms, cfg, lr)
        val = _value_steps(critic, critic_opt, buffer, returns, perms, cfg, lr)
        return val, critic.params, critic_opt.m, critic_opt.v, critic_opt.step_count

    pol_steps, (val_losses, params, m, v, step_count) = nn.fork_map(side, 2)
    pol_losses, ratios, kls = zip(*pol_steps)
    k = min(len(pol_losses), len(val_losses)) - 1   # each side stops at its first non-finite loss
    if not (math.isfinite(pol_losses[k]) and math.isfinite(val_losses[k])):
        raise NonFiniteLossError(
            f"non-finite loss: policy={pol_losses[k]} value={val_losses[k]} "
            f"ratio range=({ratios[k].min()}, {ratios[k].max()})")
    critic.params[:], critic_opt.m[:], critic_opt.v[:] = params, m, v
    critic_opt.step_count = step_count
    # Per minibatch: the share of ratios outside [1 - clip_eps, 1 + clip_eps].
    sizes = np.array([len(r) for r in ratios])
    n_clipped = np.add.reduceat(np.abs(np.concatenate(ratios) - 1.0) > cfg.clip_eps,
                                np.cumsum(sizes) - sizes, dtype=float)
    var_ret = np.var(returns)
    return {
        "policy_loss": float(np.mean(pol_losses)),
        "value_loss": float(np.mean(val_losses)),
        "clip_fraction": float(np.mean(n_clipped / sizes)),
        "approx_kl": float(np.mean(kls)),
        "explained_variance": (float(1.0 - np.var(returns - buffer.values) / var_ret)
                               if var_ret > 0 else math.nan),
        "lr": lr,
    }


@dataclass
class TrainLogRow:
    update_index: int
    env_steps: int
    lr: float
    mean_ep_reward: float
    mean_ep_len: float
    policy_loss: float
    value_loss: float
    clip_fraction: float
    n_out_of_bounds: int        # episodes of the rollout ended by each reason
    n_diverged: int
    n_max_steps: int
    action_clip_fraction: float  # share of pre-clamp action entries with |a| > 1
    approx_kl: float             # mean over minibatches of mean(old_logp - logp)
    explained_variance: float    # 1 - var(returns - values) / var(returns)

    def csv(self) -> str:
        """The row in TRAIN_LOG_HEADER's columns: ints as written, floats
        to nine significant digits."""
        return ",".join(str(v) if isinstance(v, int) else f"{v:.9g}"
                        for v in astuple(self))


TRAIN_LOG_HEADER = ",".join(f.name for f in fields(TrainLogRow))


def train(envs: list[HoverEnv], policy: nn.Mlp, critic: nn.Mlp,
          cfg: TrainConfig, rng: np.random.Generator, out_dir) -> list[TrainLogRow]:
    """Run max(1, total_steps // rollout_horizon) updates, each after a
    rollout of rollout_horizon env steps: whole rollouts, at least one.

    Rewrites out_dir/train_log.csv whole (nn.write_rows) after every update,
    checkpoint_NNNNN.bin after every checkpoint_every-th update and
    checkpoint_final.bin at the end; each checkpoint holds both nets with
    their Adam states and the env steps so far. Returns the log.
    """
    policy_opt, critic_opt = nn.AdamState.for_net(policy), nn.AdamState.for_net(critic)
    nets = {"actor": (policy, policy_opt), "critic": (critic, critic_opt)}
    n_updates = max(1, cfg.total_steps // cfg.rollout_horizon)
    log: list[TrainLogRow] = []
    lines: list[str] = []
    for u in range(n_updates):
        buf = collect_rollout(policy, critic, envs, cfg, rng)
        losses = ppo_update(policy, critic, policy_opt, critic_opt, buf, cfg,
                            u / n_updates, rng)
        returns, lengths, ends = zip(*buf.episodes) if buf.episodes else ((), (), ())
        row = TrainLogRow(
            update_index=u,
            env_steps=(u + 1) * cfg.rollout_horizon,
            mean_ep_reward=float(np.mean(returns)) if returns else math.nan,
            mean_ep_len=float(np.mean(lengths)) if lengths else math.nan,
            n_out_of_bounds=ends.count(TermStatus.OUT_OF_BOUNDS),
            n_diverged=ends.count(TermStatus.DIVERGED),
            n_max_steps=ends.count(TermStatus.MAX_STEPS),
            action_clip_fraction=float(np.mean(np.abs(buf.actions) > 1.0)),
            **losses)
        log.append(row)
        lines.append(row.csv())
        nn.write_rows(os.path.join(out_dir, "train_log.csv"), TRAIN_LOG_HEADER, lines)
        if (u + 1) % cfg.checkpoint_every == 0:
            nn.save_checkpoint(os.path.join(out_dir, f"checkpoint_{u + 1:05d}.bin"),
                               nets, cfg.seed, row.env_steps)
    nn.save_checkpoint(os.path.join(out_dir, "checkpoint_final.bin"), nets, cfg.seed,
                       log[-1].env_steps)
    return log
