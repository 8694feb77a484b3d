"""On-policy PPO: rollout collection with a fixed-variance Gaussian policy,
GAE advantages, clipped-surrogate updates, and value regression.

The action distribution is N(actor(obs), sigma^2 I) with constant sigma, so
entropy is constant and no entropy bonus is optimized. Rollouts are
collected time-major, the env pool stepping in lockstep with one stacked
actor and one stacked critic forward per time step, and stored env-major:
all steps of env 0, then env 1, and so on.
"""

from __future__ import annotations

import math
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
    value_loss_coef: float = 0.5
    sigma: float = 1.0
    rollout_horizon: int = 2048
    n_envs: int = 8
    hidden_sizes: tuple[int, int] = (64, 64)
    checkpoint_every: int = 50
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError("gamma must be in [0, 1)")
        if self.clip_eps <= 0:
            raise ValueError("clip_eps must be > 0")
        for name in ("total_steps", "epochs_per_update", "minibatch_size",
                     "rollout_horizon", "n_envs"):
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
    # the episode at this step; zeros (no truncation) when not given.
    truncation_values: np.ndarray | None = None
    advantages: np.ndarray | None = None
    returns: np.ndarray | None = None
    episode_returns: list = field(default_factory=list)
    episode_lengths: list = field(default_factory=list)
    episode_ends: list = field(default_factory=list)   # TermStatus per episode

    def __post_init__(self):
        if self.truncation_values is None:
            self.truncation_values = np.zeros(len(self.rewards))

    def __len__(self):
        return len(self.rewards)


def collect_rollout(policy: nn.Mlp, critic: nn.Mlp, envs: list[HoverEnv],
                    cfg: TrainConfig, rng: np.random.Generator) -> RolloutBuffer:
    """Run the env pool for rollout_horizon steps total, sampling actions
    from N(policy(obs), sigma^2 I). Terminated episodes reset in place; each
    env's truncated tail is bootstrapped with the critic value (zero if the
    tail step ended an episode, including divergence), and so is each
    episode that MAX_STEPS truncated, from the state it ended in.

    The pool steps in lockstep: at each time step one actor forward and one
    critic forward run on the stacked observations, shaped (n_envs, 1,
    obs_dim) so that each row is the same vector-matrix product a single
    observation gets. The whole rollout's noise is drawn up front in
    env-major order. Resets take episode indices from the pool's shared
    counter in time order."""
    n_envs = len(envs)
    steps_per_env = cfg.rollout_horizon // n_envs
    obs_dim, act_dim = envs[0].obs_dim, envs[0].act_dim

    obs_buf = np.empty((n_envs, steps_per_env, obs_dim))
    mean_buf = np.empty((n_envs, steps_per_env, act_dim))
    rew_buf = np.empty((n_envs, steps_per_env))
    val_buf = np.empty((n_envs, steps_per_env))
    done_buf = np.zeros((n_envs, steps_per_env))
    trunc_buf = np.zeros((n_envs, steps_per_env))
    noise = rng.standard_normal((n_envs, steps_per_env, act_dim))
    act_buf = np.empty_like(noise)
    episodes: list[list[tuple[float, int, TermStatus]]] = [[] for _ in envs]

    obs = np.array([env.observe() if env.y is not None else env.reset()
                    for env in envs], dtype=float)
    for t in range(steps_per_env):
        obs_buf[:, t] = obs
        mean = nn.forward(policy, obs[:, None, :])[:, 0]
        mean_buf[:, t] = mean
        val_buf[:, t] = nn.forward(critic, obs[:, None, :])[:, 0, 0]
        action = mean + cfg.sigma * noise[:, t]
        act_buf[:, t] = action
        for e, env in enumerate(envs):
            ob, r, status = env.step(action[e])
            rew_buf[e, t] = r
            if status is not TermStatus.RUNNING:
                done_buf[e, t] = 1.0
                episodes[e].append((env.episode_return, env.t, status))
                if status is TermStatus.MAX_STEPS:
                    trunc_buf[e, t] = nn.forward(critic, ob)[0]
                ob = env.reset()
            obs[e] = ob
    tail = nn.forward(critic, obs[:, None, :])[:, 0, 0]
    bootstrap = np.where(done_buf[:, -1] == 0.0, tail, 0.0)

    t_total = n_envs * steps_per_env
    act_buf = act_buf.reshape(t_total, act_dim)
    mean_buf = mean_buf.reshape(t_total, act_dim)
    ended = [ep for per_env in episodes for ep in per_env]
    return RolloutBuffer(obs_buf.reshape(t_total, obs_dim), act_buf,
                         nn.gaussian_log_prob(mean_buf, cfg.sigma, act_buf),
                         rew_buf.reshape(t_total), val_buf.reshape(t_total),
                         done_buf.reshape(t_total), bootstrap, n_envs,
                         trunc_buf.reshape(t_total),
                         episode_returns=[r for r, _, _ in ended],
                         episode_lengths=[n for _, n, _ in ended],
                         episode_ends=[s for _, _, s in ended])


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
    returns = adv + buffer.values
    buffer.advantages = adv
    buffer.returns = returns
    return adv, returns


def ppo_update(policy: nn.Mlp, critic: nn.Mlp, policy_opt: nn.AdamState,
               critic_opt: nn.AdamState, buffer: RolloutBuffer,
               cfg: TrainConfig, progress: float,
               rng: np.random.Generator) -> dict:
    """Clipped-surrogate policy update and value regression over the buffer.

    Advantages are normalized once per update; the learning rate follows the
    linear schedule lr0 * (1 - progress). Frozen parameters stay untouched.
    """
    if buffer.advantages is None:
        raise ValueError("compute_gae must run before ppo_update")
    adv = buffer.advantages
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    lr = cfg.lr0 * (1.0 - progress)
    sig2 = cfg.sigma * cfg.sigma
    t_total = len(buffer)

    pol_losses, val_losses, clip_fracs = [], [], []
    for _ in range(cfg.epochs_per_update):
        perm = rng.permutation(t_total)
        for start in range(0, t_total, cfg.minibatch_size):
            idx = perm[start:start + cfg.minibatch_size]
            ob = buffer.obs[idx]
            ac = buffer.actions[idx]
            a_n = adv[idx]
            ret = buffer.returns[idx]
            old_logp = buffer.log_probs[idx]
            nb = len(idx)

            pol_acts = nn.activations(policy, ob)
            mean = pol_acts[-1]
            logp = nn.gaussian_log_prob(mean, cfg.sigma, ac)
            ratio = np.exp(logp - old_logp)
            unclipped = ratio * a_n
            clipped = np.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps) * a_n
            surrogate = np.minimum(unclipped, clipped)
            pol_loss = -surrogate.mean()

            # d(-surrogate)/d(mean): gradient flows only where the
            # unclipped branch is active.
            use = (unclipped <= clipped).astype(float)
            coef = -(use * ratio * a_n) / nb
            up_pol = coef[:, None] * (ac - mean) / sig2
            g_pol = nn.gradients(policy, ob, up_pol, acts=pol_acts)

            cri_acts = nn.activations(critic, ob)
            v = cri_acts[-1][:, 0]
            err = v - ret
            val_loss = cfg.value_loss_coef * float(np.mean(err * err))
            up_val = (cfg.value_loss_coef * 2.0 * err / nb)[:, None]
            g_val = nn.gradients(critic, ob, up_val, acts=cri_acts)

            if not (math.isfinite(pol_loss) and math.isfinite(val_loss)):
                raise NonFiniteLossError(
                    f"non-finite loss: policy={pol_loss} value={val_loss} "
                    f"ratio range=({ratio.min()}, {ratio.max()})")

            nn.adam_step(policy, policy_opt, g_pol, lr)
            nn.adam_step(critic, critic_opt, g_val, lr)

            pol_losses.append(float(pol_loss))
            val_losses.append(val_loss)
            clip_fracs.append(float(np.mean(np.abs(ratio - 1.0) > cfg.clip_eps)))

    return {
        "policy_loss": float(np.mean(pol_losses)),
        "value_loss": float(np.mean(val_losses)),
        "clip_fraction": float(np.mean(clip_fracs)),
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

    def csv(self) -> str:
        """The row in TRAIN_LOG_HEADER's columns: ints as written, floats
        to nine significant digits."""
        return ",".join(str(v) if isinstance(v, int) else f"{v:.9g}"
                        for v in astuple(self))


TRAIN_LOG_HEADER = ",".join(f.name for f in fields(TrainLogRow))


def train(envs: list[HoverEnv], policy: nn.Mlp, critic: nn.Mlp,
          cfg: TrainConfig, rng: np.random.Generator,
          policy_opt: nn.AdamState | None = None,
          critic_opt: nn.AdamState | None = None,
          log_path=None, checkpoint_fn=None) -> list[TrainLogRow]:
    """Alternate rollout / GAE / update until total_steps env steps are used.

    checkpoint_fn(update_index, policy, critic, policy_opt, critic_opt) is
    called every checkpoint_every updates when provided. Returns the log.
    """
    if policy_opt is None:
        policy_opt = nn.AdamState.for_net(policy)
    if critic_opt is None:
        critic_opt = nn.AdamState.for_net(critic)

    n_updates = max(1, cfg.total_steps // cfg.rollout_horizon)
    log: list[TrainLogRow] = []
    log_fh = open(log_path, "w") if log_path else None
    if log_fh:
        log_fh.write(TRAIN_LOG_HEADER + "\n")
    try:
        for u in range(n_updates):
            buf = collect_rollout(policy, critic, envs, cfg, rng)
            compute_gae(buf, cfg.gamma, cfg.gae_lambda)
            progress = u / n_updates
            losses = ppo_update(policy, critic, policy_opt, critic_opt,
                                buf, cfg, progress, rng)
            row = TrainLogRow(
                update_index=u,
                env_steps=(u + 1) * cfg.rollout_horizon,
                lr=losses["lr"],
                mean_ep_reward=(float(np.mean(buf.episode_returns))
                                if buf.episode_returns else math.nan),
                mean_ep_len=(float(np.mean(buf.episode_lengths))
                             if buf.episode_lengths else math.nan),
                policy_loss=losses["policy_loss"],
                value_loss=losses["value_loss"],
                clip_fraction=losses["clip_fraction"],
                n_out_of_bounds=buf.episode_ends.count(TermStatus.OUT_OF_BOUNDS),
                n_diverged=buf.episode_ends.count(TermStatus.DIVERGED),
                n_max_steps=buf.episode_ends.count(TermStatus.MAX_STEPS),
                action_clip_fraction=float(np.mean(np.abs(buf.actions) > 1.0)),
            )
            log.append(row)
            if log_fh:
                log_fh.write(row.csv() + "\n")
                log_fh.flush()
            if checkpoint_fn and (u + 1) % cfg.checkpoint_every == 0:
                checkpoint_fn(u, policy, critic, policy_opt, critic_opt)
    finally:
        if log_fh:
            log_fh.close()
    return log
