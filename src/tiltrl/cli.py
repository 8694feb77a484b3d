"""Command-line entry point: reproducible training, transfer, and
evaluation runs.

Commands:
    tiltrl train-quad  [--config F] [--seed N] [--steps N] --out DIR
    tiltrl train-tilt  (--from CKPT | --scratch) [--config F] [--seed N]
                       [--steps N] --out DIR
    tiltrl eval CKPT --mode {hover,waypoint,ablate} [--trials N] [--faulty N]
                       [--controller {policy,pid}] [--seed N] --out DIR
    tiltrl write-config PATH

Exit codes: 0 ok, 1 usage error, 2 runtime error.
Any config key can be overridden via the TILTRL_<KEY> environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys

import numpy as np

from . import __version__
from . import neuralnet as nn
from . import ppo, transfer
from .config import ConfigError, RunConfig, as_flat_dict, default_config, \
    load_config, write_config
from .env import EpisodeCounter, HoverEnv, Platform, write_trace
from .evalsuite import (SQUARE_MISSION, SUMMARY_HEADER, run_fault_ablation,
                        run_hover_eval, run_waypoint_mission, summary_rows)
from .neuralnet import ShapeMismatchError, atomic_open


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def make_envs(platform: Platform, cfg: RunConfig, seed: int) -> list[HoverEnv]:
    """Independent env pool; RNGs split deterministically from the seed."""
    counter = EpisodeCounter()
    seqs = np.random.SeedSequence([seed, 0xE17]).spawn(cfg.train.n_envs)
    return [HoverEnv(platform, cfg.sim, cfg.episode, cfg.rewards,
                     np.random.default_rng(s), counter) for s in seqs]


def write_manifest(out_dir: str, stage: str, seed: int, cfg: RunConfig,
                   artifacts: dict) -> None:
    manifest = {
        "code_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "stage": stage,
        "seed": seed,
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in as_flat_dict(cfg).items()},
        "artifacts": artifacts,
    }
    with atomic_open(os.path.join(out_dir, "manifest.json")) as fh:
        json.dump(manifest, fh, indent=2)


def _resolved_config(args) -> tuple[RunConfig, int]:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.train.seed
    train_cfg = dataclasses.replace(cfg.train, seed=seed)
    if getattr(args, "steps", None) is not None:
        train_cfg = dataclasses.replace(train_cfg, total_steps=args.steps)
    return dataclasses.replace(cfg, train=train_cfg), seed


def _train_rngs(seed: int):
    init_seq, train_seq = np.random.SeedSequence([seed, 0x7A1]).spawn(2)
    return np.random.default_rng(init_seq), np.random.default_rng(train_seq)


def _save(path, policy, critic, p_opt, c_opt, seed, steps):
    nn.save_checkpoint(path, {"actor": (policy, p_opt), "critic": (critic, c_opt)},
                       seed, steps)


def _run_training(out_dir, platform, cfg: RunConfig, seed, policy, critic,
                  train_rng) -> None:
    p_opt = nn.AdamState.for_net(policy)
    c_opt = nn.AdamState.for_net(critic)
    envs = make_envs(platform, cfg, seed)

    def checkpoint_fn(u, pol, cri, po, co):
        _save(os.path.join(out_dir, f"checkpoint_{u + 1:05d}.bin"),
              pol, cri, po, co, seed,
              (u + 1) * cfg.train.rollout_horizon)

    log = ppo.train(envs, policy, critic, cfg.train, train_rng,
                    policy_opt=p_opt, critic_opt=c_opt,
                    log_path=os.path.join(out_dir, "train_log.csv"),
                    checkpoint_fn=checkpoint_fn)
    steps = log[-1].env_steps if log else 0
    _save(os.path.join(out_dir, "checkpoint_final.bin"),
          policy, critic, p_opt, c_opt, seed, steps)


def cmd_train_quad(args) -> int:
    cfg, seed = _resolved_config(args)
    os.makedirs(args.out, exist_ok=True)
    write_manifest(args.out, "quad", seed, cfg, {
        "train_log": "train_log.csv", "final_checkpoint": "checkpoint_final.bin"})
    init_rng, train_rng = _train_rngs(seed)
    h = cfg.train.hidden_sizes
    quad = Platform.QUAD
    policy = nn.make_mlp([quad.obs_dim, *h, quad.act_dim], init_rng, output_tanh=True)
    critic = nn.make_mlp([quad.obs_dim, *h, 1], init_rng, output_tanh=False)
    _run_training(args.out, quad, cfg, seed, policy, critic, train_rng)
    return 0


def cmd_train_tilt(args) -> int:
    cfg, seed = _resolved_config(args)
    os.makedirs(args.out, exist_ok=True)
    stage = "tilt_developmental" if args.from_checkpoint else "tilt_scratch"
    write_manifest(args.out, stage, seed, cfg, {
        "train_log": "train_log.csv", "final_checkpoint": "checkpoint_final.bin"})
    init_rng, train_rng = _train_rngs(seed)
    if args.from_checkpoint:
        nets, _, _ = nn.load_checkpoint(args.from_checkpoint)
        quad_actor, _ = nets["actor"]
        quad_critic, _ = nets["critic"]
        policy, actor_report = transfer.build_tilt_actor(quad_actor, init_rng)
        critic, critic_report = transfer.build_tilt_critic(quad_critic, init_rng)
        _write_transfer_reports(args.out, actor_report, critic_report)
    else:
        h = cfg.train.hidden_sizes
        tilt = Platform.TILT_ROTOR
        policy = nn.make_mlp([tilt.obs_dim, *h, tilt.act_dim], init_rng, output_tanh=True)
        critic = nn.make_mlp([tilt.obs_dim, *h, 1], init_rng, output_tanh=False)
    _run_training(args.out, Platform.TILT_ROTOR, cfg, seed, policy, critic, train_rng)
    return 0


def _write_transfer_reports(out_dir, actor_report, critic_report) -> None:
    with atomic_open(os.path.join(out_dir, "transfer_report.txt")) as fh:
        fh.write("actor\n" + actor_report.to_text() + "\n\n")
        fh.write("critic\n" + critic_report.to_text() + "\n")
    with atomic_open(os.path.join(out_dir, "transfer_report.csv")) as fh:
        fh.write(actor_report.to_csv() + "\n" + critic_report.to_csv() + "\n")


def _load_actor(path) -> nn.Mlp:
    nets, _, _ = nn.load_checkpoint(path)
    actor, _ = nets["actor"]
    return actor


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    seed = args.seed if args.seed is not None else cfg.train.seed

    if args.mode == "waypoint" and args.controller == "pid":
        actor = None
    else:
        if args.checkpoint is None:
            raise ConfigError("a checkpoint is required unless --controller pid")
        actor = _load_actor(args.checkpoint)

    if args.mode == "hover":
        results = run_hover_eval(actor, cfg.sim, args.trials, seed, trace_dir=args.out)
        _write_summary(args.out, results)
        n_ok = sum(r.success for r in results)
        print(f"hover eval: {n_ok}/{len(results)} successes")
    elif args.mode == "ablate":
        successes, results = run_fault_ablation(actor, args.faulty, args.trials,
                                                cfg.sim, seed)
        _write_summary(args.out, results)
        print(f"ablation ({args.faulty} faulty): {successes}/{args.trials} successes")
    else:
        controller = "pid" if args.controller == "pid" else actor
        res = run_waypoint_mission(controller, SQUARE_MISSION, cfg.sim, gains=cfg.pid)
        write_trace(os.path.join(args.out, "waypoint_trace.csv"), res.trace)
        print(f"waypoint mission: visited {sum(res.hits)}/{len(SQUARE_MISSION)}"
              f" -> {'ok' if res.all_visited else 'FAILED'}")
        return 0 if res.all_visited else 2
    return 0


def _write_summary(out_dir, results) -> None:
    with atomic_open(os.path.join(out_dir, "summary.csv")) as fh:
        fh.write(SUMMARY_HEADER + "\n")
        fh.write("\n".join(summary_rows(results)) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tiltrl", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("train-quad", help="train the quadcopter policy from scratch")
    common(p)
    p.add_argument("--steps", type=positive_int, default=None, help="override total_steps")
    p.set_defaults(func=cmd_train_quad)

    p = sub.add_parser("train-tilt", help="train the tilt-rotor policy")
    common(p)
    p.add_argument("--steps", type=positive_int, default=None)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--from", dest="from_checkpoint", metavar="CKPT",
                       help="developmental transfer from a quad checkpoint")
    group.add_argument("--scratch", action="store_true",
                       help="train the 22-in/8-out networks fresh")
    p.set_defaults(func=cmd_train_tilt)

    p = sub.add_parser("eval", help="evaluate a trained policy")
    p.add_argument("checkpoint", nargs="?", default=None)
    p.add_argument("--mode", choices=["hover", "waypoint", "ablate"], required=True)
    p.add_argument("--trials", type=positive_int, default=10)
    p.add_argument("--faulty", type=int, default=1, choices=[1, 2, 3, 4])
    p.add_argument("--controller", choices=["policy", "pid"], default="policy")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("write-config", help="write the default config file")
    p.add_argument("path")
    p.set_defaults(func=lambda a: (write_config(default_config(), a.path), 0)[1])

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ShapeMismatchError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
