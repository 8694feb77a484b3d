"""Command-line entry point: reproducible training, transfer, and
evaluation runs.

Commands:
    tiltrl train-quad  [--config F] [--seed N] [--steps N] --out DIR
    tiltrl train-tilt  (--from CKPT | --scratch) [--config F] [--seed N]
                       [--steps N] --out DIR
    tiltrl eval CKPT --mode {hover,ablate} [--trials N (10)] [--seed N] --out DIR
                       [--faulty N (1), with --mode ablate only]
    tiltrl eval CKPT --mode waypoint [--controller policy] --out DIR
    tiltrl eval --mode waypoint --controller pid [--seed N] --out DIR
    tiltrl write-config PATH

An --out DIR must be new or an empty directory.
Exit codes: 0 ok, 1 usage error, 2 runtime error.
Any config key can be overridden via the TILTRL_<KEY> environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import hashlib
import json
import os
import pathlib
import platform
import sys

import numpy as np

from . import neuralnet as nn
from . import ppo, transfer
from .config import ConfigError, RunConfig, as_flat_dict, default_config, \
    load_config, write_config
from .env import TRACE_HEADER, HoverEnv, Platform
from .evalsuite import (SQUARE_MISSION, SUMMARY_HEADER, actor_platform,
                        run_fault_ablation, run_hover_eval, run_waypoint_mission,
                        summary_rows)
from .neuralnet import CheckpointError, ShapeMismatchError, atomic_open, write_rows


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


def seed_int(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2**64), got {value}")
    return value


def make_envs(platform: Platform, cfg: RunConfig, seed: int) -> list[HoverEnv]:
    """Independent env pool; RNGs split deterministically from the seed."""
    seqs = np.random.SeedSequence([seed, 0xE17]).spawn(cfg.train.n_envs)
    return [HoverEnv(platform, cfg.sim, cfg.episode, cfg.rewards,
                     np.random.default_rng(s)) for s in seqs]


def source_sha256() -> str:
    """sha256 over the package's *.py files, sorted by name, each fed as its
    name, a NUL byte and its bytes."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(os.path.dirname(__file__), "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def _resolved_config(args) -> RunConfig:
    cfg = load_config(args.config)
    seed = cfg.train.seed if args.seed is None else args.seed
    steps = args.steps or cfg.train.total_steps
    return dataclasses.replace(cfg, train=dataclasses.replace(
        cfg.train, seed=seed, total_steps=steps))


def stage_manifest(args, cfg: RunConfig | None = None) -> dict:
    """The manifest.json that `train-quad` or `train-tilt` with these parsed
    args writes before it trains (cfg: their resolved config). It records
    the run's inputs and no output path; the run adds "completed": true
    once its final checkpoint is written."""
    cfg = cfg or _resolved_config(args)
    source = getattr(args, "from_checkpoint", None)
    return {
        "source_sha256": source_sha256(),
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "stage": ("quad" if args.command == "train-quad" else
                  "tilt_developmental" if source else "tilt_scratch"),
        "from_checkpoint_sha256": (hashlib.sha256(pathlib.Path(source).read_bytes())
                                   .hexdigest() if source else None),
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in as_flat_dict(cfg).items()},
    }


def write_manifest(out_dir: str, manifest: dict) -> None:
    with atomic_open(os.path.join(out_dir, "manifest.json")) as fh:
        json.dump(manifest, fh, indent=2)


def cmd_train(args) -> int:
    """One training stage: quad, developmental transfer (--from) or scratch."""
    cfg = _resolved_config(args)
    manifest = stage_manifest(args, cfg)
    source = getattr(args, "from_checkpoint", None)
    seed, h = cfg.train.seed, cfg.train.hidden_sizes
    init_seq, train_seq = np.random.SeedSequence([seed, 0x7A1]).spawn(2)
    init_rng = np.random.default_rng(init_seq)
    vehicle = Platform.QUAD if manifest["stage"] == "quad" else Platform.TILT_ROTOR
    if source:
        quad_nets = nn.load_checkpoint(source)[0]
        policy, a_copied = transfer.build_tilt_actor(quad_nets["actor"][0], init_rng)
        critic, c_copied = transfer.build_tilt_critic(quad_nets["critic"][0], init_rng)
        widths = [net.layer_sizes[1:-1] for net in (policy, critic)]
        if widths != [list(h)] * 2:
            raise ConfigError(f"hidden_sizes {list(h)} differs from the --from networks'"
                              f" hidden widths {widths}")
    else:
        policy = nn.make_mlp([vehicle.obs_dim, *h, vehicle.act_dim], init_rng,
                             output_tanh=True)
        critic = nn.make_mlp([vehicle.obs_dim, *h, 1], init_rng, output_tanh=False)
    os.makedirs(args.out, exist_ok=True)
    write_manifest(args.out, manifest)
    if source:
        _write_transfer_report(args.out, {"actor": transfer.provenance(policy, a_copied),
                                          "critic": transfer.provenance(critic, c_copied)})
    ppo.train(make_envs(vehicle, cfg, seed), policy, critic, cfg.train,
              np.random.default_rng(train_seq), args.out)
    write_manifest(args.out, {**manifest, "completed": True})
    return 0


# The two commands keep their own names, which the benchmark's tracer wraps.
cmd_train_quad = cmd_train_tilt = cmd_train


def _write_transfer_report(out_dir, reports: dict) -> None:
    write_rows(os.path.join(out_dir, "transfer_report.csv"), "net,block,category,count",
               (f"{name},{block},{cat},{n}"
                for name, rows in reports.items() for block, cat, n in rows))


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.train.seed
    trials, faulty = args.trials or 10, args.faulty or 1
    if args.controller == "pid":
        controller = "pid"
    else:
        if args.checkpoint is None:
            raise ConfigError("a checkpoint is required unless --mode waypoint"
                              " --controller pid")
        controller = nn.load_checkpoint(args.checkpoint)[0]["actor"][0]
        actor_platform(controller)   # a shape no platform flies fails before --out exists
    if args.mode == "ablate":   # ablation rejects a quad actor before --out exists
        _, results = run_fault_ablation(controller, faulty, trials, cfg.sim, seed)
        label = f"ablation ({faulty} faulty)"
    os.makedirs(args.out, exist_ok=True)

    if args.mode == "waypoint":
        res = run_waypoint_mission(controller, SQUARE_MISSION, cfg.sim)
        write_rows(os.path.join(args.out, "waypoint_trace.csv"), TRACE_HEADER, res.trace)
        print(f"waypoint mission: visited {sum(res.hits)}/{len(SQUARE_MISSION)}"
              f" -> {'ok' if res.all_visited else 'FAILED'}")
        return 0 if res.all_visited else 2
    if args.mode == "hover":
        results = run_hover_eval(controller, cfg.sim, trials, seed, trace_dir=args.out)
        label = "hover eval"
    write_rows(os.path.join(args.out, "summary.csv"), SUMMARY_HEADER, summary_rows(results))
    print(f"{label}: {sum(r.success for r in results)}/{len(results)} successes")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tiltrl", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--seed", type=seed_int, default=None)
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
    p.add_argument("--trials", type=positive_int, default=None)
    p.add_argument("--faulty", type=int, default=None, choices=[1, 2, 3, 4])
    p.add_argument("--controller", choices=["policy", "pid"], default="policy")
    common(p)
    p.set_defaults(func=cmd_eval, usage_error=p.error)

    p = sub.add_parser("write-config", help="write the default config file")
    p.add_argument("path")
    p.set_defaults(func=lambda a: (write_config(default_config(), a.path), 0)[1])

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "controller", None) == "pid":
        if args.mode != "waypoint":
            args.usage_error("--controller pid needs --mode waypoint")
        if args.checkpoint is not None:
            args.usage_error(f"--controller pid flies no checkpoint, got {args.checkpoint}")
    if args.command == "eval" and args.faulty is not None and args.mode != "ablate":
        args.usage_error("--faulty needs --mode ablate")
    if args.command == "eval" and args.trials is not None and args.mode == "waypoint":
        args.usage_error("--mode waypoint flies one mission and takes no --trials")
    out = getattr(args, "out", None)
    try:
        if out is not None and os.path.exists(out) and (not os.path.isdir(out)
                                                        or os.listdir(out)):
            sys.stderr.write(f"error: --out {out} exists and is not an empty directory\n")
            return 2
        return args.func(args)
    except (ConfigError, ShapeMismatchError, CheckpointError, ppo.NonFiniteLossError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
