"""train_pipeline: one seed of the paper's experiment at the shipped config.

A round runs `train-quad`, then `train-tilt --from` the quad stage's final
checkpoint (developmental) and `train-tilt --scratch` (conventional), each
for STAGE_UPDATES PPO updates, with a periodic checkpoint every
CHECKPOINT_EVERY updates as the acceptance suite writes them.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import glob
import math
import os
import re
import shutil

import numpy as np

from common import RoundResult, digest_tree, files_size, fresh_import, run_cli

STAGE_UPDATES = 2
CHECKPOINT_EVERY = 2
STAGES = ("quad", "developmental", "scratch")
QUAD_OBS = 18


class TrainPipeline:
    name = "train_pipeline"

    def __init__(self, seed: int, work_dir: str, stopwatch):
        self.stopwatch = stopwatch
        self.seed = seed
        self.work = work_dir
        self.cfg_path = os.path.join(work_dir, "bench.cfg")
        self.prog = None
        self.cfg = None

    def setup(self) -> None:
        """Import the program and write the run's config file."""
        prog = fresh_import()
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        cfg = prog.config.default_config()
        cfg = dataclasses.replace(cfg, train=dataclasses.replace(
            cfg.train, checkpoint_every=CHECKPOINT_EVERY))
        prog.config.write_config(cfg, self.cfg_path)
        loaded = prog.config.load_config(self.cfg_path)
        if prog.config.as_flat_dict(loaded) != prog.config.as_flat_dict(cfg):
            raise RuntimeError("config file does not round-trip")
        self.prog, self.cfg = prog, loaded

    def _dir(self, stage: str) -> str:
        return os.path.join(self.work, "round", stage)

    def run_round(self, traced=contextlib.nullcontext) -> RoundResult:
        """The three stages, each inside `traced()`, then their checks."""
        root = os.path.join(self.work, "round")
        shutil.rmtree(root, ignore_errors=True)
        horizon = self.cfg.train.rollout_horizon
        common = ["--config", self.cfg_path, "--seed", str(self.seed),
                  "--steps", str(STAGE_UPDATES * horizon)]
        argvs = {
            "quad": ["train-quad", *common, "--out", self._dir("quad")],
            "developmental": ["train-tilt", "--from",
                              os.path.join(self._dir("quad"), "checkpoint_final.bin"),
                              *common, "--out", self._dir("developmental")],
            "scratch": ["train-tilt", "--scratch", *common, "--out", self._dir("scratch")],
        }
        commands, errors = [], []
        for stage in STAGES:
            rc, *timing = run_cli(self.prog, argvs[stage], self.stopwatch, traced)
            commands.append((stage, *timing))
            if rc != 0:
                errors.append(f"{stage}: tiltrl exited with {rc}")
                break
        attempted, failed, env_steps = len(commands), 0, 0
        if not errors:
            for stage in STAGES:
                a, f, steps, errs = self._check_stage(stage)
                attempted += a
                failed += f
                env_steps += steps
                errors += errs
        return RoundResult(
            commands=commands, attempted=attempted, failed=failed,
            errors=errors, digest=digest_tree(root),
            counts={"env_steps": env_steps,
                    "checkpoint_bytes": files_size(root, lambda f: f.endswith(".bin"))})

    def _check_stage(self, stage: str):
        """train_log.csv and checkpoints of one stage. Every checkpoint write
        is one operation; a periodic one fails when its step field is not
        k * rollout_horizon."""
        out = self._dir(stage)
        tc = self.cfg.train
        n = STAGE_UPDATES
        errors = []
        with open(os.path.join(out, "train_log.csv")) as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != n:
            errors.append(f"{stage}: train_log.csv has {len(rows)} rows, want {n}")
        for u, row in enumerate(rows):
            if int(row["update_index"]) != u or int(row["env_steps"]) != (u + 1) * tc.rollout_horizon:
                errors.append(f"{stage}: log row {u} counts {row['env_steps']} env steps")
            if not math.isclose(float(row["lr"]), tc.lr0 * (1 - u / n), rel_tol=1e-8):
                errors.append(f"{stage}: log row {u} lr {row['lr']}")
            for key in ("policy_loss", "value_loss", "clip_fraction"):
                if not math.isfinite(float(row[key])):
                    errors.append(f"{stage}: log row {u} {key} = {row[key]}")

        attempted = failed = 0
        periodic = []
        for path in sorted(glob.glob(os.path.join(out, "checkpoint_*.bin"))):
            attempted += 1
            _, _, steps = self.prog.neuralnet.load_checkpoint(path)
            m = re.fullmatch(r"checkpoint_(\d{5})\.bin", os.path.basename(path))
            if m:
                k = int(m.group(1))
                periodic.append(k)
                failed += steps != k * tc.rollout_horizon
            elif steps != n * tc.rollout_horizon:
                errors.append(f"{stage}: final checkpoint records {steps} steps")
        want = list(range(CHECKPOINT_EVERY, n + 1, CHECKPOINT_EVERY))
        if periodic != want or attempted != len(want) + 1:
            errors.append(f"{stage}: periodic checkpoints {periodic}, want {want} and a final one")
        env_steps = int(rows[-1]["env_steps"]) if rows else 0
        return attempted, failed, env_steps, errors

    def deep_checks(self) -> list[str]:
        """Checks against computations made apart from the program; run on
        the outputs of one round."""
        nn = self.prog.neuralnet
        errors = []
        finals = {s: nn.load_checkpoint(os.path.join(self._dir(s), "checkpoint_final.bin"))[0]
                  for s in STAGES}

        quad_actor, dev_actor = finals["quad"]["actor"][0], finals["developmental"]["actor"][0]
        same = (dev_actor.weights[0][:, :QUAD_OBS].tobytes() == quad_actor.weights[0].tobytes()
                and all(dev_actor.biases[i].tobytes() == quad_actor.biases[i].tobytes()
                        for i in (0, 1))
                and dev_actor.weights[1].tobytes() == quad_actor.weights[1].tobytes())
        if not same:
            errors.append("developmental actor's frozen layers differ from the quad actor's")

        for stage in STAGES:
            errors += self._check_gae(stage, finals[stage])
        return errors

    def _check_gae(self, stage: str, nets) -> list[str]:
        """GAE of a fresh rollout from the stage's final nets against a
        brute-force discounted sum."""
        prog, tc = self.prog, self.cfg.train
        platform = prog.env.Platform.QUAD if stage == "quad" else prog.env.Platform.TILT_ROTOR
        policy, critic = nets["actor"][0], nets["critic"][0]
        envs = prog.cli.make_envs(platform, self.cfg, self.seed)
        buf = prog.ppo.collect_rollout(policy, critic, envs, tc,
                                       np.random.default_rng(self.seed))
        adv, ret = prog.ppo.compute_gae(buf, tc.gamma, tc.gae_lambda)
        want = brute_force_gae(buf.rewards, buf.values, buf.dones, buf.bootstrap,
                               buf.n_envs, tc.gamma, tc.gae_lambda)
        errors = []
        if not np.allclose(adv, want, rtol=1e-9, atol=1e-9):
            errors.append(f"{stage}: GAE differs from the discounted sum by "
                          f"{np.max(np.abs(adv - want)):.3g}")
        if not np.allclose(ret, want + buf.values, rtol=1e-9, atol=1e-9):
            errors.append(f"{stage}: returns differ from advantages + values")
        return errors


def brute_force_gae(rewards, values, dones, bootstrap, n_envs, gamma, lam):
    """A_t = sum_l (gamma*lam)^l delta_{t+l}, summed forward to the end of the
    episode or of the env's segment, whose tail value is the bootstrap."""
    seg = len(rewards) // n_envs
    adv = np.zeros(len(rewards))
    for e in range(n_envs):
        base = e * seg
        for t in range(seg):
            total, weight = 0.0, 1.0
            for k in range(t, seg):
                i = base + k
                if dones[i]:
                    next_value = 0.0
                elif k == seg - 1:
                    next_value = bootstrap[e]
                else:
                    next_value = values[i + 1]
                total += weight * (rewards[i] + gamma * next_value - values[i])
                if dones[i]:
                    break
                weight *= gamma * lam
            adv[base + t] = total
    return adv
