"""eval_protocols: the paper's evaluation on two tilt-rotor actors.

Set-up builds both actors from fixed seeds and saves them as checkpoints: a
developmental actor (transfer of a fresh quad actor) and a scratch actor.
A round runs each actor through `tiltrl eval`: hover (with per-trial trace
CSVs), the four ablation cells (`--faulty 1..4`, same seed for both actors)
and the square waypoint mission; then the mission once with
`--controller pid`, which uses no actor.

The inputs do not depend on the benchmark's --seed: the trials that blow up
(a fault of the program, see README.md) must be the same in every run.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import shutil

import numpy as np

from common import RoundResult, digest_tree, files_size, fresh_import, run_cli

ACTOR_SEEDS = {"developmental": 101, "scratch": 202}
EVAL_SEED = 2020
HOVER_TRIALS = 6
ABLATION_TRIALS = 5
HIDDEN = (64, 64)

# Expected outputs, stated apart from the program.
HOVER_TARGET = np.array([0.0, 0.0, 3.0])
SQUARE = np.array([(1.0, 1.0, 3.0), (-1.0, 1.0, 3.0), (-1.0, -1.0, 3.0), (1.0, -1.0, 3.0)])
TOLERANCE_M = 0.2
THRUST_RANGE_N = (0.0, 15.0)
TILT_LIMIT_RAD = math.pi / 3
SLACK = 1e-9   # trace values are printed with 9 significant digits


class EvalProtocols:
    name = "eval_protocols"

    def __init__(self, seed: int, work_dir: str, stopwatch):
        self.stopwatch = stopwatch
        self.seed = seed          # unused: the inputs are fixed, see the module docstring
        self.work = work_dir
        self.prog = None
        self.actors: dict[str, str] = {}

    def setup(self) -> None:
        """Import the program, build both actors and save them."""
        prog = fresh_import()
        nn, transfer = prog.neuralnet, prog.transfer
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        actors = {}
        for label, seed in ACTOR_SEEDS.items():
            rng = np.random.default_rng(seed)
            if label == "developmental":
                quad_actor = nn.make_mlp([18, *HIDDEN, 4], rng, output_tanh=True)
                quad_critic = nn.make_mlp([18, *HIDDEN, 1], rng, output_tanh=False)
                actor, _ = transfer.build_tilt_actor(quad_actor, rng)
                critic, _ = transfer.build_tilt_critic(quad_critic, rng)
            else:
                actor = nn.make_mlp([22, *HIDDEN, 8], rng, output_tanh=True)
                critic = nn.make_mlp([22, *HIDDEN, 1], rng, output_tanh=False)
            path = os.path.join(self.work, f"{label}.bin")
            nn.save_checkpoint(path, {"actor": (actor, None), "critic": (critic, None)}, seed, 0)
            actors[label] = path
        self.prog, self.actors = prog, actors

    def _commands(self, root: str):
        """(phase, actor label, output dir, argv) for one round."""
        seed = ["--seed", str(EVAL_SEED)]
        for label, ckpt in self.actors.items():
            out = os.path.join(root, label)
            yield "hover", label, f"{out}/hover", ["eval", ckpt, "--mode", "hover", "--trials",
                                                   str(HOVER_TRIALS), *seed, "--out", f"{out}/hover"]
            for k in range(1, 5):
                d = f"{out}/ablate{k}"
                yield "ablation", label, d, ["eval", ckpt, "--mode", "ablate", "--faulty", str(k),
                                             "--trials", str(ABLATION_TRIALS), *seed, "--out", d]
            yield "mission", label, f"{out}/waypoint", ["eval", ckpt, "--mode", "waypoint",
                                                         "--out", f"{out}/waypoint"]
        d = os.path.join(root, "pid", "waypoint")
        yield "mission", "pid", d, ["eval", "--mode", "waypoint", "--controller", "pid",
                                    "--out", d]

    def run_round(self, traced=contextlib.nullcontext) -> RoundResult:
        """Every protocol command, each inside `traced()`, then the checks.
        Each trial and each mission is one operation; a trial fails when
        its final error is not finite."""
        root = os.path.join(self.work, "round")
        shutil.rmtree(root, ignore_errors=True)
        commands, runs, errors = [], [], []
        for phase, label, out, argv in self._commands(root):
            rc, *timing = run_cli(self.prog, argv, self.stopwatch, traced)
            commands.append((phase, *timing))
            runs.append((phase, label, out, rc))

        attempted = failed = 0
        servo_ids = {}
        for phase, label, out, rc in runs:
            if phase == "mission":
                attempted += 1
                errors += check_mission(label, out, rc)
                continue
            if rc != 0:
                errors.append(f"{out}: tiltrl exited with {rc}")
                continue
            rows = read_summary(out)
            n = HOVER_TRIALS if phase == "hover" else ABLATION_TRIALS
            if [int(r["trial"]) for r in rows] != list(range(n)):
                errors.append(f"{out}: summary lists trials "
                              f"{[r['trial'] for r in rows]}, want 0..{n - 1}")
            attempted += len(rows)
            failed += sum(not math.isfinite(float(r["final_error_m"])) for r in rows)
            for r in rows:
                if (int(r["steps_to_reach"]) >= 0) != (r["success"] == "1"):
                    errors.append(f"{out}: trial {r['trial']} success={r['success']} "
                                  f"steps_to_reach={r['steps_to_reach']}")
            if phase == "ablation":
                k = int(os.path.basename(out)[len("ablate"):])
                ids = [r["servo_ids"] for r in rows]
                servo_ids.setdefault(k, {})[label] = ids
                errors += check_servo_ids(out, ids, k)
            else:
                errors += check_hover_traces(out, rows)
        for k, by_actor in servo_ids.items():
            if len(set(map(tuple, by_actor.values()))) != 1:
                errors.append(f"ablation --faulty {k}: the actors got different servo ids")

        return RoundResult(
            commands=commands, attempted=attempted, failed=failed,
            errors=errors, digest=digest_tree(root),
            counts={"trace_bytes": files_size(root, lambda f: "trace" in f)})


    def deep_checks(self) -> list[str]:
        """Every eval check is cheap enough to run on every round."""
        return []


def read_summary(out: str) -> list[dict]:
    with open(os.path.join(out, "summary.csv")) as fh:
        return list(csv.DictReader(fh))


def read_trace(path: str) -> dict[str, np.ndarray]:
    """Trace CSV columns by header name."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        lines = fh.readlines()
    data = (np.loadtxt(lines, delimiter=",", ndmin=2) if lines
            else np.zeros((0, len(header))))
    return {name: data[:, i] for i, name in enumerate(header)}


def check_trace_envelope(path: str, cols) -> list[str]:
    thrust = np.column_stack([cols[f"F{i}"] for i in range(1, 5)])
    tilt = np.column_stack([cols[f"tilt{i}"] for i in range(1, 5)])
    errors = []
    if thrust.size and (thrust.min() < THRUST_RANGE_N[0] - SLACK
                        or thrust.max() > THRUST_RANGE_N[1] + SLACK):
        errors.append(f"{path}: thrust outside {THRUST_RANGE_N} N")
    if tilt.size and np.abs(tilt).max() > TILT_LIMIT_RAD + SLACK:
        errors.append(f"{path}: tilt outside +-60 deg")
    return errors


def check_hover_traces(out: str, rows: list[dict]) -> list[str]:
    """success <=> steps_to_reach >= 0 <=> some trace row lies within the
    tolerance of the target (then the last row does, as row steps_to_reach)."""
    errors = []
    for r in rows:
        path = os.path.join(out, f"hover_trace_{int(r['trial']):03d}.csv")
        cols = read_trace(path)
        errors += check_trace_envelope(path, cols)
        pos = np.column_stack([cols["x"], cols["y"], cols["z"]])
        near = np.linalg.norm(pos - HOVER_TARGET, axis=1) <= TOLERANCE_M
        steps = int(r["steps_to_reach"])
        if bool(near.any()) != (r["success"] == "1"):
            errors.append(f"{path}: a row within {TOLERANCE_M} m is "
                          f"{'present' if near.any() else 'absent'} but success={r['success']}")
        if steps > 0 and (len(near) != steps or not near[-1]):
            errors.append(f"{path}: reached at step {steps} but the trace has {len(near)} rows")
    return errors


def check_servo_ids(out: str, ids: list[str], k: int) -> list[str]:
    errors = []
    for trial, field in enumerate(ids):
        servos = [int(s) for s in field.split(";")]
        if len(servos) != k or len(set(servos)) != k or not set(servos) <= {0, 1, 2, 3}:
            errors.append(f"{out}: trial {trial} faulty servos {field!r}")
    return errors


def check_mission(label: str, out: str, rc: int) -> list[str]:
    """Walk the trace through the square's waypoints in order. The PID
    mission must visit all four; the exit code must say whether they were."""
    path = os.path.join(out, "waypoint_trace.csv")
    cols = read_trace(path)
    errors = check_trace_envelope(path, cols)
    visited = 0
    for p in np.column_stack([cols["x"], cols["y"], cols["z"]]):
        if visited < len(SQUARE) and np.linalg.norm(p - SQUARE[visited]) <= TOLERANCE_M:
            visited += 1
    if rc != (0 if visited == len(SQUARE) else 2):
        errors.append(f"{path}: {visited} waypoints visited but tiltrl exited with {rc}")
    if label == "pid" and visited != len(SQUARE):
        errors.append(f"{path}: the PID mission visited {visited} of {len(SQUARE)} waypoints")
    return errors
