"""Spans around calls into the program's public functions.

Each function is wrapped at the name its caller looks it up under (for
example `tiltrl.env.step_flat`, which `env` imported by name), so the
program itself is not changed. A span's self time is its duration minus
the durations of the spans nested inside it. Spans stay in memory until
`write_spans` is called at the end of the run.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import os
import time


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, float, float]] = []  # name, parent, start, end
        self.calls = collections.Counter()
        self.total_s = collections.Counter()
        self.self_s = collections.Counter()
        self.counts = collections.Counter()   # events and work counted at boundaries
        self._stack: list[list] = []          # [span index, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, after=None):
        """fn with a span named `name`; after(args, result) may add counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                spans[frame[0]] = (name, parent, t0, t1)
                if stack:
                    stack[-1][1] += d
                self.calls[name] += 1
                self.total_s[name] += d
                self.self_s[name] += d - frame[1]
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def active(self, prog):
        """Program instrumented for the duration of the block."""
        instrument(self, prog)
        try:
            yield
        finally:
            self.unpatch()

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{t0:.9f},{t1:.9f}\n")


def instrument(tracer: Tracer, prog) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    cli, env, ev, nn, ppo = prog.cli, prog.env, prog.evalsuite, prog.neuralnet, prog.ppo
    count = tracer.counts

    def env_end(_, result):
        status = result[2]
        if status is not env.TermStatus.RUNNING:
            count["env.end." + status.value] += 1

    def file_bytes(args, _):
        count["neuralnet.checkpoint_bytes"] += os.path.getsize(args[0])

    def trials(n):
        return lambda _, result: count.update({"evalsuite.trials": n(result)})

    tracer.patch(env, "step_flat", "dynamics.step")
    tracer.patch(ev, "step_flat", "dynamics.step",
                 after=lambda *_: count.update({"evalsuite.sim_steps": 1}))
    tracer.patch(env.HoverEnv, "step", "env.step", after=env_end)
    tracer.patch(env.HoverEnv, "reset", "env.reset")
    tracer.patch(ev, "trace_row", "env.trace_row")
    for fn in ("forward", "gradients", "adam_step"):
        tracer.patch(nn, fn, "neuralnet." + fn)
    tracer.patch(nn, "save_checkpoint", "neuralnet.save_checkpoint", after=file_bytes)
    tracer.patch(nn, "load_checkpoint", "neuralnet.load_checkpoint", after=file_bytes)
    for fn in ("collect_rollout", "compute_gae", "ppo_update"):
        tracer.patch(ppo, fn, "ppo." + fn)
    for fn in ("build_tilt_actor", "build_tilt_critic"):
        tracer.patch(prog.transfer, fn, "transfer.build")
    tracer.patch(ev, "policy_command", "evalsuite.policy_command")
    tracer.patch(ev, "pid_controller", "evalsuite.pid_controller")
    tracer.patch(cli, "run_hover_eval", "evalsuite.protocol", after=trials(len))
    tracer.patch(cli, "run_fault_ablation", "evalsuite.protocol",
                 after=trials(lambda r: len(r[1])))
    tracer.patch(cli, "run_waypoint_mission", "evalsuite.protocol",
                 after=trials(lambda r: 1))
    tracer.patch(cli, "cmd_train_quad", "cli.stage")
    tracer.patch(cli, "cmd_train_tilt", "cli.stage")
    tracer.patch(cli, "cmd_eval", "cli.eval")
    tracer.patch(cli, "load_config", "config.load_config")


# (metric, unit): "calls" and counts are per round, "us"/"ms" are the mean
# per call, "s" is seconds per round.
PER_LAYER = [
    ("dynamics.step.calls", "count"), ("dynamics.step.us", "us"),
    ("env.step.calls", "count"), ("env.step.self_us", "us"),
    ("env.reset.calls", "count"), ("env.reset.us", "us"),
    ("env.end.out_of_bounds", "count"), ("env.end.max_steps", "count"),
    ("env.end.diverged", "count"),
    ("env.trace_row.us", "us"), ("env.trace_bytes", "bytes"),
    ("neuralnet.forward.calls", "count"), ("neuralnet.forward.us", "us"),
    ("neuralnet.gradients.us", "us"), ("neuralnet.adam_step.us", "us"),
    ("neuralnet.save_checkpoint.ms", "ms"), ("neuralnet.load_checkpoint.ms", "ms"),
    ("neuralnet.checkpoint_bytes", "bytes"),
    ("ppo.collect_rollout.s", "s"), ("ppo.collect_rollout.self_s", "s"),
    ("ppo.compute_gae.ms", "ms"), ("ppo.ppo_update.s", "s"),
    ("ppo.ppo_update.self_s", "s"), ("ppo.minibatches", "count"),
    ("transfer.build.ms", "ms"),
    ("evalsuite.policy_command.self_us", "us"), ("evalsuite.pid_controller.us", "us"),
    ("evalsuite.protocol.self_s", "s"), ("evalsuite.trials", "count"),
    ("evalsuite.sim_steps", "count"),
    ("cli.stage.self_s", "s"), ("cli.eval.self_s", "s"),
    ("config.load_config.ms", "ms"),
    ("trace.overhead_s", "s"),
]


def per_layer_metrics(tracer: Tracer, rounds: int, trace_bytes: float,
                      overhead_s: float, time_scale: float) -> dict[str, dict]:
    """Per-layer metrics over `rounds` traced rounds; absent layers read 0.
    Times are multiplied by `time_scale`, the host-speed calibration of the
    traced commands (see README.md)."""
    scale = {"us": 1e6 * time_scale, "ms": 1e3 * time_scale, "s": time_scale}
    out = {}
    for metric, unit in PER_LAYER:
        if metric == "env.trace_bytes":
            value = trace_bytes
        elif metric == "trace.overhead_s":
            value = overhead_s
        elif metric == "ppo.minibatches":   # one actor and one critic gradient each
            value = tracer.calls["neuralnet.gradients"] / 2 / rounds
        elif metric.endswith(".calls"):
            value = tracer.calls[metric[:-6]] / rounds
        elif unit in scale:   # us and ms per call, s per round
            layer, _, kind = metric.rpartition(".")
            spent = tracer.self_s[layer] if kind.startswith("self") else tracer.total_s[layer]
            per = rounds if unit == "s" else tracer.calls[layer]
            value = spent / per * scale[unit] if per else 0.0
        else:
            value = tracer.counts[metric] / rounds
        out[metric] = {"value": value, "unit": unit}
    return out
