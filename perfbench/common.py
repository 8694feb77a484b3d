"""Helpers shared by the workloads: loading the program from source, running
`tiltrl` commands in process, hashing outputs and recording host facts."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import math
import os
import platform
import statistics
import sys
import time
import types

import numpy as np


# The reference kernel's time, in seconds, on the reference host (see
# README.md) when nothing else loads its cores.
REFERENCE_S = 0.0110
_REF_W = np.random.default_rng(0).standard_normal((64, 22)) * 0.1


def reference_kernel() -> float:
    """Fixed work in the program's style, independent of tiltrl: scalar
    float math on Python lists, single-vector mat-vecs and tanh, number
    formatting. Its slowdown under load from the host's other tenants
    tracks the program's more closely than a kernel with minibatch-sized
    array work does."""
    x = np.linspace(-1.0, 1.0, 22)
    y = [0.1 * i for i in range(21)]
    acc = 0.0
    for i in range(800):
        h = np.tanh(_REF_W @ x)
        x[i % 22] = float(h[i % 64]) * 0.5
        for _ in range(4):
            y = [a + 1e-3 * math.sin(a) * b for a, b in zip(y, y[1:] + y[:1])]
        if i % 8 == 0:
            acc += len(",".join(f"{v:.9g}" for v in y[:10]))
        acc += y[0]
    return acc


def host_probe() -> list[float]:
    """Seconds the reference kernel takes now, three times over."""
    out = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_kernel()
        out.append(time.perf_counter() - t0)
    return out


def calibrated(raw: float, before: list[float], after: list[float]) -> float:
    """The raw time scaled by REFERENCE_S over the probes' mean."""
    return raw * REFERENCE_S / statistics.fmean(before + after)


class Stopwatch:
    """Times calls between host probes. The probe taken after one call is
    the probe before the next, so back-to-back calls share probes."""

    def __init__(self):
        self._last: list[float] | None = None

    def time(self, fn, traced=contextlib.nullcontext):
        """Run fn() inside traced(). Returns (result, raw seconds, probe
        before, probe after)."""
        before = self._last or host_probe()
        with traced():
            t0 = time.perf_counter()
            result = fn()
            raw = time.perf_counter() - t0
        self._last = host_probe()
        return result, raw, before, self._last


@dataclasses.dataclass
class RoundResult:
    """One round of a workload: the same tiltrl commands every time."""

    commands: list[tuple]  # (phase, raw s, probe before, probe after), in order
    attempted: int
    failed: int
    errors: list[str]             # failed correctness checks
    digest: dict[str, str]        # sha256 of every output file
    counts: dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(calibrated(*c[1:]) for c in self.commands)

    @property
    def raw_seconds(self) -> float:
        return sum(c[1] for c in self.commands)


def fresh_import() -> types.SimpleNamespace:
    """Import the tiltrl package anew, as a new process would, and return
    its modules. Earlier imports are dropped so set-up can be repeated."""
    for name in [n for n in sys.modules if n == "tiltrl" or n.startswith("tiltrl.")]:
        del sys.modules[name]
    importlib.import_module("tiltrl.cli")
    mods = {n: sys.modules[f"tiltrl.{n}"] for n in
            ("cli", "config", "dynamics", "env", "evalsuite", "neuralnet",
             "ppo", "transfer")}
    return types.SimpleNamespace(**mods)


def run_cli(prog, argv: list[str], stopwatch: Stopwatch, traced=contextlib.nullcontext):
    """Run `tiltrl <argv>` in process, stdout captured; returns what
    Stopwatch.time returns."""
    with contextlib.redirect_stdout(io.StringIO()):
        return stopwatch.time(lambda: prog.cli.main(argv), traced)


def digest_tree(root: str) -> dict[str, str]:
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def files_size(root: str, predicate) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(root) for f in files if predicate(f))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def _git_revision(root: str) -> str:
    """Revision from .git without running git; 'unknown' outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_sha256(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src", "tiltrl")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def host_facts(root: str) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_revision": _git_revision(root),
        "source_sha256": _source_sha256(root),
    }
