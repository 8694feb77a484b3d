"""Benchmark of the tiltrl stack: training throughput and evaluation-protocol
time, end to end and layer by layer. See perfbench/README.md.

    python3 perfbench/run.py --workload {train_pipeline,eval_protocols} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the program from `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
SETUPS_PER_ROUND = 3   # set-ups timed before each round
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["train_pipeline", "eval_protocols"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measurement window; every round started in it runs to its end")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def prepare_process() -> None:
    """Pin BLAS to one thread before numpy loads, drop TILTRL_* overrides
    so the shipped config is what runs, and put `src/` on the path."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    for var in [v for v in os.environ if v.startswith("TILTRL_")]:
        del os.environ[var]
    sys.path.insert(0, os.path.join(ROOT, "src"))


def run_rounds(workload, until: float, rounds: list, setup_s: list,
               traced=contextlib.nullcontext) -> None:
    """Whole rounds, each after timed set-ups, until the clock passes
    `until` (at least one round)."""
    while True:
        for _ in range(SETUPS_PER_ROUND):
            setup_s.append(workload.stopwatch.time(workload.setup)[1:])
        rounds.append(workload.run_round(traced))
        if time.perf_counter() >= until:
            return


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tiltrl", "cli.py")):
        sys.stderr.write(f"error: no tiltrl sources under {ROOT}/src\n")
        return 2
    prepare_process()

    from bench_trace import Tracer, per_layer_metrics
    from common import Stopwatch, calibrated, host_facts
    from eval_workload import EvalProtocols
    from train_workload import TrainPipeline

    cls = {c.name: c for c in (TrainPipeline, EvalProtocols)}[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = cls(args.seed, os.path.join(OUT, "work", tag), Stopwatch())

    setup_s = []
    start = time.perf_counter()
    plain, traced = [], []
    tracer = Tracer()
    if args.trace:
        run_rounds(workload, start + args.seconds / 2, plain, setup_s)
        run_rounds(workload, start + args.seconds, traced, setup_s,
                   lambda: tracer.active(workload.prog))
    else:
        run_rounds(workload, start + args.seconds, plain, setup_s)
    rounds = plain + traced

    errors = [e for r in rounds for e in r.errors]
    errors += workload.deep_checks()
    for i, r in enumerate(rounds[1:], 1):
        if r.digest != rounds[0].digest:
            changed = sorted(k for k in set(r.digest) | set(rounds[0].digest)
                             if r.digest.get(k) != rounds[0].digest.get(k))
            errors.append(f"round {i}{' (traced)' if i >= len(plain) else ''} "
                          f"outputs differ from round 0: {changed[:5]}")

    med = statistics.median
    phases = {p: med(sum(calibrated(*c[1:]) for c in r.commands if c[0] == p) for r in plain)
              for p in dict.fromkeys(c[0] for c in plain[0].commands)}
    if args.trace:
        metrics = per_layer_metrics(
            tracer, len(traced), med(r.counts.get("trace_bytes", 0) for r in traced),
            med(r.seconds for r in traced) - med(r.seconds for r in plain),
            sum(r.seconds for r in traced) / sum(r.raw_seconds for r in traced))
    else:
        metrics = {
            "setup_s": {"value": med(calibrated(*s) for s in setup_s), "unit": "s"},
            "round_s": {"value": med(r.seconds for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }

    os.makedirs(OUT, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_facts(ROOT), "setups": setup_s,
        "rounds": [{"commands": r.commands, "counts": r.counts,
                    "attempted": r.attempted, "failed": r.failed, "traced": i >= len(plain)}
                   for i, r in enumerate(rounds)],
        "phase_median_s": phases, "errors": errors, **result,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        tracer.write_spans(os.path.join(OUT, f"{tag}-spans.csv"))

    for e in errors:
        sys.stderr.write(f"check failed: {e}\n")
    print(f"{args.workload}: {len(plain)} timed rounds, {len(traced)} traced rounds; "
          + ", ".join(f"{k} {v:.3f} s" for k, v in phases.items()))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
