"""One untraced round of each benchmark workload, run from a copy of
`perfbench/` and `src/` so that nothing is written into the checkout. A
change to a name, signature or return shape that the benchmark calls fails
here rather than only when the benchmark runs."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["train_pipeline", "eval_protocols"])
def test_one_benchmark_round_is_correct(tmp_path, workload):
    for part in ("perfbench", "src"):
        shutil.copytree(os.path.join(ROOT, part), tmp_path / part,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
