import filecmp
import hashlib
import json
import os
import platform

import numpy as np
import pytest

import tiltrl.neuralnet as nn
from tiltrl.cli import main
from tiltrl.env import TRACE_HEADER
from tiltrl.evalsuite import SUMMARY_HEADER


def run(tmp_path, *argv, env=None):
    """Invoke the CLI in-process with config overrides that keep runs tiny."""
    overrides = {
        "TILTRL_N_ENVS": "2",
        "TILTRL_ROLLOUT_HORIZON": "64",
        "TILTRL_HIDDEN_SIZES": "16, 16",
        "TILTRL_CHECKPOINT_EVERY": "1000000",
    }
    if env:
        overrides.update(env)
    old = {k: os.environ.get(k) for k in overrides}
    os.environ.update(overrides)
    try:
        return main(list(argv))
    finally:
        for k, v in old.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def train_quad(tmp_path, name="quad", seed="3", steps="256"):
    out = tmp_path / name
    rc = run(tmp_path, "train-quad", "--seed", seed, "--steps", steps,
             "--out", str(out))
    assert rc == 0
    return out


class TestTrainQuad:
    def test_smoke_writes_artifacts(self, tmp_path):
        out = train_quad(tmp_path)
        assert (out / "checkpoint_final.bin").exists()
        assert (out / "manifest.json").exists()
        log = (out / "train_log.csv").read_text().strip().splitlines()
        assert len(log) >= 2  # header plus at least one update row

    def test_manifest_records_seed_and_config(self, tmp_path):
        out = train_quad(tmp_path, seed="11")
        m = json.loads((out / "manifest.json").read_text())
        assert m["stage"] == "quad"
        assert m["seed"] == 11
        assert m["config"]["total_steps"] == 256
        assert m["config"]["n_envs"] == 2
        assert m["python_version"] == platform.python_version()
        assert m["numpy_version"] == np.__version__

    def test_same_seed_identical_checkpoints(self, tmp_path):
        a = train_quad(tmp_path, "a", seed="5")
        b = train_quad(tmp_path, "b", seed="5")
        assert filecmp.cmp(a / "checkpoint_final.bin",
                           b / "checkpoint_final.bin", shallow=False)

    def test_different_seed_differs(self, tmp_path):
        a = train_quad(tmp_path, "a", seed="5")
        b = train_quad(tmp_path, "b", seed="6")
        assert not filecmp.cmp(a / "checkpoint_final.bin",
                               b / "checkpoint_final.bin", shallow=False)

    def test_checkpoint_shapes(self, tmp_path):
        out = tmp_path / "quad"
        rc = run(tmp_path, "train-quad", "--seed", "3", "--steps", "256",
                 "--out", str(out), env={"TILTRL_CHECKPOINT_EVERY": "1"})
        assert rc == 0
        nets, seed, steps = nn.load_checkpoint(out / "checkpoint_final.bin")
        actor, _ = nets["actor"]
        critic, _ = nets["critic"]
        assert actor.layer_sizes == [18, 16, 16, 4]
        assert critic.layer_sizes == [18, 16, 16, 1]
        assert steps == 256
        # rollout_horizon (64) already counts the steps of all envs.
        for k in range(1, 5):
            _, _, steps = nn.load_checkpoint(out / f"checkpoint_{k:05d}.bin")
            assert steps == k * 64


# sha256 of checkpoint_final.bin for a fixed seed, recorded under this numpy
# version before the flat-parameter engine landed. A change that alters what
# a fixed seed trains to shows up here.
GOLDEN_NUMPY = "2.4.6"
GOLDEN_SHA256 = {
    "quad": "402e1274281fb36fa7476cfab6e64a7415b018a047864b30b5731e9cce48930d",
    "tilt": "298aa26b244c8d4cbb2b466984569d56d26f81a51a433b5f0349216e4a658f0a",
}


@pytest.mark.skipif(np.__version__ != GOLDEN_NUMPY,
                    reason=f"golden hashes were recorded under numpy {GOLDEN_NUMPY}")
def test_same_seed_golden_checkpoints(tmp_path):
    # The shipped network and env-pool sizes, two updates per stage.
    env = {"TILTRL_N_ENVS": "8", "TILTRL_HIDDEN_SIZES": "64, 64",
           "TILTRL_ROLLOUT_HORIZON": "128", "TILTRL_CHECKPOINT_EVERY": "1"}
    quad, tilt = tmp_path / "quad", tmp_path / "tilt"
    assert run(tmp_path, "train-quad", "--seed", "3", "--steps", "256",
               "--out", str(quad), env=env) == 0
    assert run(tmp_path, "train-tilt", "--from", str(quad / "checkpoint_final.bin"),
               "--seed", "3", "--steps", "256", "--out", str(tilt), env=env) == 0
    for stage, out in (("quad", quad), ("tilt", tilt)):
        digest = hashlib.sha256((out / "checkpoint_final.bin").read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256[stage], stage


# sha256 of every evaluation output for fixed-seed actors, recorded under
# GOLDEN_NUMPY before the evaluation step was rewritten in scalar code. A
# change that alters a trial, a trace value or its formatting shows up here.
GOLDEN_EVAL_SHA256 = {
    "developmental/ablate/summary.csv":
        "65449fc4c65d2f5b87c2fbaeb765d0b8f6f2c510d873b00d8e381e16d9c1356d",
    "developmental/hover/hover_trace_000.csv":
        "283c32ec1b27b683fd90046f5095326dfaf9526bf51ef34d7e1a147035bb9a45",
    "developmental/hover/hover_trace_001.csv":
        "c071e866bd14fe42fc641ab1a4f9b8f23fc00c2b365cdfa28438ec3b22924509",
    "developmental/hover/hover_trace_002.csv":
        "7f18b0374aa1b0ca7ed04f78bce1715abe7a64e0e5b65f89ef5a40bdf6892bcc",
    "developmental/hover/summary.csv":
        "d43a9d4b574cf78299fb9129a43b5b656fdf2e6f6c3cd34c77ab86cc16c5e5a7",
    "developmental/waypoint/waypoint_trace.csv":
        "5697c5c3f8359c38dc153b1107847ccbc513680aa4213e2bfb6e80c2c920ab76",
    "pid/waypoint_trace.csv":
        "34ae07a807aa0af627249af7b1dd4e0a0a76a8243421f62ba5e4103dac88d925",
    "scratch/ablate/summary.csv":
        "fff5d7f93d15a9533089620440d2fea927bdf59c72d19a2cfa58f1b64eb44504",
    "scratch/hover/hover_trace_000.csv":
        "39258ad1b2d766237936284425151e4e39417b5e3fa7fa6cbc9d8dd30262818c",
    "scratch/hover/hover_trace_001.csv":
        "4b74c38f9ec7007b7d7392448df43bdc3cb5ef9a6431bfdfd6bc5244deb377fe",
    "scratch/hover/hover_trace_002.csv":
        "b940fecd7822c2b048cba722c72740f96f5514aefef132245057e0a0e044e639",
    "scratch/hover/summary.csv":
        "e120d5cacec88d31834d77e86da5116828bd590117c874ff3af3916e5ee66f29",
    "scratch/waypoint/waypoint_trace.csv":
        "b23647bb70ef403876f9ad9774882a56f015ac3aded005bc92c57e3cc76e1a9d",
}


def golden_eval_digests(tmp_path) -> dict[str, str]:
    """Save a developmental (transferred) and a scratch tilt-rotor actor from
    fixed seeds, run every evaluation mode on them, and hash the outputs by
    path relative to tmp_path."""
    from tiltrl import transfer
    ckpts = {}
    for label, seed in (("developmental", 11), ("scratch", 22)):
        rng = np.random.default_rng(seed)
        if label == "developmental":
            quad = nn.make_mlp([18, 64, 64, 4], rng, output_tanh=True)
            actor, _ = transfer.build_tilt_actor(quad, rng)
        else:
            actor = nn.make_mlp([22, 64, 64, 8], rng, output_tanh=True)
        critic = nn.make_mlp([22, 64, 64, 1], rng, output_tanh=False)
        ckpts[label] = str(tmp_path / f"{label}.bin")
        nn.save_checkpoint(ckpts[label], {"actor": (actor, None), "critic": (critic, None)},
                           seed, 0)
    out = tmp_path / "eval"
    for label, ckpt in ckpts.items():
        assert run(tmp_path, "eval", ckpt, "--mode", "hover", "--trials", "3", "--seed", "7",
                   "--out", str(out / label / "hover")) == 0
        assert run(tmp_path, "eval", ckpt, "--mode", "ablate", "--faulty", "2",
                   "--trials", "3", "--seed", "7", "--out", str(out / label / "ablate")) == 0
        assert run(tmp_path, "eval", ckpt, "--mode", "waypoint",
                   "--out", str(out / label / "waypoint")) in (0, 2)
    assert run(tmp_path, "eval", "--mode", "waypoint", "--controller", "pid",
               "--out", str(out / "pid")) == 0
    return {str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*.csv"))}


@pytest.mark.skipif(np.__version__ != GOLDEN_NUMPY,
                    reason=f"golden hashes were recorded under numpy {GOLDEN_NUMPY}")
def test_same_seed_golden_eval_outputs(tmp_path):
    assert golden_eval_digests(tmp_path) == GOLDEN_EVAL_SHA256


class TestTrainTilt:
    def test_developmental_writes_transfer_report(self, tmp_path):
        quad = train_quad(tmp_path)
        out = tmp_path / "tilt"
        rc = run(tmp_path, "train-tilt", "--from",
                 str(quad / "checkpoint_final.bin"), "--seed", "3",
                 "--steps", "256", "--out", str(out))
        assert rc == 0
        report = (out / "transfer_report.txt").read_text()
        assert "actor" in report and "critic" in report
        assert (out / "transfer_report.csv").exists()
        nets, _, _ = nn.load_checkpoint(out / "checkpoint_final.bin")
        actor, _ = nets["actor"]
        assert actor.layer_sizes == [22, 16, 16, 8]
        m = json.loads((out / "manifest.json").read_text())
        assert m["stage"] == "tilt_developmental"

    def test_scratch(self, tmp_path):
        out = tmp_path / "tilt"
        rc = run(tmp_path, "train-tilt", "--scratch", "--seed", "3",
                 "--steps", "256", "--out", str(out))
        assert rc == 0
        m = json.loads((out / "manifest.json").read_text())
        assert m["stage"] == "tilt_scratch"

    def test_wrong_shape_checkpoint_rejected(self, tmp_path):
        # A tilt checkpoint is not a valid transfer source.
        out = tmp_path / "tilt"
        rc = run(tmp_path, "train-tilt", "--scratch", "--seed", "3",
                 "--steps", "128", "--out", str(out))
        assert rc == 0
        rc = run(tmp_path, "train-tilt", "--from",
                 str(out / "checkpoint_final.bin"), "--seed", "3",
                 "--steps", "128", "--out", str(tmp_path / "t2"))
        assert rc == 2

    def test_from_and_scratch_mutually_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as e:
            run(tmp_path, "train-tilt", "--scratch", "--from", "x",
                "--out", str(tmp_path / "o"))
        assert e.value.code == 1


class TestEval:
    def test_hover_eval_outputs(self, tmp_path):
        quad = train_quad(tmp_path)
        out = tmp_path / "ev"
        rc = run(tmp_path, "eval", str(quad / "checkpoint_final.bin"),
                 "--mode", "hover", "--trials", "2", "--seed", "7",
                 "--out", str(out))
        assert rc == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == SUMMARY_HEADER
        assert len(summary) == 3
        trace = (out / "hover_trace_000.csv").read_text().splitlines()
        assert trace[0] == TRACE_HEADER

    def test_ablate_outputs(self, tmp_path):
        quad = train_quad(tmp_path)
        tilt = tmp_path / "tilt"
        rc = run(tmp_path, "train-tilt", "--from",
                 str(quad / "checkpoint_final.bin"), "--seed", "3",
                 "--steps", "128", "--out", str(tilt))
        assert rc == 0
        out = tmp_path / "ev"
        rc = run(tmp_path, "eval", str(tilt / "checkpoint_final.bin"),
                 "--mode", "ablate", "--trials", "3", "--faulty", "2",
                 "--seed", "7", "--out", str(out))
        assert rc == 0
        rows = (out / "summary.csv").read_text().splitlines()
        assert len(rows) == 4
        assert all(r.split(",")[2] == "2" for r in rows[1:])

    def test_ablate_rejects_quad_checkpoint(self, tmp_path):
        quad = train_quad(tmp_path)
        rc = run(tmp_path, "eval", str(quad / "checkpoint_final.bin"),
                 "--mode", "ablate", "--trials", "1",
                 "--out", str(tmp_path / "ev"))
        assert rc == 2

    def test_waypoint_pid_no_checkpoint(self, tmp_path):
        out = tmp_path / "ev"
        rc = run(tmp_path, "eval", "--mode", "waypoint", "--controller", "pid",
                 "--out", str(out))
        assert rc == 0
        trace = (out / "waypoint_trace.csv").read_text().splitlines()
        assert trace[0] == TRACE_HEADER
        assert len(trace) > 100

    def test_waypoint_quad_policy(self, tmp_path):
        # The mission flies the quadcopter actor on its own platform.
        quad = train_quad(tmp_path)
        out = tmp_path / "ev"
        rc = run(tmp_path, "eval", str(quad / "checkpoint_final.bin"),
                 "--mode", "waypoint", "--out", str(out))
        assert rc in (0, 2)
        assert (out / "waypoint_trace.csv").read_text().startswith(TRACE_HEADER)

    def test_policy_mode_requires_checkpoint(self, tmp_path):
        rc = run(tmp_path, "eval", "--mode", "hover",
                 "--out", str(tmp_path / "ev"))
        assert rc == 2

    def test_missing_checkpoint_file(self, tmp_path):
        rc = run(tmp_path, "eval", str(tmp_path / "nope.bin"),
                 "--mode", "hover", "--out", str(tmp_path / "ev"))
        assert rc == 2


class TestConfigPlumbing:
    def test_write_config_round_trips_through_train(self, tmp_path):
        path = tmp_path / "run.cfg"
        assert main(["write-config", str(path)]) == 0
        text = path.read_text()
        assert "total_steps" in text and "mass_kg" in text
        out = tmp_path / "quad"
        rc = run(tmp_path, "train-quad", "--config", str(path),
                 "--seed", "3", "--steps", "128", "--out", str(out))
        assert rc == 0

    def test_config_error_names_missing_key(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("mass_kg = 1.5\n")
        rc = run(tmp_path, "train-quad", "--config", str(path),
                 "--seed", "3", "--out", str(tmp_path / "o"))
        assert rc == 2
        assert "missing config key" in capsys.readouterr().err

    def test_usage_error_exit_code(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["train-quad"])  # --out missing
        assert e.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["train-quad", "--steps", "0"],
        ["train-tilt", "--scratch", "--steps", "-5"],
        ["eval", "x.bin", "--mode", "hover", "--trials", "0"],
    ])
    def test_counts_below_one_are_usage_errors(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as e:
            main([*argv, "--out", str(tmp_path / "o")])
        assert e.value.code == 1
        assert "must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_vector_length_error_exit_code(self, tmp_path, capsys):
        rc = run(tmp_path, "train-quad", "--seed", "3", "--out", str(tmp_path / "o"),
                 env={"TILTRL_THRUST_RANGE_N": "1"})
        assert rc == 2
        assert "thrust_range_n" in capsys.readouterr().err
