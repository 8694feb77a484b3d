import filecmp
import hashlib
import json
import os
import platform
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

import tiltrl.neuralnet as nn
from tiltrl import cli
from tiltrl.cli import main
from tiltrl.env import TRACE_HEADER
from tiltrl.evalsuite import SUMMARY_HEADER
from test_transfer import assert_report_invariant


# Config overrides that keep runs tiny.
TINY = {
    "TILTRL_N_ENVS": "2",
    "TILTRL_ROLLOUT_HORIZON": "64",
    "TILTRL_HIDDEN_SIZES": "16, 16",
    "TILTRL_CHECKPOINT_EVERY": "1000000",
}


def run(tmp_path, *argv, env=None):
    """Invoke the CLI in-process with the TINY config overrides."""
    overrides = {**TINY, **(env or {})}
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
        assert m["config"]["seed"] == 11
        assert m["config"]["total_steps"] == 256
        assert m["config"]["n_envs"] == 2
        assert m["python_version"] == platform.python_version()
        assert m["numpy_version"] == np.__version__
        assert m["source_sha256"] == cli.source_sha256()
        assert m["from_checkpoint_sha256"] is None
        assert m["completed"] is True
        # The seed lives in the config block only; no block restates file names.
        assert "seed" not in m and "artifacts" not in m

    def test_failed_training_leaves_manifest_not_completed(self, tmp_path, monkeypatch):
        class Interrupted(Exception):
            pass

        def fail(*args, **kwargs):
            raise Interrupted

        monkeypatch.setattr(cli.ppo, "train", fail)
        with pytest.raises(Interrupted):
            train_quad(tmp_path)
        m = json.loads((tmp_path / "quad" / "manifest.json").read_text())
        assert m["stage"] == "quad" and "completed" not in m

    def test_diverged_training_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        def diverge(*args, **kwargs):
            raise cli.ppo.NonFiniteLossError("non-finite loss: policy=nan value=0.5")

        monkeypatch.setattr(cli.ppo, "ppo_update", diverge)
        out = tmp_path / "quad"
        assert run(tmp_path, "train-quad", "--steps", "64", "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: non-finite loss: policy=nan value=0.5\n"
        m = json.loads((out / "manifest.json").read_text())
        assert m["stage"] == "quad" and "completed" not in m

    def test_same_seed_identical_checkpoints(self, tmp_path):
        a = train_quad(tmp_path, "a", seed="5")
        b = train_quad(tmp_path, "b", seed="5")
        assert filecmp.cmp(a / "checkpoint_final.bin",
                           b / "checkpoint_final.bin", shallow=False)
        # The manifest records no output path.
        assert filecmp.cmp(a / "manifest.json", b / "manifest.json", shallow=False)

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
# GOLDEN_NUMPY before the evaluation step was rewritten in scalar code. Every
# policy trial here leaves the physical-validity envelope, so its files were
# re-recorded when the envelope came in: each trace is a byte prefix of the
# one before, and the PID mission's trace kept its hash. A change that alters
# a trial, a trace value or its formatting shows up here.
GOLDEN_EVAL_SHA256 = {
    "developmental/ablate/summary.csv":
        "ddc55245f956db69c8f8a683608a476c7298686f3232e7d1672bae07d91449b3",
    "developmental/hover/hover_trace_000.csv":
        "26226d6084e26ab50b4d05f4617658ee62c4153d6bd6a28e3395156340c3b773",
    "developmental/hover/hover_trace_001.csv":
        "36dfe335de79066abc13e7e48b64ff352a2b9188d8a7277a3458dc00f71350c0",
    "developmental/hover/hover_trace_002.csv":
        "e69e0c6d5cd5a07e09e591bc858c323ead12799a0cfa642c64402344b5dfb7ec",
    "developmental/hover/summary.csv":
        "e3db367261a9c2234614506e19f35f0ea30a1cf314010a03fbf4b37bfca47f9f",
    "developmental/waypoint/waypoint_trace.csv":
        "400778e5519c8229cd94deb59a67492f73ce34a34f78e2ff46c5cb394279b11b",
    "pid/waypoint_trace.csv":
        "34ae07a807aa0af627249af7b1dd4e0a0a76a8243421f62ba5e4103dac88d925",
    "scratch/ablate/summary.csv":
        "f442a7243d9ac9946fb4c1a84780223893e03264c71dd2cb242dd901ab4c6330",
    "scratch/hover/hover_trace_000.csv":
        "13c9f9e3dff7354f98460d93897a505c83aeeaec06d290e51b98fc7046806c06",
    "scratch/hover/hover_trace_001.csv":
        "c41685f2059575ba5743490dced2c0e7da7fff9df6830c70e8f5e4ea87c17f9d",
    "scratch/hover/hover_trace_002.csv":
        "fc5f8b171aa35673fed7c18a05745688e9b0b2185a07584c0942d9c830ac7515",
    "scratch/hover/summary.csv":
        "96c4eaf57c737b62a6ca7c52e583a91e118dab78e891f54063ed4f397bbe428f",
    "scratch/waypoint/waypoint_trace.csv":
        "81098374e86c8f16b3816e3e189b80cf0790d2fae6098b7611eb3b3ea54a2e50",
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
        # At learning rate 0 the final checkpoint holds the networks as built.
        rc = run(tmp_path, "train-tilt", "--from",
                 str(quad / "checkpoint_final.bin"), "--seed", "3",
                 "--steps", "256", "--out", str(out), env={"TILTRL_LR0": "0"})
        assert rc == 0
        header, *lines = (out / "transfer_report.csv").read_text().splitlines()
        assert header == "net,block,category,count"
        assert not (out / "transfer_report.txt").exists()
        nets, _, _ = nn.load_checkpoint(out / "checkpoint_final.bin")
        rows = [line.split(",") for line in lines]
        assert {name for name, *_ in rows} == {"actor", "critic"}
        for name in ("actor", "critic"):
            assert_report_invariant(nets[name][0], [
                (block, category, int(n)) for net, block, category, n in rows if net == name])
        actor, _ = nets["actor"]
        assert actor.layer_sizes == [22, 16, 16, 8]
        m = json.loads((out / "manifest.json").read_text())
        assert m["stage"] == "tilt_developmental"
        assert m["from_checkpoint_sha256"] == hashlib.sha256(
            (quad / "checkpoint_final.bin").read_bytes()).hexdigest()

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

    def test_hidden_sizes_must_match_from(self, tmp_path, capsys):
        quad = train_quad(tmp_path)   # 16, 16 hidden widths
        out = tmp_path / "tilt"
        assert run(tmp_path, "train-tilt", "--from", str(quad / "checkpoint_final.bin"),
                   "--steps", "64", "--out", str(out),
                   env={"TILTRL_HIDDEN_SIZES": "32, 32"}) == 2
        assert capsys.readouterr().err == (
            "error: hidden_sizes [32, 32] differs from the --from networks'"
            " hidden widths [[16, 16], [16, 16]]\n")
        assert not out.exists()

    def test_from_and_scratch_mutually_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as e:
            run(tmp_path, "train-tilt", "--scratch", "--from", "x",
                "--out", str(tmp_path / "o"))
        assert e.value.code == 1


def test_child_manifests_match_prediction_and_track_sources(tmp_path, monkeypatch):
    # Child runs from a copy of the package write the manifests that
    # stage_manifest predicts in process under the same environment, a
    # TILTRL_* variable that is no config key included; one changed source
    # byte changes only source_sha256.
    pkg = tmp_path / "pkg"
    shutil.copytree(os.path.dirname(cli.__file__), pkg / "tiltrl",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for var, value in {**TINY, "TILTRL_SIGMA": "0.5", "TILTRL_FOO": "x"}.items():
        monkeypatch.setenv(var, value)
    env = {**os.environ, "PYTHONPATH": str(pkg)}

    def child(name, *argv):
        argv = [*argv, "--seed", "3", "--steps", "64", "--out", str(tmp_path / name)]
        subprocess.run([sys.executable, "-m", "tiltrl.cli", *argv], env=env,
                       cwd=tmp_path, check=True, stdout=subprocess.DEVNULL)
        stored = json.loads((tmp_path / name / "manifest.json").read_text())
        return stored, {**cli.stage_manifest(cli.build_parser().parse_args(argv)),
                        "completed": True}

    quad, predicted = child("quad", "train-quad")
    assert quad == predicted and quad["config"]["sigma"] == 0.5
    dev, predicted = child("dev", "train-tilt", "--from",
                           str(tmp_path / "quad" / "checkpoint_final.bin"))
    assert dev == predicted and dev["from_checkpoint_sha256"] is not None

    source = pkg / "tiltrl" / "ppo.py"
    source.write_bytes(source.read_bytes()[:-1] + b" ")
    edited, _ = child("edited", "train-quad")
    assert edited["source_sha256"] != quad["source_sha256"]
    assert {**edited, "source_sha256": None} == {**quad, "source_sha256": None}


def _quad_checkpoint(path) -> bytes:
    """A small quad checkpoint with Adam state for both nets; returns its bytes."""
    rng = np.random.default_rng(0)
    nets = {name: (net, nn.AdamState.for_net(net)) for name, net in (
        ("actor", nn.make_mlp([18, 16, 16, 4], rng)),
        ("critic", nn.make_mlp([18, 16, 16, 1], rng, output_tanh=False)))}
    nn.save_checkpoint(path, nets, 3, 0)
    return path.read_bytes()


# Malformed checkpoint bytes from a valid file's bytes. The file starts with
# a 25-byte header and the actor's record: its name at 25-30, its output_tanh
# flag at byte 31, its layer count at byte 32 and its (rows, cols) shapes
# (16, 18), (16, 16), (4, 16) from byte 33. It ends with the critic's Adam
# moments.
CORRUPTIONS = {
    "bad_magic": lambda d: b"NOPE" + d[4:],
    "bad_version": lambda d: d[:4] + struct.pack("<I", 99) + d[8:],
    "cut_in_header": lambda d: d[:12],
    "cut_in_layer": lambda d: d[:100],
    "cut_in_half": lambda d: d[:len(d) // 2],
    "cut_in_adam": lambda d: d[:-100],
    "no_layers": lambda d: d[:32] + b"\0" + d[33:],
    # Layer 1 takes 32 inputs from layer 0's 16 outputs.
    "unchained_layers": lambda d: d[:45] + struct.pack("<I", 32) + d[49:],
    # A 16 x 2**31 first layer still chains, but needs 288 GiB the file lacks.
    "shape_past_end": lambda d: d[:37] + struct.pack("<I", 2 ** 31) + d[41:],
    "non_ascii_name": lambda d: d[:26] + b"\xff" + d[27:],
    "trailing_bytes": lambda d: d + b"\0",
    "flag_not_0_or_1": lambda d: d[:31] + b"\x02" + d[32:],
    "two_actors": lambda d: d.replace(b"\x06critic", b"\x05actor"),
}


@pytest.mark.parametrize("command", ["eval", "train-tilt"])
@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_malformed_checkpoint_is_runtime_error(tmp_path, capsys, command, corruption):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(CORRUPTIONS[corruption](_quad_checkpoint(tmp_path / "good.bin")))
    with pytest.raises(nn.CheckpointError):
        nn.load_checkpoint(bad)
    argv = (["eval", str(bad), "--mode", "hover", "--trials", "1"] if command == "eval"
            else ["train-tilt", "--from", str(bad), "--steps", "64"])
    assert run(tmp_path, *argv, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "checkpoint" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("var, raw", [("TILTRL_CHECKPOINT_EVERY", "0"),
                                      ("TILTRL_SIGMA", "0"), ("TILTRL_DT_S", "nan"),
                                      ("TILTRL_HIDDEN_SIZES", "-1, 64"),
                                      ("TILTRL_HIDDEN_SIZES", "0, 64"),
                                      ("TILTRL_GAE_LAMBDA", "-3"), ("TILTRL_LR0", "-1"),
                                      ("TILTRL_TILT_RATE_RANGE_RADPS", "3, -3"),
                                      ("TILTRL_TILT_RATE_RANGE_RADPS", "0, 6"),
                                      ("TILTRL_MOMENT_RATIO_M", "0"),
                                      ("TILTRL_INIT_SPEED_MAX_MPS", "-1"),
                                      ("TILTRL_INIT_RATE_MAX_RADPS", "-1"),
                                      ("TILTRL_EULER_INIT_RANGE_RAD", "-0.5"),
                                      ("TILTRL_INERTIA_DIAG", "0.0082,, 0.0082, 0.0164"),
                                      ("TILTRL_MASS_KG", "10"),
                                      ("TILTRL_THRUST_RANGE_N", "0, 3"),
                                      ("TILTRL_SO3_WARMUP_EPISODES", "-5")])
def test_unusable_config_value_is_runtime_error(tmp_path, capsys, var, raw):
    assert run(tmp_path, "train-quad", "--steps", "64", "--out", str(tmp_path / "o"),
               env={var: raw}) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and var[len("TILTRL_"):].lower() in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["train-quad", "--steps", "64"],
                                  ["train-tilt", "--scratch", "--steps", "64"],
                                  ["eval", "c.bin", "--mode", "hover", "--trials", "1"]],
                         ids=["train-quad", "train-tilt", "eval"])
def test_non_empty_out_refused(tmp_path, capsys, monkeypatch, argv):
    # A reused --out would mix two runs' files under one manifest.
    _quad_checkpoint(tmp_path / "c.bin")
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "o"
    out.mkdir()
    (out / "checkpoint_00001.bin").write_bytes(b"an earlier run")
    assert run(tmp_path, *argv, "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: --out {out} exists and is not an empty directory\n")
    assert [(f.name, f.read_bytes()) for f in out.iterdir()] == [
        ("checkpoint_00001.bin", b"an earlier run")]
    (out / "checkpoint_00001.bin").unlink()
    assert run(tmp_path, *argv, "--out", str(out)) == 0   # an empty directory is new


@pytest.mark.parametrize("mode", ["hover", "waypoint"])
@pytest.mark.parametrize("sizes", [[22, 16, 16, 4], [18, 16, 16, 8]])
def test_eval_rejects_actor_of_no_platform(tmp_path, capsys, sizes, mode):
    rng = np.random.default_rng(0)
    nn.save_checkpoint(tmp_path / "c.bin", {
        "actor": (nn.make_mlp(sizes, rng), None),
        "critic": (nn.make_mlp([*sizes[:-1], 1], rng, output_tanh=False), None)}, 3, 0)
    assert run(tmp_path, "eval", str(tmp_path / "c.bin"), "--mode", mode,
               "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == f"error: actor layers {sizes} fit no platform\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("nets, argv, message", [
    ({"actor": [18, 16, 16, 4]}, ["train-tilt", "--steps", "64", "--from"],
     "the checkpoint has no 'critic' network"),
    ({"actor": [22, 16, 16, 8], "critic": [22, 16, 16, 1]},
     ["train-tilt", "--steps", "64", "--from"],
     "quad actor must be 18-h1-h2-4, got [22, 16, 16, 8]"),
    ({"critic": [18, 16, 16, 1]}, ["eval", "--mode", "hover"],
     "the checkpoint has no 'actor' network"),
    ({"actor": [18, 16, 16, 4], "critic": [18, 16, 16, 1]}, ["eval", "--mode", "ablate"],
     "fault ablation requires a tilt-rotor actor"),
], ids=["from_no_critic", "from_tilt_rotor", "eval_no_actor", "ablate_quad_actor"])
def test_unusable_checkpoint_fails_before_out(tmp_path, capsys, nets, argv, message):
    rng = np.random.default_rng(0)
    nn.save_checkpoint(tmp_path / "c.bin", {
        name: (nn.make_mlp(sizes, rng, output_tanh=name == "actor"), None)
        for name, sizes in nets.items()}, 3, 0)
    assert run(tmp_path, *argv, str(tmp_path / "c.bin"), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


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

    @pytest.mark.parametrize("mode", ["hover", "ablate"])
    @pytest.mark.parametrize("checkpoint", [[], ["x.bin"]])
    def test_pid_controller_needs_waypoint_mode(self, tmp_path, capsys, mode, checkpoint):
        with pytest.raises(SystemExit) as e:
            main(["eval", *checkpoint, "--mode", mode, "--controller", "pid",
                  "--out", str(tmp_path / "ev")])
        assert e.value.code == 1
        usage, err = capsys.readouterr().err.split("error: ")
        assert usage.startswith("usage: tiltrl eval ") and "--controller" in usage
        assert "--controller pid" in err and "--mode waypoint" in err
        assert not (tmp_path / "ev").exists()

    def test_pid_controller_takes_no_checkpoint(self, tmp_path, capsys):
        # The PID mission flies no actor, so a checkpoint beside it, whether
        # it exists or not, is a usage error rather than ignored.
        _quad_checkpoint(tmp_path / "c.bin")
        for checkpoint in (tmp_path / "c.bin", tmp_path / "nope.bin"):
            with pytest.raises(SystemExit) as e:
                main(["eval", str(checkpoint), "--mode", "waypoint", "--controller", "pid",
                      "--out", str(tmp_path / "ev")])
            assert e.value.code == 1
            usage, err = capsys.readouterr().err.split("error: ")
            assert usage.startswith("usage: tiltrl eval ") and "--mode" in usage
            assert "--controller pid" in err and str(checkpoint) in err
            assert not (tmp_path / "ev").exists()

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

    def test_config_file_not_utf8_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        assert main(["write-config", str(path)]) == 0
        path.write_bytes(path.read_bytes() + b"# caf\xe9 in Latin-1\n")
        rc = run(tmp_path, "train-quad", "--config", str(path), "--steps", "64",
                 "--out", str(tmp_path / "o"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"config file {path}" in err
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("argv", [
        ["train-quad", "--seed", "-1", "--steps", "64"],
        ["train-quad", "--seed", str(2 ** 64), "--steps", "64"],
        ["eval", "x.bin", "--mode", "hover", "--seed", "-3"],
    ])
    def test_seed_outside_uint64_is_usage_error(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as e:
            run(tmp_path, *argv, "--out", str(tmp_path / "o"))
        assert e.value.code == 1
        assert "must be in [0, 2**64)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["train-quad", "--steps", "64"], ["eval", "x.bin", "--mode", "hover"]])
    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_outside_uint64_is_config_error(self, tmp_path, capsys, argv, seed):
        # From the environment and from a config file alike.
        path = tmp_path / "run.cfg"
        assert main(["write-config", str(path)]) == 0
        path.write_text(path.read_text().replace("\nseed = 0\n", f"\nseed = {seed}\n"))
        for config, env in (([], {"TILTRL_SEED": seed}), (["--config", str(path)], None)):
            assert run(tmp_path, *argv, *config, "--out", str(tmp_path / "o"), env=env) == 2
            assert "seed must be in [0, 2**64)" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def test_vector_length_error_exit_code(self, tmp_path, capsys):
        rc = run(tmp_path, "train-quad", "--seed", "3", "--out", str(tmp_path / "o"),
                 env={"TILTRL_THRUST_RANGE_N": "1"})
        assert rc == 2
        assert "thrust_range_n" in capsys.readouterr().err
