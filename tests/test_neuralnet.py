import ast
import builtins
import dataclasses
import glob
import math
import os
import signal
import sys
import time

import numpy as np
import pytest

import tiltrl.neuralnet as nn
from tiltrl import cli, ppo
from tiltrl.config import default_config, write_config
from tiltrl.env import TRACE_HEADER, Platform, TermStatus
from tiltrl.evalsuite import SUMMARY_HEADER, TrialResult, summary_rows
from tiltrl.ppo import TrainConfig
from tiltrl.neuralnet import (AdamState, Mlp, ShapeMismatchError,
                              adam_step, forward, gaussian_log_prob, gradients,
                              load_checkpoint, make_mlp, save_checkpoint,
                              write_rows, xavier_init)


def finite_difference_grads(net, x, upstream, h=1e-5):
    """Central differences on f(params) = sum(forward(net, x) * upstream)."""
    gw = [np.zeros_like(w) for w in net.weights]
    gb = [np.zeros_like(b) for b in net.biases]
    for li in range(len(net.weights)):
        for arr, grad in ((net.weights[li], gw[li]), (net.biases[li], gb[li])):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                fp = float(np.sum(forward(net, x) * upstream))
                arr[idx] = orig - h
                fm = float(np.sum(forward(net, x) * upstream))
                arr[idx] = orig
                grad[idx] = (fp - fm) / (2 * h)
    return gw, gb


class TestForward:
    def test_zero_net_outputs_zero(self):
        net = make_mlp([3, 5, 2], np.random.default_rng(0))
        for w in net.weights:
            w[:] = 0.0
        np.testing.assert_allclose(forward(net, np.ones(3)), 0.0)

    def test_1_1_1_identity_weights(self):
        net = make_mlp([1, 1, 1], np.random.default_rng(0))
        net.weights[0][:] = 1.0
        net.weights[1][:] = 1.0
        assert forward(net, np.zeros(1))[0] == 0.0
        assert forward(net, np.array([0.5]))[0] == pytest.approx(
            math.tanh(math.tanh(0.5)))

    def test_actor_outputs_bounded(self):
        rng = np.random.default_rng(1)
        net = make_mlp([18, 64, 64, 4], rng)
        for _ in range(100):
            x = rng.uniform(-100, 100, 18)
            y = forward(net, x)
            assert np.all(np.abs(y) < 1.0)

    def test_identity_output_unbounded(self):
        net = make_mlp([2, 4, 1], np.random.default_rng(0), output_tanh=False)
        net.weights[-1][:] = 100.0
        net.biases[-1][:] = 50.0
        assert forward(net, np.ones(2))[0] > 1.0

    def test_dimension_mismatch(self):
        net = make_mlp([3, 4, 2], np.random.default_rng(0))
        with pytest.raises(ShapeMismatchError):
            forward(net, np.zeros(5))

    def test_batched_matches_single(self):
        rng = np.random.default_rng(2)
        net = make_mlp([6, 8, 3], rng)
        xs = rng.standard_normal((10, 6))
        batch = forward(net, xs)
        for i in range(10):
            np.testing.assert_allclose(batch[i], forward(net, xs[i]), atol=1e-14)

    @pytest.mark.parametrize("output_tanh", [True, False])
    @pytest.mark.parametrize("sizes", [[18, 64, 64, 4], [18, 64, 64, 1],
                                       [22, 64, 64, 8], [22, 64, 64, 1]])
    def test_stacked_rows_bit_identical_to_single(self, sizes, output_tanh):
        # A (N, 1, in) stack runs N vector-matrix products, the rollout's
        # batched forward; each row must equal the single-input forward.
        rng = np.random.default_rng(sum(sizes) + output_tanh)
        net = make_mlp(sizes, rng, output_tanh=output_tanh)
        xs = rng.standard_normal((8, sizes[0]))
        stacked = forward(net, xs[:, None, :])[:, 0]
        assert stacked.shape == (8, sizes[-1])
        for i in range(8):
            assert stacked[i].tobytes() == forward(net, xs[i]).tobytes()


class TestGradients:
    def test_linear_single_layer(self):
        net = Mlp([(1, 2)], output_tanh=False)
        net.weights[0][:] = [[2.0, -1.0]]
        x = np.array([0.7, -0.3])
        gw, gb = net.views(gradients(net, x, np.ones(1)))
        np.testing.assert_allclose(gw[0], x[None, :])
        np.testing.assert_allclose(gb[0], 1.0)

    @pytest.mark.parametrize("output_tanh", [True, False])
    def test_matches_finite_differences(self, output_tanh):
        rng = np.random.default_rng(3)
        worst = 0.0
        for trial in range(20):
            sizes = [rng.integers(2, 5) for _ in range(rng.integers(2, 4) + 1)]
            net = make_mlp(list(map(int, sizes)), rng, output_tanh=output_tanh)
            x = rng.standard_normal(net.in_dim)
            up = rng.standard_normal(net.out_dim)
            gw, gb = net.views(gradients(net, x, up))
            fw, fb = finite_difference_grads(net, x, up)
            for a, b in zip(gw + gb, fw + fb):
                denom = max(np.abs(b).max(), 1e-8)
                worst = max(worst, np.abs(a - b).max() / denom)
        assert worst < 1e-5

    def test_frozen_gradients_zero(self):
        rng = np.random.default_rng(4)
        net = make_mlp([4, 6, 2], rng)
        for f in net.frozen_w + net.frozen_b:
            f[:] = True
        gw, gb = net.views(gradients(net, rng.standard_normal(4), np.ones(2)))
        for g in gw + gb:
            assert np.all(g == 0.0)

    def test_batch_gradient_is_sum(self):
        rng = np.random.default_rng(5)
        net = make_mlp([3, 5, 2], rng)
        xs = rng.standard_normal((4, 3))
        ups = rng.standard_normal((4, 2))
        gw, gb = net.views(gradients(net, xs, ups))
        sw = [np.zeros_like(w) for w in net.weights]
        sb = [np.zeros_like(b) for b in net.biases]
        for i in range(4):
            gwi, gbi = net.views(gradients(net, xs[i], ups[i]))
            for a, b in zip(sw + sb, gwi + gbi):
                a += b
        for a, b in zip(gw + gb, sw + sb):
            np.testing.assert_allclose(a, b, atol=1e-12)


class TestAdam:
    # The flat gradients below are laid out (dW[0, 0], db[0]).
    def make_scalar_net(self):
        net = Mlp([(1, 1)], output_tanh=False)
        net.weights[0][:] = 1.0
        return net

    def test_zero_gradient_no_change(self):
        net = self.make_scalar_net()
        opt = AdamState.for_net(net)
        adam_step(net, opt, np.array([0.0, 0.0]), lr=0.1)
        assert net.weights[0][0, 0] == 1.0

    def test_first_step_magnitude(self):
        # Bias correction makes the first update m_hat/sqrt(v_hat) = 1.
        net = self.make_scalar_net()
        opt = AdamState.for_net(net)
        lr = 0.01
        adam_step(net, opt, np.array([1.0, 0.0]), lr=lr)
        expected = 1.0 - lr * 1.0 / (1.0 + opt.eps)
        assert net.weights[0][0, 0] == pytest.approx(expected, abs=1e-12)

    def test_repeated_unit_gradient_oracle(self):
        # Closed-form Adam recursion on one scalar with g=1 every step.
        net = self.make_scalar_net()
        opt = AdamState.for_net(net)
        lr = 0.001
        p = 1.0
        m = v = 0.0
        for t in range(1, 11):
            m = opt.beta1 * m + (1 - opt.beta1) * 1.0
            v = opt.beta2 * v + (1 - opt.beta2) * 1.0
            mh = m / (1 - opt.beta1 ** t)
            vh = v / (1 - opt.beta2 ** t)
            p -= lr * mh / (math.sqrt(vh) + opt.eps)
            adam_step(net, opt, np.array([1.0, 0.0]), lr=lr)
            assert net.weights[0][0, 0] == pytest.approx(p, abs=1e-15)

    def test_frozen_parameter_bit_identical(self):
        net = self.make_scalar_net()
        net.frozen_w[0][:] = True
        before = net.weights[0].tobytes()
        opt = AdamState.for_net(net)
        for _ in range(5):
            adam_step(net, opt, np.array([1.0, 0.0]), lr=0.1)
        assert net.weights[0].tobytes() == before


class TestFlatEngine:
    def test_adam_matches_elementwise_oracle_bit_exactly(self):
        # Adam is elementwise: a plain-Python recursion per parameter, in the
        # same operation order, must give the same bits as the vector step.
        rng = np.random.default_rng(8)
        net = make_mlp([4, 6, 3], rng)
        net.frozen_w[0][:3] = True       # half of layer 0 frozen
        net.frozen_b[0][:3] = True
        opt = AdamState.for_net(net)
        b1, b2, eps, lr = opt.beta1, opt.beta2, opt.eps, 1e-2
        p = [float(a) for w, b in zip(net.weights, net.biases)
             for a in [*w.ravel(), *b]]
        frozen = [bool(a) for w, b in zip(net.frozen_w, net.frozen_b)
                  for a in [*w.ravel(), *b]]
        m = [0.0] * len(p)
        v = [0.0] * len(p)
        for t in range(1, 11):
            g = rng.standard_normal(len(p))
            adam_step(net, opt, g.copy(), lr)
            c1 = 1.0 - b1 ** t
            c2 = 1.0 - b2 ** t
            for j, gj in enumerate(g.tolist()):
                m[j] = m[j] * b1 + (1.0 - b1) * gj
                v[j] = v[j] * b2 + (1.0 - b2) * gj * gj
                upd = lr * (m[j] / c1) / (math.sqrt(v[j] / c2) + eps)
                p[j] = p[j] - (0.0 if frozen[j] else upd)
        assert net.params.tolist() == p
        assert opt.m.tolist() == m and opt.v.tolist() == v

    def test_layers_are_views_of_the_flat_vectors(self, tmp_path):
        net = make_mlp([4, 6, 3], np.random.default_rng(9))
        for i in range(2):
            assert np.shares_memory(net.weights[i], net.params)
            assert np.shares_memory(net.biases[i], net.params)
            assert np.shares_memory(net.frozen_w[i], net.frozen)
        assert net.params.size == 51

        save_checkpoint(tmp_path / "c.bin", {"a": (net, AdamState.for_net(net))}, 0, 0)
        (net2, opt2), = load_checkpoint(tmp_path / "c.bin")[0].values()
        assert np.shares_memory(net2.weights[1], net2.params)
        assert np.shares_memory(net2.frozen_b[0], net2.frozen)
        assert opt2.m.shape == opt2.v.shape == net2.params.shape
        assert net2.params.tobytes() == net.params.tobytes()


class TestXavierInit:
    def test_large_layer_capped(self):
        w = xavier_init(64, 64, np.random.default_rng(0))
        assert np.abs(w).max() <= 0.1
        # Xavier bound sqrt(6/128) ~ 0.2165 exceeds the cap.
        assert math.sqrt(6.0 / 128.0) > 0.1

    def test_tiny_layer_capped(self):
        w = xavier_init(1, 1, np.random.default_rng(0))
        assert abs(w[0, 0]) <= 0.1

    def test_xavier_bound_when_small(self):
        rows, cols = 300, 500
        b = math.sqrt(6.0 / (rows + cols))
        assert b < 0.1
        w = xavier_init(rows, cols, np.random.default_rng(1))
        assert np.abs(w).max() <= b

    def test_sample_mean_near_zero(self):
        w = xavier_init(400, 250, np.random.default_rng(2))
        b = 0.1
        sigma = b / math.sqrt(3.0)
        assert abs(w.mean()) < 3 * sigma / math.sqrt(w.size)


class TestGaussianLogProb:
    def test_at_mean(self):
        mean = np.zeros(8)
        assert gaussian_log_prob(mean, 1.0, mean) == pytest.approx(
            -4.0 * math.log(2 * math.pi), abs=1e-9)
        assert gaussian_log_prob(mean, 1.0, mean) == pytest.approx(-7.35151, abs=1e-5)

    def test_unit_offset(self):
        mean = np.zeros(8)
        a = mean.copy()
        a[0] = 1.0
        assert gaussian_log_prob(mean, 1.0, a) == pytest.approx(
            gaussian_log_prob(mean, 1.0, mean) - 0.5, abs=1e-12)

    def test_sigma_scaling(self):
        mean = np.zeros(1)
        assert gaussian_log_prob(mean, 2.0, mean) == pytest.approx(
            -0.5 * math.log(2 * math.pi) - math.log(2.0), abs=1e-12)

    def test_batched(self):
        rng = np.random.default_rng(0)
        means = rng.standard_normal((5, 3))
        acts = rng.standard_normal((5, 3))
        batch = gaussian_log_prob(means, 0.7, acts)
        for i in range(5):
            assert batch[i] == pytest.approx(
                gaussian_log_prob(means[i], 0.7, acts[i]), abs=1e-12)


class TestDeterminism:
    def test_same_seed_same_training(self):
        def run():
            rng = np.random.default_rng(42)
            net = make_mlp([4, 8, 2], rng)
            opt = AdamState.for_net(net)
            for _ in range(20):
                x = rng.standard_normal(4)
                up = rng.standard_normal(2)
                adam_step(net, opt, gradients(net, x, up), lr=1e-3)
            return net

        a, b = run(), run()
        for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
            assert wa.tobytes() == wb.tobytes()


class _DiskFullFile:
    """A file open for writing whose first write lands, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data)
        raise OSError("disk full")


_NET = make_mlp([3, 4, 2], np.random.default_rng(0))
_TRIAL = TrialResult(trial=0, seed=7, end=TermStatus.REACHED, steps_to_reach=1,
                     final_error_m=0.1)

def _train_one_update(d, seed):
    """A one-update training stage into d: train_log.csv, checkpoint_final.bin."""
    cfg = dataclasses.replace(default_config(), train=TrainConfig(
        total_steps=16, rollout_horizon=16, n_envs=2, seed=seed))
    rng = np.random.default_rng(seed)
    ppo.train(cli.make_envs(Platform.QUAD, cfg, seed), make_mlp([18, 8, 4], rng),
              make_mlp([18, 8, 1], rng, output_tanh=False), cfg.train, rng, str(d))


# name -> write(dir, version): each writes its artifact(s) into dir, with
# contents that depend on version.
ARTIFACT_WRITERS = {
    "checkpoint": lambda d, v: save_checkpoint(d / "ckpt.bin", {"actor": (_NET, None)},
                                               seed=1, train_step=v),
    "config": lambda d, v: write_config(dataclasses.replace(
        default_config(), train=TrainConfig(seed=v)), d / "run.cfg"),
    "manifest": lambda d, v: cli.write_manifest(str(d), {"seed": v}),
    "summary": lambda d, v: write_rows(d / "summary.csv", SUMMARY_HEADER,
                                       summary_rows([dataclasses.replace(_TRIAL, seed=v)])),
    "trace": lambda d, v: write_rows(d / "trace.csv", TRACE_HEADER, [f"{v},0.5"]),
    "train_log": _train_one_update,
    "transfer_reports": lambda d, v: cli._write_transfer_report(
        str(d), {"actor": [("W0", "fresh", v)], "critic": [("W0", "fresh", v)]}),
}


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        actor = make_mlp([18, 64, 64, 4], rng)
        actor.frozen_w[1][:] = True
        critic = make_mlp([18, 64, 64, 1], rng, output_tanh=False)
        a_opt = AdamState.for_net(actor)
        c_opt = AdamState.for_net(critic)
        for _ in range(3):
            x = rng.standard_normal(18)
            adam_step(actor, a_opt, gradients(actor, x, rng.standard_normal(4)), 1e-3)
            adam_step(critic, c_opt, gradients(critic, x, rng.standard_normal(1)), 1e-3)

        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, {"actor": (actor, a_opt), "critic": (critic, c_opt)},
                        seed=123, train_step=456)
        nets, seed, train_step = load_checkpoint(path)
        assert seed == 123 and train_step == 456
        actor2, a_opt2 = nets["actor"]
        assert actor2.output_tanh and not nets["critic"][0].output_tanh
        for a, b in zip(actor.weights + actor.biases, actor2.weights + actor2.biases):
            assert a.tobytes() == b.tobytes()
        for a, b in zip(actor.frozen_w + actor.frozen_b,
                        actor2.frozen_w + actor2.frozen_b):
            assert np.array_equal(a, b)
        assert a_opt2.step_count == a_opt.step_count
        assert a_opt2.m.tobytes() == a_opt.m.tobytes()
        assert a_opt2.v.tobytes() == a_opt.v.tobytes()
        # Re-save must produce identical bytes.
        path2 = tmp_path / "ckpt2.bin"
        save_checkpoint(path2, {"actor": (actor2, a_opt2),
                                "critic": nets["critic"]}, seed, train_step)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("writer", sorted(ARTIFACT_WRITERS))
    def test_interrupted_write_keeps_old_file(self, tmp_path, monkeypatch, writer):
        # The disk fills during the rewrite: every file keeps its old bytes
        # and no temporary file is left behind.
        write = ARTIFACT_WRITERS[writer]
        write(tmp_path, 1)
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        real_open = open

        def open_failing(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return _DiskFullFile(fh) if "w" in mode else fh

        monkeypatch.setattr(builtins, "open", open_failing)
        with pytest.raises(OSError, match="disk full"):
            write(tmp_path, 2)
        monkeypatch.undo()
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before

    def test_only_atomic_open_writes_files(self):
        # So every artifact above is covered: an open() whose mode may write,
        # anywhere in the package but inside atomic_open, fails this test.
        writers = []

        class Opens(ast.NodeVisitor):
            def __init__(self, filename):
                self.scope = [filename]

            def visit_FunctionDef(self, node):
                self.scope.append(node.name)
                self.generic_visit(node)
                self.scope.pop()

            def visit_Call(self, node):
                if isinstance(node.func, ast.Name) and node.func.id == "open":
                    mode = node.args[1] if len(node.args) > 1 else next(
                        (k.value for k in node.keywords if k.arg == "mode"), None)
                    if mode is not None and not (isinstance(mode, ast.Constant)
                                                 and not set(mode.value) & set("wax+")):
                        writers.append(":".join(self.scope))
                self.generic_visit(node)

        for path in sorted(glob.glob(os.path.join(os.path.dirname(nn.__file__), "*.py"))):
            with open(path) as fh:
                Opens(os.path.basename(path)).visit(ast.parse(fh.read()))
        assert writers == ["neuralnet.py:atomic_open"]

    def test_package_imports_only_the_standard_library_and_numpy(self):
        # The north star is a numpy-only stack, and pyproject.toml declares
        # numpy as the one dependency.
        imported = set()
        for path in sorted(glob.glob(os.path.join(os.path.dirname(nn.__file__), "*.py"))):
            with open(path) as fh:
                for node in ast.walk(ast.parse(fh.read())):
                    if isinstance(node, ast.Import):
                        imported.update(alias.name.split(".")[0] for alias in node.names)
                    elif isinstance(node, ast.ImportFrom) and node.level == 0:
                        imported.add(node.module.split(".")[0])
        assert imported - set(sys.stdlib_module_names) <= {"numpy"}

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)


class TestForkMap:
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_results_in_index_order_bit_for_bit(self, n):
        # Index 0 runs in this process and, from n = 2, index 1 in the child.
        # Each result is 6 MiB, more than any pipe buffer holds.
        parent = os.getpid()
        size = 3 << 18
        results = nn.fork_map(lambda i: (i, os.getpid(), np.arange(size) / (i + 3)), n)
        assert [i for i, _, _ in results] == list(range(n))
        assert [r.tobytes() for _, _, r in results] == [(np.arange(size) / (i + 3)).tobytes()
                                                         for i in range(n)]
        assert [pid == parent for _, pid, _ in results[:2]] == [True, False][:n]

    def test_child_exception_reaches_the_caller(self):
        def fn(i):
            if i == 1:
                raise IsADirectoryError(21, "Is a directory", "trace.csv")
            return i

        with pytest.raises(IsADirectoryError, match=r"^\[Errno 21\] Is a directory: 'trace.csv'$"):
            nn.fork_map(fn, 3)

    def test_child_oserror_keeps_the_eval_exit_code(self, tmp_path, capsys, monkeypatch):
        # Trial 1 runs in the child, whose trace write fails.
        ckpt = tmp_path / "actor.bin"
        save_checkpoint(ckpt, {"actor": (make_mlp([22, 8, 8], np.random.default_rng(0)), None)},
                        seed=0, train_step=0)
        real_atomic_open = nn.atomic_open

        def atomic_open(path, *args):
            if os.path.basename(path) == "hover_trace_001.csv":
                raise IsADirectoryError(21, "Is a directory", path)
            return real_atomic_open(path, *args)

        monkeypatch.setattr(nn, "atomic_open", atomic_open)
        assert cli.main(["eval", str(ckpt), "--mode", "hover", "--trials", "2",
                         "--out", str(tmp_path / "out")]) == 2
        assert "io error: [Errno 21]" in capsys.readouterr().err

    def test_killed_child_is_an_error_naming_its_status(self):
        with pytest.raises(RuntimeError, match=f"status {-signal.SIGKILL}$"):
            nn.fork_map(lambda i: os.kill(os.getpid(), signal.SIGKILL) if i == 1 else i, 2)

    @pytest.mark.parametrize("error", [KeyboardInterrupt, ValueError])
    def test_exception_here_kills_and_reaps_the_child(self, error):
        # The autouse fixture in conftest.py checks that no child is left.
        def fn(i):
            if i == 0:
                raise error("parent side")
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises(error, match="parent side"):
            nn.fork_map(fn, 2)
        assert time.monotonic() - start < 30
