import numpy as np
import pytest

import tiltrl.neuralnet as nn
from tiltrl import cli, ppo, transfer
from tiltrl.dynamics import SimParams
from tiltrl.env import EpisodeConfig, HoverEnv, Platform, RewardWeights
from tiltrl.neuralnet import ShapeMismatchError


def quad_nets(hidden=(64, 64), seed=0):
    rng = np.random.default_rng(seed)
    actor = nn.make_mlp([18, *hidden, 4], rng, output_tanh=True)
    critic = nn.make_mlp([18, *hidden, 1], rng, output_tanh=False)
    return actor, critic


def category_counts(rows) -> dict[str, int]:
    counts = dict.fromkeys(transfer.CATEGORIES, 0)
    for _, category, n in rows:
        counts[category] += n
    return counts


def assert_report_invariant(net, rows):
    """A transfer report's rows count every parameter of the net once, its
    transferred_frozen count is the net's frozen count, and each fresh row
    of a bias block covers zero entries of that bias."""
    assert sum(n for _, _, n in rows) == net.params.size
    assert category_counts(rows)["transferred_frozen"] == net.frozen.sum()
    for block, category, n in rows:
        if category == "fresh" and block.startswith("b"):
            assert np.count_nonzero(net.biases[int(block[1:])] == 0.0) >= n, block


class TestBuildTiltActor:
    def test_shapes(self):
        actor, _ = quad_nets()
        net, _ = transfer.build_tilt_actor(actor, np.random.default_rng(1))
        assert net.layer_sizes == [22, 64, 64, 8]
        assert net.output_tanh

    def test_frozen_count_64_64(self):
        # 64*18 shared input cols + 64 + 64*64 + 64 = 5376 frozen params.
        actor, _ = quad_nets()
        net, copied = transfer.build_tilt_actor(actor, np.random.default_rng(1))
        frozen = sum(f.sum() for f in net.frozen_w) + sum(
            f.sum() for f in net.frozen_b)
        assert frozen == 5376
        assert category_counts(transfer.provenance(net, copied))["transferred_frozen"] == 5376

    def test_report_partitions_all_params(self):
        actor, _ = quad_nets(hidden=(32, 16))
        net, copied = transfer.build_tilt_actor(actor, np.random.default_rng(1))
        counts = category_counts(transfer.provenance(net, copied))
        assert sum(counts.values()) == net.params.size
        assert counts["transferred_trainable"] == 0

    def test_copied_blocks_identical(self):
        actor, _ = quad_nets()
        net, _ = transfer.build_tilt_actor(actor, np.random.default_rng(1))
        assert net.weights[0][:, :18].tobytes() == actor.weights[0].tobytes()
        assert net.biases[0].tobytes() == actor.biases[0].tobytes()
        assert net.weights[1].tobytes() == actor.weights[1].tobytes()
        assert net.biases[1].tobytes() == actor.biases[1].tobytes()

    def test_fresh_blocks_within_xavier_cap(self):
        actor, _ = quad_nets()
        net, _ = transfer.build_tilt_actor(actor, np.random.default_rng(1))
        assert np.abs(net.weights[0][:, 18:]).max() <= 0.1
        assert np.abs(net.weights[2]).max() <= 0.1
        np.testing.assert_allclose(net.biases[2], 0.0)

    def test_block_identity_property(self):
        # With the fresh tilt columns zeroed and tilt errors arbitrary, the
        # hidden activations must equal the quad network's on the shared
        # 18-dim slice.
        actor, _ = quad_nets()
        net, _ = transfer.build_tilt_actor(actor, np.random.default_rng(1))
        net.weights[0][:, 18:] = 0.0
        # Shape-matched reference: the quad net with its input layer padded
        # by explicit zero columns, so both sides run the identical matmul.
        padded = nn.make_mlp([22, 64, 64, 4], np.random.default_rng(9),
                             output_tanh=True)
        padded.weights[0][:, :18] = actor.weights[0]
        padded.weights[0][:, 18:] = 0.0
        padded.biases[0][:] = actor.biases[0]
        padded.weights[1][:] = actor.weights[1]
        padded.biases[1][:] = actor.biases[1]
        rng = np.random.default_rng(2)
        for _ in range(20):
            obs22 = rng.standard_normal((1, 22))
            a_quad = nn.activations(padded, obs22)
            a_tilt = nn.activations(net, obs22)
            np.testing.assert_array_equal(a_quad[1], a_tilt[1])
            np.testing.assert_array_equal(a_quad[2], a_tilt[2])

    @pytest.mark.parametrize("sizes", [[18, 64, 4], [22, 64, 64, 8],
                                       [18, 64, 64, 8], [17, 64, 64, 4]])
    def test_rejects_wrong_shape(self, sizes):
        net = nn.make_mlp(sizes, np.random.default_rng(0), output_tanh=True)
        with pytest.raises(ShapeMismatchError):
            transfer.build_tilt_actor(net, np.random.default_rng(1))


class TestBuildTiltCritic:
    def test_shapes_and_nothing_frozen(self):
        _, critic = quad_nets()
        net, _ = transfer.build_tilt_critic(critic, np.random.default_rng(1))
        assert net.layer_sizes == [22, 64, 64, 1]
        assert not net.output_tanh
        assert sum(f.sum() for f in net.frozen_w + net.frozen_b) == 0

    def test_hidden_and_output_copied_input_fresh(self):
        _, critic = quad_nets()
        net, copied = transfer.build_tilt_critic(critic, np.random.default_rng(1))
        assert net.weights[1].tobytes() == critic.weights[1].tobytes()
        assert net.weights[2].tobytes() == critic.weights[2].tobytes()
        assert net.weights[0].shape == (64, 22)
        np.testing.assert_allclose(net.biases[0], 0.0)
        assert category_counts(transfer.provenance(net, copied))["fresh"] == 64 * 22 + 64

    def test_rejects_wrong_shape(self):
        net = nn.make_mlp([18, 64, 64, 4], np.random.default_rng(0))
        with pytest.raises(ShapeMismatchError):
            transfer.build_tilt_critic(net, np.random.default_rng(1))


@pytest.mark.parametrize("hidden", [(64, 64), (32, 16)])
@pytest.mark.parametrize("build", [transfer.build_tilt_actor, transfer.build_tilt_critic])
def test_report_invariant(hidden, build):
    actor, critic = quad_nets(hidden)
    quad = actor if build is transfer.build_tilt_actor else critic
    net, copied = build(quad, np.random.default_rng(1))
    assert_report_invariant(net, transfer.provenance(net, copied))


class TestReportFormats:
    def test_csv(self, tmp_path):
        # 32-16 hidden layers: W0 is 32 x 22, W1 16 x 32, W2 8 x 16 or 1 x 16.
        actor, critic = quad_nets(hidden=(32, 16))
        rng = np.random.default_rng(1)
        reports = {name: transfer.provenance(*build(quad, rng)) for name, build, quad in (
            ("actor", transfer.build_tilt_actor, actor),
            ("critic", transfer.build_tilt_critic, critic))}
        cli._write_transfer_report(str(tmp_path), reports)
        assert (tmp_path / "transfer_report.csv").read_text() == (
            "net,block,category,count\n"
            "actor,W0,transferred_frozen,576\n"
            "actor,W0,fresh,128\n"
            "actor,b0,transferred_frozen,32\n"
            "actor,W1,transferred_frozen,512\n"
            "actor,b1,transferred_frozen,16\n"
            "actor,W2,fresh,128\n"
            "actor,b2,fresh,8\n"
            "critic,W0,fresh,704\n"
            "critic,b0,fresh,32\n"
            "critic,W1,transferred_trainable,512\n"
            "critic,b1,transferred_trainable,16\n"
            "critic,W2,transferred_trainable,16\n"
            "critic,b2,transferred_trainable,1\n")


class TestFrozenThroughTraining:
    def test_frozen_params_bit_identical_after_training(self, tmp_path):
        actor, _ = quad_nets(hidden=(16, 16), seed=4)
        net, _ = transfer.build_tilt_actor(actor, np.random.default_rng(5))
        critic = nn.make_mlp([22, 16, 16, 1], np.random.default_rng(6),
                             output_tanh=False)
        before = {
            "w0": net.weights[0][:, :18].copy(),
            "b0": net.biases[0].copy(),
            "w1": net.weights[1].copy(),
            "b1": net.biases[1].copy(),
        }
        envs = [HoverEnv(Platform.TILT_ROTOR, SimParams(), EpisodeConfig(),
                         RewardWeights(), np.random.default_rng(s))
                for s in np.random.SeedSequence(7).spawn(2)]
        cfg = ppo.TrainConfig(total_steps=128, rollout_horizon=32, n_envs=2,
                              lr0=1e-3)
        ppo.train(envs, net, critic, cfg, np.random.default_rng(8), tmp_path)
        assert net.weights[0][:, :18].tobytes() == before["w0"].tobytes()
        assert net.biases[0].tobytes() == before["b0"].tobytes()
        assert net.weights[1].tobytes() == before["w1"].tobytes()
        assert net.biases[1].tobytes() == before["b1"].tobytes()
        # And trainable blocks did move.
        assert not np.array_equal(net.weights[2],
                                  np.zeros_like(net.weights[2]))
