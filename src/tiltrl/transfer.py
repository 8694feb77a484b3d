"""Staged policy transfer from a trained quadcopter to the tilt-rotor.

The tilt-rotor actor reuses the quadcopter's two hidden layers frozen; only
the four new tilt-error input columns and the 8-output layer are fresh and
trainable. The critic reuses its hidden and output layers but re-initializes
the input layer, and nothing in it is frozen.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import neuralnet as nn
from .env import Platform
from .neuralnet import Mlp, ShapeMismatchError

QUAD_OBS = Platform.QUAD.obs_dim
TILT_OBS = Platform.TILT_ROTOR.obs_dim
QUAD_ACT = Platform.QUAD.act_dim
TILT_ACT = Platform.TILT_ROTOR.act_dim


@dataclass
class TransferReport:
    """Per-layer provenance of every parameter in a constructed network."""

    entries: list[tuple[str, str, int]] = field(default_factory=list)
    # categories: "transferred_frozen", "transferred_trainable", "fresh_xavier"

    def add(self, layer: str, category: str, count: int) -> None:
        self.entries.append((layer, category, int(count)))

    def count(self, category: str) -> int:
        return sum(n for _, c, n in self.entries if c == category)

    def total(self) -> int:
        return sum(n for _, _, n in self.entries)

    def to_text(self) -> str:
        lines = ["layer                    category               params"]
        for layer, cat, n in self.entries:
            lines.append(f"{layer:<24} {cat:<22} {n}")
        lines.append(f"{'total':<24} {'':<22} {self.total()}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        out = ["layer,category,count"]
        out += [f"{layer},{cat},{n}" for layer, cat, n in self.entries]
        return "\n".join(out)


def build_tilt_actor(quad_actor: Mlp, rng: np.random.Generator) -> tuple[Mlp, TransferReport]:
    """Construct the 22-in/8-out tilt actor from an 18-in/4-out quad actor.

    Hidden-layer weights and biases are copied and frozen; the 4 new input
    columns for the tilt errors and the whole output layer are Xavier-fresh
    and trainable.
    """
    sizes = quad_actor.layer_sizes
    if len(sizes) != 4 or sizes[0] != QUAD_OBS or sizes[-1] != QUAD_ACT:
        raise ShapeMismatchError(
            f"quad actor must be {QUAD_OBS}-h1-h2-{QUAD_ACT}, got {sizes}")
    h1, h2 = sizes[1], sizes[2]
    report = TransferReport()
    net = Mlp([(h1, TILT_OBS), (h2, h1), (TILT_ACT, h2)], output_tanh=True)

    w0 = net.weights[0]
    w0[:, :QUAD_OBS] = quad_actor.weights[0]
    w0[:, QUAD_OBS:] = nn.xavier_init(h1, TILT_OBS - QUAD_OBS, rng)
    net.frozen_w[0][:, :QUAD_OBS] = True
    report.add("input->A1 (shared cols)", "transferred_frozen", h1 * QUAD_OBS)
    report.add("input->A1 (tilt cols)", "fresh_xavier", h1 * (TILT_OBS - QUAD_OBS))
    report.add("A1 bias", "transferred_frozen", h1)

    # b0, W1 and b1 follow W0 in both networks, so one slice each holds them.
    n_shared = h1 + h2 * h1 + h2
    shared = slice(h1 * TILT_OBS, h1 * TILT_OBS + n_shared)
    net.params[shared] = quad_actor.params[h1 * QUAD_OBS:h1 * QUAD_OBS + n_shared]
    net.frozen[shared] = True
    report.add("A1->A2", "transferred_frozen", h2 * h1)
    report.add("A2 bias", "transferred_frozen", h2)

    net.weights[2][:] = nn.xavier_init(TILT_ACT, h2, rng)
    report.add("A2->output", "fresh_xavier", TILT_ACT * h2)
    report.add("output bias", "fresh_xavier", TILT_ACT)

    assert report.total() == net.n_params()
    return net, report


def build_tilt_critic(quad_critic: Mlp, rng: np.random.Generator) -> tuple[Mlp, TransferReport]:
    """Construct the 22-in/1-out tilt critic: fresh input layer, hidden and
    output layers copied from the quad critic, everything trainable."""
    sizes = quad_critic.layer_sizes
    if len(sizes) != 4 or sizes[0] != QUAD_OBS or sizes[-1] != 1:
        raise ShapeMismatchError(
            f"quad critic must be {QUAD_OBS}-h1-h2-1, got {sizes}")
    h1, h2 = sizes[1], sizes[2]
    report = TransferReport()
    net = Mlp([(h1, TILT_OBS), (h2, h1), (1, h2)], output_tanh=False)

    net.weights[0][:] = nn.xavier_init(h1, TILT_OBS, rng)
    report.add("input->C1", "fresh_xavier", h1 * TILT_OBS + h1)

    net.params[h1 * TILT_OBS + h1:] = quad_critic.params[h1 * QUAD_OBS + h1:]  # after layer 0
    report.add("C1->C2", "transferred_trainable", h2 * h1 + h2)
    report.add("C2->output", "transferred_trainable", h2 + 1)

    assert report.total() == net.n_params()
    return net, report
