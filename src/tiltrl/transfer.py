"""Staged policy transfer from a trained quadcopter to the tilt-rotor.

The tilt-rotor actor reuses the quadcopter's two hidden layers frozen; only
the four new tilt-error input columns and the 8-output layer are fresh and
trainable. The critic reuses its hidden and output layers but re-initializes
the input layer, and nothing in it is frozen. Each builder also returns the
mask of copied parameters, from which `provenance` reads the transfer report.
"""

from __future__ import annotations

import numpy as np

from . import neuralnet as nn
from .env import Platform
from .neuralnet import Mlp, ShapeMismatchError

QUAD_OBS = Platform.QUAD.obs_dim
TILT_OBS = Platform.TILT_ROTOR.obs_dim
QUAD_ACT = Platform.QUAD.act_dim
TILT_ACT = Platform.TILT_ROTOR.act_dim

CATEGORIES = ("transferred_frozen", "transferred_trainable", "fresh")


def provenance(net: Mlp, copied: np.ndarray) -> list[tuple[str, str, int]]:
    """One (block, category, count) row per W_i / b_i and category it holds:
    a copied parameter is transferred_frozen or transferred_trainable as
    net.frozen says, any other is fresh."""
    ws, bs = net.views(np.where(copied, ~net.frozen, 2))   # index into CATEGORIES
    rows = []
    for i, (w, b) in enumerate(zip(ws, bs)):
        for block, codes in ((f"W{i}", w), (f"b{i}", b)):
            counts = np.bincount(codes.ravel(), minlength=len(CATEGORIES))
            rows += [(block, cat, int(n)) for cat, n in zip(CATEGORIES, counts) if n]
    return rows


def build_tilt_actor(quad_actor: Mlp, rng: np.random.Generator) -> tuple[Mlp, np.ndarray]:
    """Construct the 22-in/8-out tilt actor from an 18-in/4-out quad actor.

    Hidden-layer weights and biases are copied and frozen; the 4 new input
    columns for the tilt errors and the whole output layer are Xavier-fresh
    and trainable. The copied mask is net.frozen: all that is copied is frozen.
    """
    sizes = quad_actor.layer_sizes
    if len(sizes) != 4 or sizes[0] != QUAD_OBS or sizes[-1] != QUAD_ACT:
        raise ShapeMismatchError(
            f"quad actor must be {QUAD_OBS}-h1-h2-{QUAD_ACT}, got {sizes}")
    h1, h2 = sizes[1], sizes[2]
    net = Mlp([(h1, TILT_OBS), (h2, h1), (TILT_ACT, h2)], output_tanh=True)

    w0 = net.weights[0]
    w0[:, :QUAD_OBS] = quad_actor.weights[0]
    w0[:, QUAD_OBS:] = nn.xavier_init(h1, TILT_OBS - QUAD_OBS, rng)
    net.frozen_w[0][:, :QUAD_OBS] = True

    # b0, W1 and b1 follow W0 in both networks, so one slice each holds them.
    n_shared = h1 + h2 * h1 + h2
    shared = slice(h1 * TILT_OBS, h1 * TILT_OBS + n_shared)
    net.params[shared] = quad_actor.params[h1 * QUAD_OBS:h1 * QUAD_OBS + n_shared]
    net.frozen[shared] = True

    net.weights[2][:] = nn.xavier_init(TILT_ACT, h2, rng)
    return net, net.frozen


def build_tilt_critic(quad_critic: Mlp, rng: np.random.Generator) -> tuple[Mlp, np.ndarray]:
    """Construct the 22-in/1-out tilt critic: fresh input layer, hidden and
    output layers copied from the quad critic, everything trainable."""
    sizes = quad_critic.layer_sizes
    if len(sizes) != 4 or sizes[0] != QUAD_OBS or sizes[-1] != 1:
        raise ShapeMismatchError(
            f"quad critic must be {QUAD_OBS}-h1-h2-1, got {sizes}")
    h1, h2 = sizes[1], sizes[2]
    net = Mlp([(h1, TILT_OBS), (h2, h1), (1, h2)], output_tanh=False)

    net.weights[0][:] = nn.xavier_init(h1, TILT_OBS, rng)
    first = h1 * TILT_OBS + h1
    net.params[first:] = quad_critic.params[h1 * QUAD_OBS + h1:]  # after layer 0
    return net, np.arange(net.params.size) >= first
