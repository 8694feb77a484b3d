"""Minimal feed-forward network engine: tanh MLPs, reverse-mode gradients,
Adam, per-parameter freezing, and a binary checkpoint format.

Checkpoint byte layout (little-endian throughout):

    magic   4s   b"TLRC"
    version u32  currently 1
    seed    u64  master seed of the run
    step    u64  training step counter
    n_nets  u8
    per network:
        name_len u8, name ascii bytes
        output_tanh u8 (0/1)
        n_layers u8
        per layer: rows u32, cols u32
        per layer, in order:
            W  float64 row-major (rows*cols)
            b  float64 (rows)
            frozen_W u8 (rows*cols)
            frozen_b u8 (rows)
        has_opt u8 (0/1); if 1:
            step_count u64, beta1 f64, beta2 f64, eps f64
            per layer: mW, vW float64 (rows*cols) each; mb, vb float64 (rows) each

Round-trip save/load is bit-exact.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

CHECKPOINT_MAGIC = b"TLRC"
CHECKPOINT_VERSION = 1


class DimensionMismatchError(ValueError):
    """Input or upstream vector does not match the network's layer shapes."""


class ShapeMismatchError(ValueError):
    """Network shape does not match what an operation requires."""


@dataclass
class Mlp:
    """Layered tanh network. weights[i] has shape (out, in); tanh on hidden
    layers, tanh or identity on the output per output_tanh."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    frozen_w: list[np.ndarray]   # bool masks, same shapes as weights
    frozen_b: list[np.ndarray]
    output_tanh: bool = True

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def layer_sizes(self) -> list[int]:
        return [self.in_dim] + [w.shape[0] for w in self.weights]

    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def n_frozen(self) -> int:
        return int(sum(fw.sum() + fb.sum() for fw, fb in zip(self.frozen_w, self.frozen_b)))

    def copy(self) -> "Mlp":
        return Mlp([w.copy() for w in self.weights], [b.copy() for b in self.biases],
                   [f.copy() for f in self.frozen_w], [f.copy() for f in self.frozen_b],
                   self.output_tanh)


@dataclass
class AdamState:
    m_w: list[np.ndarray]
    v_w: list[np.ndarray]
    m_b: list[np.ndarray]
    v_b: list[np.ndarray]
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_net(cls, net: Mlp, beta1: float = 0.9, beta2: float = 0.999,
                eps: float = 1e-8) -> "AdamState":
        return cls([np.zeros_like(w) for w in net.weights],
                   [np.zeros_like(w) for w in net.weights],
                   [np.zeros_like(b) for b in net.biases],
                   [np.zeros_like(b) for b in net.biases],
                   0, beta1, beta2, eps)


def xavier_init(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Xavier-uniform weights with the bound capped at 0.1."""
    b = min(math.sqrt(6.0 / (rows + cols)), 0.1)
    return rng.uniform(-b, b, (rows, cols))


def make_mlp(sizes: list[int], rng: np.random.Generator,
             output_tanh: bool = True) -> Mlp:
    """Fresh network with Xavier weights and zero biases, nothing frozen."""
    weights, biases, fw, fb = [], [], [], []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        weights.append(xavier_init(n_out, n_in, rng))
        biases.append(np.zeros(n_out))
        fw.append(np.zeros((n_out, n_in), dtype=bool))
        fb.append(np.zeros(n_out, dtype=bool))
    return Mlp(weights, biases, fw, fb, output_tanh)


def _forward_cached(net: Mlp, x: np.ndarray) -> list[np.ndarray]:
    """Activations per layer; acts[0] is the input, acts[-1] the output."""
    acts = [x]
    h = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w.T + b
        if i < last or net.output_tanh:
            h = np.tanh(h)
        acts.append(h)
    return acts


def forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """Evaluate the network on a single input (1-D) or a batch (2-D)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != net.in_dim:
        raise DimensionMismatchError(
            f"input dim {x.shape[-1]} != network input {net.in_dim}")
    return _forward_cached(net, x)[-1]


def gradients(net: Mlp, x: np.ndarray, upstream: np.ndarray, acts=None):
    """Gradients of sum(output * upstream) w.r.t. all parameters.

    x and upstream may be single vectors or batches (summed over the batch).
    Frozen parameters get exactly zero gradient. acts may carry activations
    from a previous _forward_cached(net, x) to skip the forward pass.
    Returns (grad_weights, grad_biases) lists shaped like the parameters.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    upstream = np.atleast_2d(np.asarray(upstream, dtype=float))
    if x.shape[-1] != net.in_dim:
        raise DimensionMismatchError(
            f"input dim {x.shape[-1]} != network input {net.in_dim}")
    if upstream.shape[-1] != net.out_dim:
        raise DimensionMismatchError(
            f"upstream dim {upstream.shape[-1]} != network output {net.out_dim}")

    if acts is None:
        acts = _forward_cached(net, x)
    delta = upstream
    if net.output_tanh:
        delta = delta * (1.0 - acts[-1] ** 2)

    n = len(net.weights)
    gw: list[np.ndarray] = [None] * n
    gb: list[np.ndarray] = [None] * n
    for i in range(n - 1, -1, -1):
        gw[i] = delta.T @ acts[i]
        gb[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ net.weights[i]) * (1.0 - acts[i] ** 2)
    for i in range(n):
        gw[i][net.frozen_w[i]] = 0.0
        gb[i][net.frozen_b[i]] = 0.0
    return gw, gb


def adam_step(net: Mlp, opt: AdamState, grads, lr: float) -> None:
    """Bias-corrected Adam update in place; frozen parameters are untouched."""
    gw, gb = grads
    opt.step_count += 1
    t = opt.step_count
    b1, b2, eps = opt.beta1, opt.beta2, opt.eps
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for i in range(len(net.weights)):
        for p, g, m, v, frozen in (
            (net.weights[i], gw[i], opt.m_w[i], opt.v_w[i], net.frozen_w[i]),
            (net.biases[i], gb[i], opt.m_b[i], opt.v_b[i], net.frozen_b[i]),
        ):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            upd = lr * (m / c1) / (np.sqrt(v / c2) + eps)
            upd[frozen] = 0.0
            p -= upd


def gaussian_log_prob(mean: np.ndarray, sigma: float, a: np.ndarray) -> float:
    """Log density of a diagonal Gaussian N(mean, sigma^2 I) at a."""
    mean = np.asarray(mean, dtype=float)
    a = np.asarray(a, dtype=float)
    k = mean.shape[-1]
    diff = a - mean
    quad = np.sum(diff * diff, axis=-1) / (2.0 * sigma * sigma)
    out = -0.5 * k * math.log(2.0 * math.pi) - k * math.log(sigma) - quad
    return float(out) if out.ndim == 0 else out


# --- checkpoint serialization -------------------------------------------------

def _pack_net(fh, name: str, net: Mlp, opt: AdamState | None) -> None:
    nb = name.encode("ascii")
    fh.write(struct.pack("<B", len(nb)))
    fh.write(nb)
    fh.write(struct.pack("<BB", int(net.output_tanh), len(net.weights)))
    for w in net.weights:
        fh.write(struct.pack("<II", w.shape[0], w.shape[1]))
    for i in range(len(net.weights)):
        fh.write(np.ascontiguousarray(net.weights[i], dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(net.biases[i], dtype="<f8").tobytes())
        fh.write(net.frozen_w[i].astype(np.uint8).tobytes())
        fh.write(net.frozen_b[i].astype(np.uint8).tobytes())
    fh.write(struct.pack("<B", int(opt is not None)))
    if opt is not None:
        fh.write(struct.pack("<Qddd", opt.step_count, opt.beta1, opt.beta2, opt.eps))
        for i in range(len(net.weights)):
            for arr in (opt.m_w[i], opt.v_w[i], opt.m_b[i], opt.v_b[i]):
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read(fh, fmt):
    return struct.unpack(fmt, fh.read(struct.calcsize(fmt)))


def _read_array(fh, shape, dtype="<f8"):
    n = int(np.prod(shape))
    itemsize = np.dtype(dtype).itemsize
    return np.frombuffer(fh.read(n * itemsize), dtype=dtype).reshape(shape).copy()


def _unpack_net(fh) -> tuple[str, Mlp, AdamState | None]:
    (name_len,) = _read(fh, "<B")
    name = fh.read(name_len).decode("ascii")
    output_tanh, n_layers = _read(fh, "<BB")
    shapes = [_read(fh, "<II") for _ in range(n_layers)]
    weights, biases, fw, fb = [], [], [], []
    for rows, cols in shapes:
        weights.append(_read_array(fh, (rows, cols)))
        biases.append(_read_array(fh, (rows,)))
        fw.append(_read_array(fh, (rows, cols), np.uint8).astype(bool))
        fb.append(_read_array(fh, (rows,), np.uint8).astype(bool))
    net = Mlp(weights, biases, fw, fb, bool(output_tanh))
    (has_opt,) = _read(fh, "<B")
    opt = None
    if has_opt:
        step_count, b1, b2, eps = _read(fh, "<Qddd")
        opt = AdamState([], [], [], [], step_count, b1, b2, eps)
        for rows, cols in shapes:
            opt.m_w.append(_read_array(fh, (rows, cols)))
            opt.v_w.append(_read_array(fh, (rows, cols)))
            opt.m_b.append(_read_array(fh, (rows,)))
            opt.v_b.append(_read_array(fh, (rows,)))
    return name, net, opt


def save_checkpoint(path, nets: dict[str, tuple[Mlp, AdamState | None]],
                    seed: int, train_step: int) -> None:
    """Write networks (+ optional optimizer moments) to a versioned binary file."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IQQB", CHECKPOINT_VERSION, seed, train_step, len(nets)))
        for name, (net, opt) in nets.items():
            _pack_net(fh, name, net, opt)


def load_checkpoint(path):
    """Read a checkpoint; returns (nets dict, seed, train_step)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint file: bad magic {magic!r}")
        version, seed, train_step, n_nets = _read(fh, "<IQQB")
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        nets = {}
        for _ in range(n_nets):
            name, net, opt = _unpack_net(fh)
            nets[name] = (net, opt)
    return nets, seed, train_step
