"""Minimal feed-forward network engine: tanh MLPs, reverse-mode gradients,
Adam, per-parameter freezing, and a binary checkpoint format.

Each Mlp keeps its parameters in one float64 vector `params`, laid out W0,
b0, W1, b1, ..., and its freeze flags in one bool vector `frozen`; the layer
arrays are views into them. Gradients and Adam moments share that layout.

Checkpoint byte layout (little-endian; the layer views are written in order):

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

import contextlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

CHECKPOINT_MAGIC = b"TLRC"
CHECKPOINT_VERSION = 1
_LAYER_DTYPES = ("<f8", "<f8", np.uint8, np.uint8)   # W, b, frozen_W, frozen_b


class ShapeMismatchError(ValueError):
    """A network, input or upstream shape does not match what an operation requires."""


def _flatten(ws, bs, dtype) -> np.ndarray:
    return np.concatenate([np.ravel(a) for layer in zip(ws, bs) for a in layer], dtype=dtype)


class Mlp:
    """Layered tanh network. weights[i] has shape (out, in); tanh on hidden
    layers, tanh or identity on the output per output_tanh. The constructor
    copies the layer arrays into `params` and `frozen`."""

    def __init__(self, weights, biases, frozen_w, frozen_b, output_tanh: bool = True):
        self.shapes = [np.shape(w) for w in weights]
        self.output_tanh = output_tanh
        self.params = _flatten(weights, biases, float)
        self.frozen = _flatten(frozen_w, frozen_b, bool)
        self.weights, self.biases = self.views(self.params)
        self.frozen_w, self.frozen_b = self.views(self.frozen)

    @classmethod
    def zeros(cls, shapes, output_tanh: bool = True) -> "Mlp":
        """All-zero network with weight shapes [(out, in), ...], nothing frozen."""
        ws = [np.zeros(shape) for shape in shapes]
        bs = [np.zeros(rows) for rows, _ in shapes]
        return cls(ws, bs, [w.astype(bool) for w in ws], [b.astype(bool) for b in bs],
                   output_tanh)

    def views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views into a vector laid out like params."""
        ws, bs, at = [], [], 0
        for rows, cols in self.shapes:
            end = at + rows * cols
            ws.append(flat[at:end].reshape(rows, cols))
            bs.append(flat[end:end + rows])
            at = end + rows
        return ws, bs

    @property
    def in_dim(self) -> int:
        return self.shapes[0][1]

    @property
    def out_dim(self) -> int:
        return self.shapes[-1][0]

    @property
    def layer_sizes(self) -> list[int]:
        return [self.in_dim] + [rows for rows, _ in self.shapes]

    def n_params(self) -> int:
        return self.params.size

    def n_frozen(self) -> int:
        return int(np.count_nonzero(self.frozen))

    def copy(self) -> "Mlp":
        net = Mlp.zeros(self.shapes, self.output_tanh)
        net.params[:] = self.params
        net.frozen[:] = self.frozen
        return net


@dataclass
class AdamState:
    """Adam moments m, v laid out like the net's params (net.views splits them)."""

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_net(cls, net: Mlp, beta1: float = 0.9, beta2: float = 0.999,
                eps: float = 1e-8) -> "AdamState":
        return cls(np.zeros_like(net.params), np.zeros_like(net.params), 0,
                   beta1, beta2, eps)


def xavier_init(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Xavier-uniform weights with the bound capped at 0.1."""
    b = min(math.sqrt(6.0 / (rows + cols)), 0.1)
    return rng.uniform(-b, b, (rows, cols))


def make_mlp(sizes: list[int], rng: np.random.Generator,
             output_tanh: bool = True) -> Mlp:
    """Fresh network with Xavier weights and zero biases, nothing frozen."""
    net = Mlp.zeros(list(zip(sizes[1:], sizes[:-1])), output_tanh)
    for w in net.weights:
        w[:] = xavier_init(*w.shape, rng)
    return net


def activations(net: Mlp, x: np.ndarray) -> list[np.ndarray]:
    """Activations per layer; acts[0] is the input, acts[-1] the output."""
    acts = [x]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = acts[-1] @ w.T + b
        if i < last or net.output_tanh:
            h = np.tanh(h)
        acts.append(h)
    return acts


def forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """Evaluate the network on a single input (1-D) or a batch (2-D)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != net.in_dim:
        raise ShapeMismatchError(
            f"input dim {x.shape[-1]} != network input {net.in_dim}")
    return activations(net, x)[-1]


def gradients(net: Mlp, x: np.ndarray, upstream: np.ndarray, acts=None) -> np.ndarray:
    """Gradient of sum(output * upstream) w.r.t. all parameters.

    x and upstream may be single vectors or batches (summed over the batch).
    Frozen parameters get exactly zero gradient. acts may carry activations
    from a previous activations(net, x) to skip the forward pass.
    Returns one flat vector laid out like net.params (net.views splits it).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    upstream = np.atleast_2d(np.asarray(upstream, dtype=float))
    if x.shape[-1] != net.in_dim:
        raise ShapeMismatchError(
            f"input dim {x.shape[-1]} != network input {net.in_dim}")
    if upstream.shape[-1] != net.out_dim:
        raise ShapeMismatchError(
            f"upstream dim {upstream.shape[-1]} != network output {net.out_dim}")

    if acts is None:
        acts = activations(net, x)
    delta = upstream
    if net.output_tanh:
        delta = delta * (1.0 - acts[-1] ** 2)

    g = np.empty_like(net.params)
    gw, gb = net.views(g)
    for i in range(len(gw) - 1, -1, -1):
        np.matmul(delta.T, acts[i], out=gw[i])
        delta.sum(axis=0, out=gb[i])
        if i > 0:
            delta = (delta @ net.weights[i]) * (1.0 - acts[i] ** 2)
    g[net.frozen] = 0.0
    return g


def adam_step(net: Mlp, opt: AdamState, grad: np.ndarray, lr: float) -> None:
    """Bias-corrected Adam update in place; frozen parameters are untouched.
    grad is flat, laid out like net.params."""
    opt.step_count += 1
    t = opt.step_count
    b1, b2, eps = opt.beta1, opt.beta2, opt.eps
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    opt.m *= b1
    opt.m += (1.0 - b1) * grad
    opt.v *= b2
    opt.v += (1.0 - b2) * grad * grad
    upd = lr * (opt.m / c1) / (np.sqrt(opt.v / c2) + eps)
    upd[net.frozen] = 0.0
    net.params -= upd


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
    fh.write(struct.pack("<BB", int(net.output_tanh), len(net.shapes)))
    for rows, cols in net.shapes:
        fh.write(struct.pack("<II", rows, cols))
    for layer in zip(net.weights, net.biases, net.frozen_w, net.frozen_b):
        for arr, dtype in zip(layer, _LAYER_DTYPES):
            fh.write(arr.astype(dtype, copy=False).tobytes())
    fh.write(struct.pack("<B", int(opt is not None)))
    if opt is not None:
        fh.write(struct.pack("<Qddd", opt.step_count, opt.beta1, opt.beta2, opt.eps))
        (m_w, m_b), (v_w, v_b) = net.views(opt.m), net.views(opt.v)
        for layer in zip(m_w, v_w, m_b, v_b):
            for arr in layer:
                fh.write(arr.astype("<f8", copy=False).tobytes())


def _read(fh, fmt):
    return struct.unpack(fmt, fh.read(struct.calcsize(fmt)))


def _read_into(fh, dst: np.ndarray, dtype="<f8") -> None:
    dst[...] = np.frombuffer(fh.read(dst.size * np.dtype(dtype).itemsize),
                             dtype=dtype).reshape(dst.shape)


def _unpack_net(fh) -> tuple[str, Mlp, AdamState | None]:
    (name_len,) = _read(fh, "<B")
    name = fh.read(name_len).decode("ascii")
    output_tanh, n_layers = _read(fh, "<BB")
    net = Mlp.zeros([_read(fh, "<II") for _ in range(n_layers)], bool(output_tanh))
    for layer in zip(net.weights, net.biases, net.frozen_w, net.frozen_b):
        for arr, dtype in zip(layer, _LAYER_DTYPES):
            _read_into(fh, arr, dtype)
    (has_opt,) = _read(fh, "<B")
    opt = None
    if has_opt:
        step_count, b1, b2, eps = _read(fh, "<Qddd")
        opt = AdamState.for_net(net, b1, b2, eps)
        opt.step_count = step_count
        (m_w, m_b), (v_w, v_b) = net.views(opt.m), net.views(opt.v)
        for layer in zip(m_w, v_w, m_b, v_b):
            for arr in layer:
                _read_into(fh, arr)
    return name, net, opt


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Open `path`.tmp for writing; once the block finishes it replaces
    `path`. If the block fails, `path` keeps its old contents and the
    temporary file is removed."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_checkpoint(path, nets: dict[str, tuple[Mlp, AdamState | None]],
                    seed: int, train_step: int) -> None:
    """Write networks (+ optional optimizer moments) to a versioned binary
    file, atomically (see atomic_open)."""
    with atomic_open(path, "wb") as fh:
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
