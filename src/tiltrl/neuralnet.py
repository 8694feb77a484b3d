"""Minimal feed-forward network engine: tanh MLPs, reverse-mode gradients,
Adam, per-parameter freezing, and a binary checkpoint format.

Each Mlp keeps its parameters in one float64 vector `params`, laid out W0,
b0, W1, b1, ..., and its freeze flags in one bool vector `frozen`; the layer
arrays are views into them. Gradients and Adam moments share that layout.

Checkpoint byte layout (little-endian; `_blocks` gives the arrays' order):

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
import pickle
import signal
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

CHECKPOINT_MAGIC = b"TLRC"
CHECKPOINT_VERSION = 1
_LAYER_DTYPES = ("<f8", "<f8", np.uint8, np.uint8)   # W, b, frozen_W, frozen_b


class ShapeMismatchError(ValueError):
    """A network, input or upstream shape does not match what an operation requires."""


class CheckpointError(ValueError):
    """A file load_checkpoint cannot read: bad magic, unsupported version,
    layers that do not chain, truncated, or with bytes after its last
    network; or a network it does not hold."""


class _Nets(dict):
    """A checkpoint's networks by name; a name it lacks is a CheckpointError."""

    def __missing__(self, name):
        raise CheckpointError(f"the checkpoint has no {name!r} network")


class Mlp:
    """Layered tanh network with weight shapes [(out, in), ...]: tanh on
    hidden layers, tanh or identity on the output per output_tanh. It starts
    all zero with nothing frozen."""

    def __init__(self, shapes, output_tanh: bool = True):
        self.shapes = list(shapes)
        self.output_tanh = output_tanh
        n = sum(rows * cols + rows for rows, cols in self.shapes)
        self.params = np.zeros(n)
        self.frozen = np.zeros(n, dtype=bool)
        self.weights, self.biases = self.views(self.params)
        self.frozen_w, self.frozen_b = self.views(self.frozen)

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
    def for_net(cls, net: Mlp) -> "AdamState":
        return cls(np.zeros_like(net.params), np.zeros_like(net.params))


def xavier_init(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Xavier-uniform weights with the bound capped at 0.1."""
    b = min(math.sqrt(6.0 / (rows + cols)), 0.1)
    return rng.uniform(-b, b, (rows, cols))


def make_mlp(sizes: list[int], rng: np.random.Generator,
             output_tanh: bool = True) -> Mlp:
    """Fresh network with Xavier weights and zero biases, nothing frozen."""
    net = Mlp(list(zip(sizes[1:], sizes[:-1])), output_tanh)
    for w in net.weights:
        w[:] = xavier_init(*w.shape, rng)
    return net


def activations(net: Mlp, x: np.ndarray) -> list[np.ndarray]:
    """Activations per layer; acts[0] is the input, acts[-1] the output."""
    acts = [x]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = acts[-1] @ w.T
        h += b
        if i < last or net.output_tanh:
            np.tanh(h, out=h)
        acts.append(h)
    return acts


def forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """Evaluate the network on a single input (1-D) or a batch (2-D)."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != net.in_dim:
        raise ShapeMismatchError(
            f"input dim {x.shape[-1]} != network input {net.in_dim}")
    return activations(net, x)[-1]


def backprop(net: Mlp):
    """net's reverse pass as a function (acts, upstream) -> the gradient of
    sum(acts[-1] * upstream) w.r.t. all parameters, acts from activations
    on a batch; flat like net.params, exactly zero where net was frozen when
    backprop was called. Every call overwrites and returns one buffer."""
    g = np.empty_like(net.params)
    gw, gb = net.views(g)
    frozen = np.flatnonzero(net.frozen)
    last = len(gw) - 1

    def grad(acts, delta):
        for i in range(last, -1, -1):
            if i < last or net.output_tanh:   # d tanh = 1 - tanh^2
                d = acts[i + 1] * acts[i + 1]
                delta = np.multiply(np.subtract(1.0, d, out=d), delta, out=d)
            np.matmul(delta.T, acts[i], out=gw[i])
            np.add.reduce(delta, axis=0, out=gb[i])
            if i > 0:
                delta = delta @ net.weights[i]
        g[frozen] = 0.0
        return g
    return grad


def gradients(net: Mlp, x: np.ndarray, upstream: np.ndarray, acts=None) -> np.ndarray:
    """Gradient of sum(output * upstream) w.r.t. all parameters.

    x and upstream may be single vectors or batches (summed over the batch).
    Frozen parameters get exactly zero gradient. acts may carry activations
    from a previous activations(net, x) to skip the forward pass.
    Returns one fresh flat vector laid out like net.params (net.views splits it).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    upstream = np.atleast_2d(np.asarray(upstream, dtype=float))
    if x.shape[-1] != net.in_dim:
        raise ShapeMismatchError(
            f"input dim {x.shape[-1]} != network input {net.in_dim}")
    if upstream.shape[-1] != net.out_dim:
        raise ShapeMismatchError(
            f"upstream dim {upstream.shape[-1]} != network output {net.out_dim}")
    return backprop(net)(activations(net, x) if acts is None else acts, upstream)


def adam_step(net: Mlp, opt: AdamState, grad: np.ndarray, lr: float) -> None:
    """Bias-corrected Adam update in place, m and v first; frozen parameters
    are untouched. grad is flat, laid out like net.params."""
    opt.step_count += 1
    t = opt.step_count
    b1, b2, eps = opt.beta1, opt.beta2, opt.eps
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    tmp = np.multiply(grad, 1.0 - b1)
    opt.m *= b1
    opt.m += tmp
    np.multiply(grad, 1.0 - b2, out=tmp)
    tmp *= grad
    opt.v *= b2
    opt.v += tmp
    np.divide(opt.v, c2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps
    upd = np.divide(opt.m, c1)
    upd *= lr
    upd /= tmp
    upd[net.frozen] = 0.0
    net.params -= upd


def gaussian_log_prob(mean: np.ndarray, sigma: float, a: np.ndarray) -> np.ndarray:
    """Log density of a diagonal Gaussian N(mean, sigma^2 I) at a, one value
    per row of a batch."""
    return gaussian_log_density(np.asarray(a, dtype=float) - np.asarray(mean, dtype=float), sigma)


def gaussian_log_density(diff: np.ndarray, sigma: float) -> np.ndarray:
    """Log density of N(0, sigma^2 I) at each row of diff = a - mean."""
    k = diff.shape[-1]
    quad = np.add.reduce(diff * diff, axis=-1) / (2.0 * sigma * sigma)
    return -0.5 * k * math.log(2.0 * math.pi) - k * math.log(sigma) - quad


# --- checkpoint serialization -------------------------------------------------

def _blocks(net: Mlp, opt_header):
    """A net's arrays in checkpoint order with their file dtypes: W, b, frozen_W,
    frozen_b per layer; then opt_header() writes or reads the optimizer flag and
    header and returns the AdamState whose mW, vW, mb, vb per layer follow, or None."""
    for layer in zip(net.weights, net.biases, net.frozen_w, net.frozen_b):
        yield from zip(layer, _LAYER_DTYPES)
    opt = opt_header()
    if opt is not None:
        (m_w, m_b), (v_w, v_b) = net.views(opt.m), net.views(opt.v)
        for layer in zip(m_w, v_w, m_b, v_b):
            yield from ((arr, "<f8") for arr in layer)


def _pack_net(fh, name: str, net: Mlp, opt: AdamState | None) -> None:
    nb = name.encode("ascii")
    fh.write(struct.pack("<B", len(nb)) + nb)
    fh.write(struct.pack("<BB", int(net.output_tanh), len(net.shapes)))
    for rows, cols in net.shapes:
        fh.write(struct.pack("<II", rows, cols))

    def opt_header():
        fh.write(struct.pack("<B", int(opt is not None)))
        if opt is not None:
            fh.write(struct.pack("<Qddd", opt.step_count, opt.beta1, opt.beta2, opt.eps))
        return opt

    for arr, dtype in _blocks(net, opt_header):
        fh.write(arr.astype(dtype, copy=False).tobytes())


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointError(f"truncated checkpoint {fh.name!r}")
    return data


def _read(fh, fmt):
    return struct.unpack(fmt, _read_exact(fh, struct.calcsize(fmt)))


def _read_flag(fh) -> bool:
    (flag,) = _read(fh, "<B")
    if flag > 1:
        raise CheckpointError(f"checkpoint {fh.name!r}: flag byte {flag} is not 0 or 1")
    return bool(flag)


def _unpack_net(fh) -> tuple[str, Mlp, AdamState | None]:
    (name_len,) = _read(fh, "<B")
    try:
        name = _read_exact(fh, name_len).decode("ascii")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"checkpoint {fh.name!r}: a network name is not ASCII") from exc
    output_tanh = _read_flag(fh)
    (n_layers,) = _read(fh, "<B")
    shapes = [_read(fh, "<II") for _ in range(n_layers)]
    if not shapes or any(cols != rows for (rows, _), (_, cols) in zip(shapes, shapes[1:])):
        raise CheckpointError(f"checkpoint {fh.name!r}: {name!r} layer shapes {shapes}"
                              " are not a chain of one or more layers")
    # Before allocating: each W and b entry takes 8 bytes plus 1 frozen flag.
    if 9 * sum(rows * cols + rows for rows, cols in shapes) > (
            os.fstat(fh.fileno()).st_size - fh.tell()):
        raise CheckpointError(f"truncated checkpoint {fh.name!r}")
    net = Mlp(shapes, output_tanh)
    opt = None

    def opt_header():
        nonlocal opt
        if _read_flag(fh):
            opt = AdamState(np.zeros_like(net.params), np.zeros_like(net.params),
                            *_read(fh, "<Qddd"))
        return opt

    for arr, dtype in _blocks(net, opt_header):
        arr[...] = np.frombuffer(_read_exact(fh, arr.size * np.dtype(dtype).itemsize),
                                 dtype=dtype).reshape(arr.shape)
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


def write_rows(path, header: str, rows) -> None:
    """Write a CSV file, atomically (see atomic_open): the header line, then
    one line per row."""
    with atomic_open(path) as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def fork_map(fn, n: int) -> list:
    """[fn(0), ..., fn(n - 1)] from this process and one forked child (POSIX)
    side by side: index 0 runs here, index 1 in the child, then each takes
    the next free index. The child's results, or the exception it raised,
    come back pickled, bit for bit; a child that ends otherwise is a
    RuntimeError naming its status. An exception here kills the child."""
    if n < 2:
        return [fn(i) for i in range(n)]
    # Both processes read the queue at one shared file offset, so each read
    # takes a distinct index. The child leaves its results in `back` and exits.
    with tempfile.TemporaryFile() as queue, tempfile.TemporaryFile() as back:
        queue.write(struct.pack(f"<{n - 2}I", *range(2, n)))
        queue.seek(0)

        def run(i):
            out = {i: fn(i)}
            while chunk := os.read(queue.fileno(), 4):
                i, = struct.unpack("<I", chunk)
                out[i] = fn(i)
            return out

        if (pid := os.fork()) == 0:
            try:
                try:
                    theirs = run(1)
                except BaseException as exc:
                    theirs = exc
                pickle.dump(theirs, back)
                back.flush()
                os._exit(0)
            finally:
                os._exit(1)
        try:
            mine = run(0)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        if status != 0:
            raise RuntimeError(f"fork_map's child process ended with status {status}")
        back.seek(0)
        theirs = pickle.load(back)
    if isinstance(theirs, BaseException):
        raise theirs
    return [v for _, v in sorted({**mine, **theirs}.items())]


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
    """Read a checkpoint; returns (nets dict, seed, train_step). Raises
    CheckpointError for a file that is not exactly one whole checkpoint of
    this version."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"not a checkpoint file: bad magic {magic!r}")
        version, seed, train_step, n_nets = _read(fh, "<IQQB")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        nets = _Nets()
        for _ in range(n_nets):
            name, net, opt = _unpack_net(fh)
            if name in nets:
                raise CheckpointError(f"checkpoint {fh.name!r} holds two {name!r} networks")
            nets[name] = (net, opt)
        if fh.read(1):
            raise CheckpointError(f"checkpoint {fh.name!r} has bytes after its last network")
    return nets, seed, train_step
