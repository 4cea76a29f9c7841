"""Minimal dense layers with analytic gradients, losses, and Adam.

Every MLP applies GELU after each layer but the last, whose output is the
net's: the tanh form 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³))) of
Hendrycks and Gimpel (2016). Everything runs in float64. Forward passes are
pure; a tape produced by mlp_forward carries each layer's input and each
hidden layer's GELU slope at its pre-activation, all the exact reverse pass
needs, so that pass evaluates no tanh. mlp_backward spends the tape: it
writes its gradients over the tape's own buffers, so a taped hidden layer
holds two arrays of its width, and a later mlp_forward refills a spent
tape's buffers instead of allocating new ones. Every forward takes the rows
in chunks of about CHUNK_ENTRIES entries of the widest layer shared among
the workers (512 rows of the 1152-wide decoder on two) and runs each chunk
through every layer: a taped one into the tape's buffers, a forward-only one
(`tape=False`) in chunk-sized buffers, activating in place, writing it into
one output array, so that no hidden layer is ever held for all rows.

Work runs on a worker per CPU in the process's affinity set (NumPy's ufuncs
and matmuls release the GIL), and no result depends on the worker count.
A forward's chunk runs whole on one worker: each layer's matmul and bias,
then GELU (and, with a tape, its slope) over row blocks of BLOCK_ENTRIES
entries (`_row_blocks`), each small enough to stay in L2 cache. OpenBLAS
picks its kernel by the product's shape, and kernels round small products
differently, so a matmul of a few rows would change result bits; the chunks
are kept tall enough for their narrowest layer that they do not
(`_forward_chunks`). The reverse pass multiplies by the slopes in
such row blocks on the workers, and runs its matmuls, which sum over rows,
on the calling thread over every row at once.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from queue import SimpleQueue

import numpy as np
from scipy.special import expit

from .errors import NonFiniteGradient, StaleTape

# the tanh GELU's constants (Hendrycks and Gimpel, 2016)
_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))
_GELU_CUBIC = 0.044715
# Adam's moment decay rates and denominator offset
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# entries per GELU block, 64 rows of the 1152-wide decoder layer: a block of
# pre-activations, gates and outputs takes 1.8 MB, inside a 2 MB L2 cache
# (the taped pass's slope takes a fourth 0.6 MB block of scratch)
BLOCK_ENTRIES = 64 * 1152
# entries of the widest layer in the chunks a forward runs at once, one per
# worker: 1024 rows of the decoder's 1152-wide layer, 512 per worker on
# two, 9.4 MB in place of the 37.7 MB of a 4096-row scoring batch. A
# 4096-row decoder forward on a 2-core x86-64 machine with one BLAS thread
# (median of 40, three rounds) took 48-51 / 53-55 / 54-63 ms with chunks of
# 256 / 512 / 1024 rows per worker, and 61-69 ms when the caller ran every
# 1024-row chunk's matmuls and only GELU ran on workers.
CHUNK_ENTRIES = 1024 * 1152


def _rows_per_block(width: int) -> int:
    return max(1, BLOCK_ENTRIES // max(1, width))


def _row_blocks(n: int, rows: int, least: int = 2) -> list[slice]:
    """The slices that split n rows, in order, into blocks of `rows` rows.
    A tail shorter than `least` rows (least <= rows) joins the block before
    it, so by default no block has a single row unless n or rows is 1. A
    one-row matmul takes NumPy's matrix-vector path, which rounds
    differently from the matrix-matrix path of a taller block, and NumPy
    sums the lone row of a Fortran-order block pairwise, the rows of a
    taller one term by term."""
    starts = list(range(0, n, rows))
    if 0 < n % rows < least and n > rows:
        starts.pop()
    return [slice(start, end) for start, end in zip(starts, starts[1:] + [n])]


def _forward_chunks(n: int, widths: list[int]) -> list[slice]:
    """The row chunks of a forward through layers of these output widths:
    CHUNK_ENTRIES // _WORKERS entries of the widest layer each (512 rows of
    the decoder on two workers), as each worker holds one chunk's buffers at
    a time, and none, the tail included, shorter than
    max(64, ceil(4096 / narrowest width)) rows.

    OpenBLAS picks its GEMM kernel by the product's shape, and the kernels
    round differently, so a chunk's rows come out with the bits of the
    whole-array product only when the chunk is tall enough for its width N.
    Measured with OpenBLAS 0.3.31 (SkylakeX kernels) against a 4096-row
    product, for M rows of inner dimension K: any M >= 2 for K <= 24; only
    M x N > 1200 for K = 64 and M x N > 868 for K = 1152; for N = 1 no M
    up to 2199 reliably, so a net with a one-wide layer runs as one
    chunk."""
    if min(widths) == 1:
        return [slice(0, n)] if n else []
    least = max(64, -(-4096 // min(widths)))
    return _row_blocks(n, max(least, CHUNK_ENTRIES // _WORKERS // max(widths)), least)


# one worker per CPU this process may run on
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _start_pool() -> None:
    global _POOL
    _POOL = ThreadPoolExecutor(_WORKERS, thread_name_prefix="llrseg-rows")


_start_pool()
if hasattr(os, "register_at_fork"):
    # a forked child has none of its parent's threads
    os.register_at_fork(after_in_child=_start_pool)


def _run_blocks(fn, blocks: list) -> None:
    """Calls fn(block) once for each block, such as the row slices of
    `_row_blocks`: inline when there is one worker or one block, else on up
    to one task per worker, each taking the next block until none is left.
    Every call has ended when this returns, and an exception raised by fn
    then reaches the caller.

    A block is any work that gives the same bits on every thread: a row
    block of an elementwise pass, or a forward's whole chunk,
    matmuls included. fn may run on a worker thread, so it may call only
    NumPy, SciPy and private helpers: perfbench's tracer wraps every public
    function of the package with one shared span stack, and must not see a
    call from a worker. fn must not call `_run_blocks`.
    """
    tasks = min(_WORKERS, len(blocks))
    if tasks <= 1:
        for block in blocks:
            fn(block)
        return
    queue = iter(blocks)  # next() on a list iterator holds the GIL throughout

    def task():
        for block in queue:
            fn(block)

    futures = [_POOL.submit(task) for _ in range(tasks)]
    wait(futures)
    for future in futures:
        future.result()


def _gelu_rows(pre: np.ndarray, out: np.ndarray, gate: np.ndarray) -> None:
    """GELU of the rows pre into out (which may be pre), in its tanh form
    0.5·x·(1 + t) with t = tanh(√(2/π)·(x + 0.044715·x³)), the cube taken
    by products; GELU's gate 1 + t is written to gate."""
    np.multiply(pre, pre, out=gate)
    gate *= pre
    gate *= _GELU_CUBIC
    gate += pre
    gate *= _SQRT_2_OVER_PI
    np.tanh(gate, out=gate)
    gate += 1.0
    np.multiply(0.5, pre, out=out)
    out *= gate


def _gelu_slope_rows(pre: np.ndarray, out: np.ndarray, gate: np.ndarray,
                     pdf: np.ndarray) -> None:
    """GELU of the rows pre into out, and its slope
    0.5·(1 + t) + 0.5·x·(1 - t²)·√(2/π)·(1 + 3·0.044715·x²) at pre over
    pre, 1 - t² taken as (1 + t)(1 - t); gate and pdf, of pre's shape, are
    scratch."""
    _gelu_rows(pre, out, gate)
    np.multiply(pre, pre, out=pdf)
    pdf *= 3.0 * _GELU_CUBIC
    pdf += 1.0
    pdf *= 0.5 * _SQRT_2_OVER_PI
    pdf *= pre
    pdf *= gate
    np.subtract(2.0, gate, out=pre)
    pdf *= pre
    gate *= 0.5
    np.add(pdf, gate, out=pre)


@dataclass(frozen=True)
class DenseLayer:
    weight: np.ndarray  # [out, in]
    bias: np.ndarray    # [out]

    def __post_init__(self):
        object.__setattr__(self, "weight", np.asarray(self.weight, dtype=np.float64))
        object.__setattr__(self, "bias", np.asarray(self.bias, dtype=np.float64))
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ValueError(f"bad dense shapes W={self.weight.shape}, b={self.bias.shape}")
        if not (np.isfinite(self.weight).all() and np.isfinite(self.bias).all()):
            raise ValueError("non-finite layer parameters")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    # As a classification head, the layer shares this surface with
    # gmm.GmmHead.

    def logits(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weight.T + self.bias

    def logits_with_grad(self, x: np.ndarray):
        def backward(d_logits):
            return d_logits @ self.weight, {"weight": d_logits.T @ x,
                                            "bias": d_logits.sum(axis=0)}

        return self.logits(x), backward

    def tensors(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    @classmethod
    def from_tensors(cls, tensors: dict) -> "DenseLayer":
        return cls(weight=tensors["weight"], bias=tensors["bias"])


@dataclass(frozen=True)
class Mlp:
    """Dense layers with GELU after every one but the last."""
    layers: tuple[DenseLayer, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ValueError("an MLP needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ValueError(f"layer dims do not chain: {a.out_dim} -> {b.in_dim}")

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def tensors(self) -> dict[str, np.ndarray]:
        """Layer i's weight and bias as `{i}.weight` and `{i}.bias`."""
        return {f"{i}.{name}": t for i, layer in enumerate(self.layers)
                for name, t in layer.tensors().items()}

    @staticmethod
    def depth(tensors: dict) -> int:
        """The layer count of tensors named as `tensors` names them: one more
        than the largest layer index i of a name `{i}.*`, and 1 when there
        is none."""
        indices = [name.split(".")[0] for name in tensors]
        return 1 + max((int(i) for i in indices if i.isdigit()), default=0)

    @classmethod
    def from_tensors(cls, tensors: dict) -> "Mlp":
        """The inverse of `tensors`, over layers 0 to `depth(tensors)` - 1.
        A missing tensor, such as a layer below the last one named, raises
        KeyError; bad shapes raise ValueError."""
        return cls([DenseLayer(tensors[f"{i}.weight"], tensors[f"{i}.bias"])
                    for i in range(cls.depth(tensors))])


def xavier_dense(in_dim: int, out_dim: int, rng: np.random.Generator) -> DenseLayer:
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    w = rng.uniform(-limit, limit, size=(out_dim, in_dim))
    return DenseLayer(weight=w, bias=np.zeros(out_dim))


def make_mlp(dims: list[int], rng: np.random.Generator) -> Mlp:
    return Mlp(layers=[xavier_dense(a, b, rng) for a, b in zip(dims, dims[1:])])


@dataclass
class Tape:
    """What mlp_backward needs of a taped forward through an MLP whose layers
    have these weight shapes: each layer's input, the first being the
    caller's x, and each hidden layer's GELU slope at its pre-activation.
    Every other input and every slope is the first rows of one of the tape's
    `buffers`, keyed (layer, "pre" or "out"), which mlp_backward overwrites
    with gradients: a tape serves one backward and is then spent."""
    layers: list[tuple[int, int]] = field(default_factory=list)
    inputs: list[np.ndarray] = field(default_factory=list)
    slopes: list[np.ndarray] = field(default_factory=list)
    buffers: dict = field(default_factory=dict)
    spent: bool = True


def _buffer_rows(old: dict, new: dict, key, rows: int, width: int) -> np.ndarray:
    """The first `rows` rows of old[key], or of a new array when old has no
    such buffer of this width and at least that many rows; stored in new."""
    buf = old.pop(key, None)
    if buf is None or buf.shape[1] != width or len(buf) < rows:
        buf = np.empty((rows, width))
    new[key] = buf
    return buf[:rows]


def mlp_forward(m: Mlp, x: np.ndarray,
                tape: bool | Tape = True) -> tuple[np.ndarray, Tape | None]:
    """Runs m on the rows of x. Returns (output, tape), the tape being what
    mlp_backward needs. Given a Tape (spent, say, by mlp_backward), the
    forward refills it and returns it: its buffers take this forward's rows
    wherever they are wide and tall enough, so the steps of a training loop
    allocate the tape once. The output is a new array either way, which no
    later forward overwrites. Each `_forward_chunks` chunk goes through every
    layer on one worker, into the tape's buffers or, with tape=False (the
    tape is then None), into chunk-sized buffers, each hidden layer's GELU
    overwriting its pre-activation, so no hidden layer is ever alive for all
    rows. The caller allocates a set of chunk buffers and GELU scratch per
    task, and each chunk borrows a set that no running chunk holds. x itself
    is never written."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != m.in_dim:
        raise ValueError(f"input shape {x.shape} does not match in_dim {m.in_dim}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite input")
    n, last = len(x), len(m.layers) - 1
    widths = [layer.out_dim for layer in m.layers]
    chunks = _forward_chunks(n, widths)
    longest = max((rows.stop - rows.start for rows in chunks), default=0)
    out = np.empty((n, m.out_dim))
    if tape:
        tape = tape if isinstance(tape, Tape) else Tape()
        tape.spent = True  # until it is filled
        old, tape.buffers = tape.buffers, {}
        tape.layers = [layer.weight.shape for layer in m.layers]
        # a hidden layer's output and its pre-activation, which the slope
        # overwrites; the net's output is its own pre-activation
        taped = [tuple(_buffer_rows(old, tape.buffers, (i, key), n, width)
                       for key in ("out", "pre")) for i, width in enumerate(widths[:-1])]
        tape.inputs, tape.slopes = [x] + [h for h, _ in taped], [pre for _, pre in taped]
    # A set per task `_run_blocks` starts, while the sets hold at most
    # CHUNK_ENTRIES of the widest layer (a tail joined to the last chunk
    # aside), so the sets do not grow with the worker count: surplus tasks
    # wait for one. GELU's scratch is a gate and, with a tape, a pdf, for a
    # block (a one-row tail joined to a block adds a row). Scratch that the
    # workers allocated themselves stayed in their own malloc arenas and
    # raised the peak RSS of scoring by ~1 MB.
    block = max((min(longest, _rows_per_block(width) + 1) * width
                 for width in widths[:-1]), default=0)
    tall = chunks[0].stop if chunks else 1
    sets = SimpleQueue()
    for _ in range(min(_WORKERS, len(chunks), max(1, CHUNK_ENTRIES // (tall * max(widths))))):
        hidden = taped if tape else [2 * (np.empty((longest, width)),) for width in widths[:-1]]
        sets.put((hidden + [(out, out)], [np.empty(block) for _ in range(1 + bool(tape))]))
    gelu = _gelu_slope_rows if tape else _gelu_rows

    def chunk(rows):
        layers, scratch = sets.get()
        try:  # a set goes back even when the chunk raises
            h = x[rows]
            for i, (layer, (act, pre)) in enumerate(zip(m.layers, layers)):
                # a chunk-sized buffer takes the chunk's rows from its first
                at = rows if tape or i == last else slice(0, len(h))
                act, pre = act[at], pre[at]
                np.matmul(h, layer.weight.T, out=pre)
                pre += layer.bias
                if i < last:
                    for r in _row_blocks(len(h), _rows_per_block(pre.shape[1])):
                        gelu(pre[r], act[r], *(a[:pre[r].size].reshape(pre[r].shape)
                                               for a in scratch))
                h = act
        finally:
            sets.put((layers, scratch))

    _run_blocks(chunk, chunks)
    if tape:
        tape.spent = False
    return out, tape or None


def mlp_backward(m: Mlp, tape: Tape, d_out: np.ndarray):
    """Exact reverse pass. Returns the parameter gradients, keyed like
    `m.tensors()`; no caller needs the gradient with respect to x, so none
    is computed. It spends the tape: each hidden layer's slope is
    overwritten by the upstream gradient times it (in row blocks on the
    workers), and the gradient with respect to a hidden layer's input by
    the buffer that held that input, so a second backward on the tape
    raises StaleTape. x and d_out are never written."""
    if tape.spent:
        raise StaleTape("tape is spent: a backward pass has used it")
    if tape.layers != [layer.weight.shape for layer in m.layers]:
        raise StaleTape("tape does not match this MLP")
    d_out = np.asarray(d_out, dtype=np.float64)
    if d_out.shape != (tape.inputs[0].shape[0], m.out_dim):
        raise StaleTape(f"upstream gradient shape {d_out.shape} mismatch")
    tape.spent = True
    grads = {}
    d = d_out
    for i in reversed(range(len(m.layers))):
        layer = m.layers[i]
        if i < len(tape.slopes):
            slope = tape.slopes[i]
            _run_blocks(lambda r: np.multiply(d[r], slope[r], out=slope[r]),
                        _row_blocks(len(slope), _rows_per_block(slope.shape[1])))
            d = slope
        grads[f"{i}.weight"] = d.T @ tape.inputs[i]
        grads[f"{i}.bias"] = d.sum(axis=0)
        if i:
            d = np.matmul(d, layer.weight, out=tape.inputs[i])
    return grads


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy of logits [N, K] against labels [N] in {0..K-1},
    and its gradient."""
    logits = np.asarray(logits, dtype=np.float64)
    rows = np.arange(len(labels))
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    log_probs = shifted - log_z[:, None]
    loss = -log_probs[rows, labels].mean()
    d_logits = np.exp(log_probs)
    d_logits[rows, labels] -= 1.0
    d_logits /= len(rows)
    return float(loss), d_logits


def sigmoid_bce_with_logits(z: np.ndarray, targets: np.ndarray):
    """Numerically stable mean binary cross entropy of raw logits z against
    targets in {0, 1}, and its gradient."""
    z = np.asarray(z, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    loss = (np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))).mean()
    return float(loss), (expit(z) - t) / z.size


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@dataclass
class OptimizerState:
    """Adam's state: learning rate, step count and per-tensor moments."""
    lr: float
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def optimizer_step(state: OptimizerState, params: dict, grads: dict):
    """One bias-corrected Adam step. Returns (state', params')."""
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NonFiniteGradient(name)
    new_params = {}
    t = state.step + 1
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            new_params[name] = p
            continue
        m = state.m.get(name, np.zeros_like(p))
        v = state.v.get(name, np.zeros_like(p))
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g**2
        state.m[name] = m
        state.v[name] = v
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        new_params[name] = p - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    state.step = t
    return state, new_params


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(fn, params: dict, h: float = 1e-5, max_coords: int = 200,
               seed: int = 0) -> float:
    """Max relative error of analytic vs central-difference gradients.

    fn(params) must return (loss, grads) with grads keyed like params.
    At most max_coords coordinates are sampled across all tensors.
    """
    _, grads = fn(params)
    rng = np.random.default_rng(seed)
    coords = []
    for name in sorted(params):
        for idx in range(params[name].size):
            coords.append((name, idx))
    if len(coords) > max_coords:
        pick = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[i] for i in sorted(pick)]
    max_err = 0.0
    for name, idx in coords:
        base = params[name].ravel()[idx]
        plus = {k: v.copy() for k, v in params.items()}
        plus[name].ravel()[idx] = base + h
        minus = {k: v.copy() for k, v in params.items()}
        minus[name].ravel()[idx] = base - h
        loss_p, _ = fn(plus)
        loss_m, _ = fn(minus)
        numeric = (loss_p - loss_m) / (2.0 * h)
        analytic = grads[name].ravel()[idx]
        denom = max(abs(numeric), abs(analytic), 1e-8)
        max_err = max(max_err, abs(numeric - analytic) / denom)
    return float(max_err)
