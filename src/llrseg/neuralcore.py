"""Minimal dense layers with analytic gradients, losses, and Adam.

Everything runs in float64. Forward passes are pure; a tape produced by
mlp_forward carries the per-layer inputs, pre-activations and GELU gates
needed for the exact reverse pass, which evaluates no erf. A forward-only
pass (`tape=False`) keeps no tape: it activates each layer's pre-activation
in place, so one hidden buffer is alive at a time.

GELU and its derivative run in row blocks of BLOCK_ENTRIES entries, so each
pass over a block stays in L2 cache, and the blocks run on a worker per CPU
in the process's affinity set (NumPy's ufuncs and scipy's erf release the
GIL). Each block makes the same calls on the same rows whichever worker
runs it, so no result depends on the worker count. Matmuls always run on
every row at once, on the calling thread: OpenBLAS picks its kernel by row
count, and kernels round small products differently, so a blocked matmul
would change result bits.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf, expit

from .datamodel import IGNORE
from .errors import AllIgnored, NonFiniteGradient, StaleTape

_SQRT2 = float(np.sqrt(2.0))
_INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))
ACTIVATIONS = ("identity", "relu", "gelu")
# entries per GELU block, 64 rows of the 1152-wide decoder layer: a block of
# pre-activations, gates and outputs takes 1.8 MB, inside a 2 MB L2 cache
BLOCK_ENTRIES = 64 * 1152


def _rows_per_block(width: int) -> int:
    return max(1, BLOCK_ENTRIES // max(1, width))


def _row_blocks(n: int, rows: int) -> list[slice]:
    return [slice(start, start + rows) for start in range(0, n, rows)]


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
    """Calls fn(block) once for each block: inline when there is one worker
    or one block, else on up to one task per worker, each taking the next
    block until none is left. Every call has ended when this returns, and
    an exception raised by fn then reaches the caller.

    fn may run on a worker thread, so it may call only NumPy, SciPy and
    private helpers: perfbench's tracer wraps every public function of the
    package with one shared span stack, and must not see a call from a
    worker. fn must not call `_run_blocks`.
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
    """GELU of the rows pre into out (which may be pre), with GELU's gate
    1 + erf(pre/√2) written to gate."""
    np.divide(pre, _SQRT2, out=gate)
    erf(gate, out=gate)
    gate += 1.0
    np.multiply(0.5, pre, out=out)
    out *= gate


def _activate(name: str, pre: np.ndarray,
              tape: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Returns (activation, gate) of the rows of pre. GELU's gate
    1 + erf(pre/√2) is what its reverse pass needs; the other activations
    return None for it. Without a tape the activation overwrites pre and
    GELU's gate is scratch, one block per row block, returned as None."""
    if name == "identity":
        return pre, None
    if name == "relu":
        return np.maximum(pre, 0.0, out=None if tape else pre), None
    if name == "gelu":
        blocks = _row_blocks(len(pre), _rows_per_block(pre.shape[1]))
        if tape:
            out, gate = np.empty_like(pre), np.empty_like(pre)
            _run_blocks(lambda r: _gelu_rows(pre[r], out[r], gate[r]), blocks)
            return out, gate
        _run_blocks(lambda r: _gelu_rows(pre[r], pre[r], np.empty_like(pre[r])), blocks)
        return pre, None
    raise ValueError(f"unknown activation {name!r}")


def _gelu_grad_rows(pre: np.ndarray, gate: np.ndarray, d: np.ndarray,
                    out: np.ndarray) -> None:
    """d * (cdf + pre*pdf) into out, cdf = gate/2, pdf = exp(-pre²/2)/√(2π)."""
    np.square(pre, out=out)
    out *= -0.5
    np.exp(out, out=out)
    out *= _INV_SQRT_2PI
    out *= pre
    out += 0.5 * gate
    out *= d


def _d_pre(name: str, pre: np.ndarray, gate: np.ndarray | None,
           d: np.ndarray) -> np.ndarray:
    """The upstream gradient d times the activation's derivative at pre."""
    if name == "identity":
        return d
    if name == "relu":
        return d * (pre > 0.0)
    if name == "gelu":
        d_pre = np.empty_like(pre)
        _run_blocks(lambda r: _gelu_grad_rows(pre[r], gate[r], d[r], d_pre[r]),
                    _row_blocks(len(pre), _rows_per_block(pre.shape[1])))
        return d_pre
    raise ValueError(f"unknown activation {name!r}")


@dataclass(frozen=True)
class DenseLayer:
    weight: np.ndarray  # [out, in]
    bias: np.ndarray    # [out]
    activation: str = "identity"

    def __post_init__(self):
        object.__setattr__(self, "weight", np.asarray(self.weight, dtype=np.float64))
        object.__setattr__(self, "bias", np.asarray(self.bias, dtype=np.float64))
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise ValueError(f"bad dense shapes W={self.weight.shape}, b={self.bias.shape}")
        if not (np.isfinite(self.weight).all() and np.isfinite(self.bias).all()):
            raise ValueError("non-finite layer parameters")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    # As a classification head (identity activation), the layer shares
    # this surface with gmm.GmmHead.

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

    @property
    def activations(self) -> list[str]:
        return [layer.activation for layer in self.layers]

    def tensors(self) -> dict[str, np.ndarray]:
        """Layer i's weight and bias as `{i}.weight` and `{i}.bias`."""
        return {f"{i}.{name}": t for i, layer in enumerate(self.layers)
                for name, t in layer.tensors().items()}

    @classmethod
    def from_tensors(cls, tensors: dict, activations: list) -> "Mlp":
        """The inverse of `tensors`, activations[i] for layer i. A missing
        tensor raises KeyError; bad shapes or activations raise ValueError."""
        return cls([DenseLayer(tensors[f"{i}.weight"], tensors[f"{i}.bias"], activation)
                    for i, activation in enumerate(activations)])


def xavier_dense(in_dim: int, out_dim: int, activation: str,
                 rng: np.random.Generator) -> DenseLayer:
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    w = rng.uniform(-limit, limit, size=(out_dim, in_dim))
    return DenseLayer(weight=w, bias=np.zeros(out_dim), activation=activation)


def make_mlp(dims: list[int], rng: np.random.Generator,
             hidden_activation: str = "gelu",
             final_activation: str = "identity") -> Mlp:
    layers = []
    for i, (a, b) in enumerate(zip(dims, dims[1:])):
        act = final_activation if i == len(dims) - 2 else hidden_activation
        layers.append(xavier_dense(a, b, act, rng))
    return Mlp(layers=layers)


@dataclass
class Tape:
    inputs: list[np.ndarray]       # per-layer input
    pre_activations: list[np.ndarray]
    gates: list[np.ndarray | None]  # per-layer GELU gate, None for other layers


def mlp_forward(m: Mlp, x: np.ndarray, tape: bool = True) -> tuple[np.ndarray, Tape | None]:
    """Runs m on the rows of x. Returns (output, tape), the tape being what
    mlp_backward needs; with tape=False it is None, and each layer's
    activation overwrites its pre-activation. x itself is never written."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != m.in_dim:
        raise ValueError(f"input shape {x.shape} does not match in_dim {m.in_dim}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite input")
    inputs, pres, gates = [], [], []
    h = x
    for layer in m.layers:
        pre = h @ layer.weight.T
        pre += layer.bias
        if tape:
            inputs.append(h)
            pres.append(pre)
        h, gate = _activate(layer.activation, pre, tape)
        gates.append(gate)
    if not tape:
        return h, None
    return h, Tape(inputs=inputs, pre_activations=pres, gates=gates)


def mlp_backward(m: Mlp, tape: Tape, d_out: np.ndarray):
    """Exact reverse pass. Returns (grads, d_x) with grads keyed like
    `m.tensors()`."""
    if ([(p.shape[1], x.shape[1]) for p, x in zip(tape.pre_activations, tape.inputs)]
            != [l.weight.shape for l in m.layers]
            or [g is not None for g in tape.gates]
            != [l.activation == "gelu" for l in m.layers]):
        raise StaleTape("tape does not match this MLP")
    d_out = np.asarray(d_out, dtype=np.float64)
    if d_out.shape != (tape.inputs[0].shape[0], m.out_dim):
        raise StaleTape(f"upstream gradient shape {d_out.shape} mismatch")
    grads = {}
    d = d_out
    for i in reversed(range(len(m.layers))):
        layer = m.layers[i]
        d_pre = _d_pre(layer.activation, tape.pre_activations[i], tape.gates[i], d)
        grads[f"{i}.weight"] = d_pre.T @ tape.inputs[i]
        grads[f"{i}.bias"] = d_pre.sum(axis=0)
        d = d_pre @ layer.weight
    return grads, d


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray,
                          ignore: int = IGNORE):
    """Mean CE over non-ignored rows; gradient is zero on ignored rows."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    valid = labels != ignore
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise AllIgnored("every row is ignored")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    log_probs = shifted - log_z[:, None]
    rows = np.nonzero(valid)[0]
    picked = log_probs[rows, labels[rows].astype(int)]
    loss = -picked.mean()
    d_logits = np.zeros_like(logits)
    softmax = np.exp(log_probs[rows])
    softmax[np.arange(rows.size), labels[rows].astype(int)] -= 1.0
    d_logits[rows] = softmax / n_valid
    return float(loss), d_logits


def sigmoid_bce_with_logits(z: np.ndarray, targets: np.ndarray,
                            ignore: int = IGNORE):
    """Numerically stable binary cross entropy on raw logits.

    targets holds {0, 1, ignore}; ignored entries contribute nothing to
    loss or gradient.
    """
    z = np.asarray(z, dtype=np.float64)
    targets = np.asarray(targets)
    valid = targets != ignore
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise AllIgnored("every entry is ignored")
    zv = z[valid]
    tv = targets[valid].astype(np.float64)
    loss = (np.maximum(zv, 0.0) - zv * tv + np.log1p(np.exp(-np.abs(zv)))).mean()
    dz = np.zeros_like(z)
    sig = expit(zv)
    dz[valid] = (sig - tv) / n_valid
    return float(loss), dz


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@dataclass
class OptimizerState:
    """Adam's state: hyperparameters, step count and per-tensor moments."""
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * g**2
        state.m[name] = m
        state.v[name] = v
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        new_params[name] = p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
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
