"""Diagonal-covariance Gaussian mixtures fitted with Sinkhorn EM.

One GmmHead serves every mixture in the package: the stage-1 class
densities and the stage-2 inlier/outlier densities. Mixture
weights are uniform per class and never stored or re-estimated, so the
log-weight is the constant log(1/C). Every density evaluation goes through
a max-subtracted log-sum-exp so finite inputs never produce -inf.

A row's class log densities depend on that row alone, so the class
densities of a batch run in blocks of DENSITY_ROWS rows on a worker per CPU
(`neuralcore._row_blocks` and `_run_blocks`, the first with its one-row-tail
rule); each block makes the same calls on its rows whichever worker runs it,
so no result depends on the worker count. No density involves a matmul.

Sinkhorn works on a component-major [C, N] copy of its costs, so each of its
reductions runs over the long pixel axis, yet it returns the bits of the
pixel-major [N, C] formula. NumPy's summation order follows the layout, so
each sum is taken in the order the [N, C] array's sum used (numpy 2.x): per
pixel, fewer than 8 components are summed in order (a [C, N] axis-0 sum) and
8 or more in NumPy's 8-way unrolled loop (an axis-1 sum of an [N, C] copy);
per component, the N pixels are summed in order (a cumulative sum), except
for C = 1, whose [N, 1] column NumPy sums pairwise. The plan's total mass is
normalised on the [N, C] array itself.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCovariance, DimMismatch, InvalidCost
from .neuralcore import _row_blocks, _run_blocks

VAR_FLOOR = 1e-6
LOG_2PI = float(np.log(2.0 * np.pi))
# rows per block of the class densities: a block of a 64-wide x and its
# scratch take 1 MB, inside L2. Blocks of 256 rows ran slower on two workers
# than on one: each NumPy call was too short to pay for handing over the GIL.
DENSITY_ROWS = 1024


@dataclass(frozen=True)
class GmmHead:
    """Per-class mixtures: means and diagonal variances, uniform weights.

    Shares its head surface (`logits`, `logits_with_grad`, `tensors`,
    `from_tensors`, `in_dim`, `out_dim`) with the linear head,
    `neuralcore.DenseLayer`.
    """

    means: np.ndarray      # [K, C, d]
    variances: np.ndarray  # [K, C, d]

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        variances = np.asarray(self.variances, dtype=np.float64)
        if means.ndim != 3 or means.shape != variances.shape:
            raise DimMismatch(f"bad GMM shapes {means.shape} vs {variances.shape}")
        if np.any(variances < VAR_FLOOR):
            raise DegenerateCovariance(
                f"variance below floor {VAR_FLOOR}: min={variances.min()}"
            )
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)

    @property
    def classes(self) -> int:
        return self.means.shape[0]

    @property
    def components(self) -> int:
        return self.means.shape[1]

    @property
    def in_dim(self) -> int:
        return self.means.shape[2]

    out_dim = classes

    @property
    def log_weight(self) -> float:
        """The uniform mixture log-weight log(1/C) of every component."""
        return np.log(1.0 / self.components)

    def logits(self, x: np.ndarray) -> np.ndarray:
        return gmm_all_log_densities(x, self)

    def logits_with_grad(self, x: np.ndarray):
        logdens, backward = gmm_all_log_densities_with_grad(x, self)

        # EM alone fits the mixture: no head tensor gets a gradient
        return logdens, lambda d_logdens: (backward(d_logdens), {})

    def tensors(self) -> dict[str, np.ndarray]:
        return {"means": self.means, "vars": self.variances}

    @classmethod
    def from_tensors(cls, tensors: dict) -> "GmmHead":
        """Clamps variances to VAR_FLOOR: float32 storage rounds the floor
        itself to just below it."""
        return cls(means=tensors["means"],
                   variances=np.maximum(tensors["vars"], VAR_FLOOR))


def _logsumexp(a: np.ndarray, axis=None) -> np.ndarray:
    """log(sum(exp(a))) along `axis`, bit for bit what scipy.special.logsumexp
    returns for real input, without its array-API overhead.

    The m entries equal to the maximum are taken out of the sum (they add
    log(m)) and the rest is summed relative to it; a slice that is all -inf
    gives -inf.
    """
    axis = tuple(range(a.ndim)) if axis is None else axis  # as scipy sums
    a_max = np.max(a, axis=axis, keepdims=True)
    at_max = a == a_max
    m = np.sum(at_max, axis=axis, keepdims=True, dtype=a.dtype)
    shift = np.where(np.isfinite(a_max), a_max, 0.0)  # -inf - -inf is NaN
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = np.sum(np.exp(np.where(at_max, -np.inf, a) - shift),
                   axis=axis, keepdims=True) / m
        out = np.log1p(s) + np.log(m) + a_max
    return np.squeeze(out, axis=axis)


def _component_log_densities(x: np.ndarray, head: GmmHead, k: int,
                             out: np.ndarray, scaled: np.ndarray) -> np.ndarray:
    """Writes the [N, C] per-component log densities of x's rows for class k
    (no weights) to out; scaled, shaped and laid out like x, is scratch."""
    d = x.shape[1]
    for c in range(head.components):
        var = head.variances[k, c]
        np.subtract(x, head.means[k, c], out=scaled)
        np.square(scaled, out=scaled)
        scaled /= var
        out[:, c] = -0.5 * (d * LOG_2PI + np.log(var).sum() + scaled.sum(axis=1))
    return out


def component_log_densities(x: np.ndarray, head: GmmHead, k: int) -> np.ndarray:
    """[N, C] matrix of per-component log densities for class k (no weights)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((x.shape[0], head.components))
    return _component_log_densities(x, head, k, out, np.empty_like(x))


def _class_densities(x: np.ndarray, head: GmmHead, logdens: np.ndarray,
                     resp: np.ndarray | None = None,
                     comp_ll: np.ndarray | None = None) -> None:
    """Writes the [N, K] class log densities of x's rows to logdens; if
    resp [K, C, N] is given, each component's responsibility in its class;
    if comp_ll [N, K*C] is given, the component log densities (no weights),
    class-major. Runs in the row blocks of `_row_blocks` on the workers of
    `_run_blocks`."""
    log_weight = head.log_weight
    cc = head.components

    def block(rows):
        xb = x[rows]
        comp, scaled = np.empty((len(xb), cc)), np.empty_like(xb)
        for k in range(head.classes):
            _component_log_densities(xb, head, k, comp, scaled)
            if comp_ll is not None:
                # copied before the weight: adding it and taking it off
                # again would change the bits
                comp_ll[rows, k * cc:(k + 1) * cc] = comp
            comp += log_weight
            if resp is None:
                logdens[rows, k] = _logsumexp(comp, axis=1)
                continue
            m = comp.max(axis=1, keepdims=True)
            e = np.exp(comp - m)
            s = e.sum(axis=1, keepdims=True)
            logdens[rows, k] = (m + np.log(s))[:, 0]
            resp[k][:, rows] = (e / s).T

    _run_blocks(block, _row_blocks(len(x), DENSITY_ROWS))


def gmm_all_log_densities(x: np.ndarray, head: GmmHead) -> np.ndarray:
    """[N, K] class log densities for a batch of feature vectors."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((x.shape[0], head.classes))
    _class_densities(x, head, out)
    return out


def gmm_all_log_densities_with_grad(x: np.ndarray, head: GmmHead,
                                    comp_ll: np.ndarray | None = None):
    """Class log densities plus a closure for reverse-mode gradients.

    Returns (logdens [N, K], backward). If comp_ll [N, K*C] is given, it
    receives every component's log density log N(x; mu_kc, var_kc),
    class-major. backward(d_logdens, d_comp=None) yields dx [N, d]; d_comp
    [N, K*C] is an upstream gradient of those component densities, taken in
    the same pass over the components.
    """
    x = np.asarray(x, dtype=np.float64)
    logdens = np.empty((x.shape[0], head.classes))
    # component-major: one contiguous row each
    resp = np.empty((head.classes, head.components, x.shape[0]))
    _class_densities(x, head, logdens, resp, comp_ll)

    def backward(d_logdens: np.ndarray, d_comp: np.ndarray | None = None):
        return _component_backward(head, x, d_logdens, resp, d_comp)

    return logdens, backward


def _component_backward(head: GmmHead, x: np.ndarray, d_logdens: np.ndarray,
                        resp: np.ndarray, d_comp: np.ndarray | None) -> np.ndarray:
    """dx [N, d] of the class log densities, whose upstream gradient
    d_logdens [N, K] reaches component c of class k as d_logdens[:, k] *
    resp[k, c], plus, if d_comp [N, K*C] is given, of the component log
    densities.

    Each upstream gradient has its own accumulator, summed at the end, so dx
    has the bits of one pass per gradient: c * -g = -(c * g) and
    dx + -t = dx - t exactly.
    """
    cc = head.components
    dx = np.zeros_like(x)
    dx_comp = None if d_comp is None else np.zeros_like(x)
    g, t = np.empty_like(x), np.empty_like(x)
    for k in range(head.classes):
        for c in range(cc):
            # d logN / d mu per coordinate, the negated gradient wrt x
            np.subtract(x, head.means[k, c], out=g)
            g *= 1.0 / head.variances[k, c]
            np.multiply((d_logdens[:, k] * resp[k, c])[:, None], g, out=t)
            dx -= t
            if d_comp is not None:
                np.multiply(d_comp[:, k * cc + c, None], g, out=t)
                dx_comp -= t
    if d_comp is not None:
        dx += dx_comp
    return dx


# ---------------------------------------------------------------------------
# Sinkhorn assignment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SinkhornPlan:
    """Balanced assignment of N features to C components, total mass 1."""

    matrix: np.ndarray  # [N, C], non-negative, sums to 1

    def marginal_residual(self) -> float:
        """L1 distance of row/column sums from the (1/N, 1/C) marginals."""
        n, c = self.matrix.shape
        row = np.abs(self.matrix.sum(axis=1) - 1.0 / n).sum()
        col = np.abs(self.matrix.sum(axis=0) - 1.0 / c).sum()
        return float(row + col)


def _finite_logsumexp(a: np.ndarray, axis, sum_) -> np.ndarray:
    """`_logsumexp(a, axis)` of a finite, C-contiguous a, which it
    overwrites; `sum_(e)` sums the shifted exponentials e along `axis` in
    the order that call would have used.

    For finite a, a - max == 0 is the same test as a == max. The entries at
    the maximum leave the sum as 0, as there; so do those below -746, whose
    exp NumPy rounds to 0 along a path ~20x slower than its normal one.
    """
    a_max = a.max(axis=axis, keepdims=True)
    a -= a_max
    at_max = a == 0
    m = at_max.sum(axis=axis, dtype=a.dtype)
    flat = a.reshape(-1)
    live = np.flatnonzero((flat > -746.0) ^ at_max.reshape(-1))
    e = np.exp(flat[live])
    flat.fill(0.0)
    flat[live] = e
    return np.log1p(sum_(a) / m) + np.log(m) + np.squeeze(a_max, axis=axis)


def sinkhorn_assign(component_logliks: np.ndarray, epsilon: float, iters: int) -> SinkhornPlan:
    """Entropic balanced assignment from exp(logliks / epsilon).

    Alternating row/column scalings (in the log domain) toward uniform
    marginals 1/N per row and 1/C per column. iters=0 only normalizes the
    total mass. The scalings run on a component-major copy of the costs,
    summed in the pixel-major orders (module docstring).
    """
    ll = np.asarray(component_logliks, dtype=np.float64)
    if ll.ndim != 2:
        raise InvalidCost(f"expected 2-d log-likelihoods, got shape {ll.shape}")
    if not np.isfinite(ll).all():
        raise InvalidCost("non-finite log-likelihood entries")
    n, c = ll.shape
    if n < c or c < 1:
        raise InvalidCost(f"need N >= C >= 1, got N={n}, C={c}")
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise InvalidCost(f"epsilon must be finite and positive, got {epsilon}")
    if iters < 0:
        raise InvalidCost(f"iters must be >= 0, got {iters}")

    if c < 8:
        pixel_sum = lambda e: e.sum(axis=0)
    else:
        pixel_sum = lambda e: np.ascontiguousarray(e.T).sum(axis=1)
    if c > 1:
        component_sum = lambda e: np.cumsum(e, axis=1)[:, -1]
    else:
        component_sum = lambda e: e.sum(axis=1)

    log_k = ll / epsilon
    log_kt = np.ascontiguousarray(log_k.T)  # [C, N]
    log_a = -np.log(n)  # row marginal
    log_b = -np.log(c)  # column marginal
    u = np.zeros(n)
    v = np.zeros(c)
    for _ in range(iters):
        u = log_a - _finite_logsumexp(log_kt + v[:, None], 0, pixel_sum)
        v = log_b - _finite_logsumexp(log_kt + u, 1, component_sum)
    log_p = log_k + u[:, None] + v[None, :]
    # exact unit total mass; the flattened sum's order depends on the layout
    log_p -= _finite_logsumexp(log_p.copy(), (0, 1), lambda e: e.sum(axis=(0, 1)))
    return SinkhornPlan(matrix=np.exp(log_p))


def em_update(
    head: GmmHead,
    k: int,
    features: np.ndarray,
    plan: SinkhornPlan,
    momentum: float,
    counters: dict,
) -> GmmHead:
    """One M-step for class k: plan-weighted moments blended by momentum.

    Components with total plan mass below 1e-12 are left unchanged and
    counted under counters["empty_components"]. Weights stay uniform.
    """
    x = np.asarray(features, dtype=np.float64)
    if plan.matrix.shape != (x.shape[0], head.components):
        raise ValueError(
            f"plan shape {plan.matrix.shape} vs ({x.shape[0]}, {head.components})"
        )
    means = head.means.copy()
    variances = head.variances.copy()
    for c in range(head.components):
        mass = plan.matrix[:, c].sum()
        if mass < 1e-12:
            counters["empty_components"] = counters.get("empty_components", 0) + 1
            continue
        w = plan.matrix[:, c] / mass
        mu_new = w @ x
        var_new = w @ (x - mu_new) ** 2
        means[k, c] = momentum * means[k, c] + (1.0 - momentum) * mu_new
        variances[k, c] = momentum * variances[k, c] + (1.0 - momentum) * var_new
    variances = np.maximum(variances, VAR_FLOOR)
    return GmmHead(means=means, variances=variances)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def init_head(features_by_class, components: int, rng: np.random.Generator) -> GmmHead:
    """Seeded init, class by class: component means are distinct sampled
    features, variances the class's diagonal sample variance. A class with
    fewer than `components` features gets standard-normal means and unit
    variances."""
    kk = len(features_by_class)
    d = np.asarray(features_by_class[0]).shape[1]
    means = np.empty((kk, components, d))
    variances = np.empty((kk, components, d))
    for k, feats in enumerate(features_by_class):
        feats = np.asarray(feats, dtype=np.float64)
        if feats.shape[0] < components:
            means[k] = rng.standard_normal((components, d))
            variances[k] = 1.0
            continue
        idx = rng.choice(feats.shape[0], size=components, replace=False)
        means[k] = feats[idx]
        variances[k] = np.maximum(feats.var(axis=0), VAR_FLOOR)
    return GmmHead(means=means, variances=variances)


def refresh(head: GmmHead, features_by_class, rng: np.random.Generator,
            epsilon: float, sinkhorn_iters: int, momentum: float,
            max_pixels: int, counters: dict) -> GmmHead:
    """One Sinkhorn-EM round per class, in class order.

    A class with fewer features than components is skipped and counted
    under counters["absent_classes"]; one with more than `max_pixels` is
    first subsampled without replacement.
    """
    for k, feats in enumerate(features_by_class):
        feats = np.asarray(feats, dtype=np.float64)
        if feats.shape[0] < head.components:
            counters["absent_classes"] = counters.get("absent_classes", 0) + 1
            continue
        if feats.shape[0] > max_pixels:
            idx = rng.choice(feats.shape[0], max_pixels, replace=False)
            feats = feats[idx]
        comp_ll = component_log_densities(feats, head, k)
        plan = sinkhorn_assign(comp_ll, epsilon, sinkhorn_iters)
        head = em_update(head, k, feats, plan, momentum, counters)
    return head
