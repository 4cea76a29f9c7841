"""Diagonal-covariance Gaussian mixtures fitted with Sinkhorn EM.

One GmmHead serves every mixture in the package: the stage-1 class
densities and the stage-2 inlier/outlier densities. Mixture
weights are uniform per class and never stored or re-estimated, so the
log-weight is the constant log(1/C). Every density evaluation goes through
a max-subtracted log-sum-exp so finite inputs never produce -inf.

A row's class log densities depend on that row alone, so the class
densities of a batch run in blocks of DENSITY_ROWS rows on a worker per CPU
(`neuralcore._run_blocks`); each block makes the same calls on its rows
whichever worker runs it, so no result depends on the worker count. No
density involves a matmul.
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

        def head_backward(d_logdens):
            dx, dmeans, dvars = backward(d_logdens)
            return dx, {"means": dmeans, "vars": dvars}

        return logdens, head_backward

    def tensors(self) -> dict[str, np.ndarray]:
        return {"means": self.means, "vars": self.variances}

    @classmethod
    def from_tensors(cls, tensors: dict) -> "GmmHead":
        """Clamps variances to VAR_FLOOR: float32 storage rounds the floor
        itself to just below it, and Adam steps ignore it."""
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
                     resp: np.ndarray | None = None) -> None:
    """Writes the [N, K] class log densities of x's rows to logdens and, if
    resp [K, C, N] is given, each component's responsibility in its class.
    Runs in row blocks on the workers of `_run_blocks`."""
    blocks = _row_blocks(len(x), DENSITY_ROWS)
    if len(blocks) > 1 and len(x) % DENSITY_ROWS == 1:
        # a one-row tail joins the block before it: NumPy sums the one row
        # of a Fortran-order block pairwise, and the rows of a taller one
        # term by term, as it does the rows of the whole of such an x
        blocks[-2:] = [slice(blocks[-2].start, len(x))]
    log_weight = head.log_weight

    def block(rows):
        xb = x[rows]
        comp, scaled = np.empty((len(xb), head.components)), np.empty_like(xb)
        for k in range(head.classes):
            _component_log_densities(xb, head, k, comp, scaled)
            comp += log_weight
            if resp is None:
                logdens[rows, k] = _logsumexp(comp, axis=1)
                continue
            m = comp.max(axis=1, keepdims=True)
            e = np.exp(comp - m)
            s = e.sum(axis=1, keepdims=True)
            logdens[rows, k] = (m + np.log(s))[:, 0]
            resp[k][:, rows] = (e / s).T

    _run_blocks(block, blocks)


def gmm_all_log_densities(x: np.ndarray, head: GmmHead) -> np.ndarray:
    """[N, K] class log densities for a batch of feature vectors."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((x.shape[0], head.classes))
    _class_densities(x, head, out)
    return out


def gmm_all_log_densities_with_grad(x: np.ndarray, head: GmmHead):
    """Class log densities plus a closure for reverse-mode gradients.

    Returns (logdens [N, K], backward) where backward(d_logdens) yields
    (dx [N, d], dmeans [K, C, d], dvars [K, C, d]).
    """
    x = np.asarray(x, dtype=np.float64)
    logdens = np.empty((x.shape[0], head.classes))
    # component-major: one contiguous row each
    resp = np.empty((head.classes, head.components, x.shape[0]))
    _class_densities(x, head, logdens, resp)

    def backward(d_logdens: np.ndarray):
        d_comp = d_logdens.T[:, None, :] * resp
        return component_backward(head, x, d_comp.transpose(2, 0, 1))

    return logdens, backward


def component_backward(head: GmmHead, x: np.ndarray, d_comp: np.ndarray):
    """Backward of every component log density wrt x and the parameters.

    d_comp [N, K, C] is the upstream gradient of log N(x; mu_kc, var_kc).
    Returns (dx [N, d], dmeans [K, C, d], dvars [K, C, d]).
    """
    dx = np.zeros_like(x)
    dmeans = np.zeros_like(head.means)
    dvars = np.zeros_like(head.variances)
    for k in range(head.classes):
        for c in range(head.components):
            coeff = d_comp[:, k, c]  # [N]
            diff = x - head.means[k, c]
            inv = 1.0 / head.variances[k, c]
            g = diff * inv  # d logN / d mu per-coordinate, sign-flipped for x
            dx += coeff[:, None] * (-g)
            dmeans[k, c] = coeff @ g
            dvars[k, c] = coeff @ (0.5 * (diff**2 * inv**2 - inv))
    return dx, dmeans, dvars


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


def sinkhorn_assign(component_logliks: np.ndarray, epsilon: float, iters: int) -> SinkhornPlan:
    """Entropic balanced assignment from exp(logliks / epsilon).

    Alternating row/column scalings (in the log domain) toward uniform
    marginals 1/N per row and 1/C per column. iters=0 only normalizes the
    total mass.
    """
    ll = np.asarray(component_logliks, dtype=np.float64)
    if ll.ndim != 2:
        raise InvalidCost(f"expected 2-d log-likelihoods, got shape {ll.shape}")
    if not np.isfinite(ll).all():
        raise InvalidCost("non-finite log-likelihood entries")
    n, c = ll.shape
    if n < c or c < 1:
        raise InvalidCost(f"need N >= C >= 1, got N={n}, C={c}")
    if epsilon <= 0:
        raise InvalidCost(f"epsilon must be positive, got {epsilon}")

    log_k = ll / epsilon
    log_a = -np.log(n)  # row marginal
    log_b = -np.log(c)  # column marginal
    u = np.zeros(n)
    v = np.zeros(c)
    for _ in range(iters):
        u = log_a - _logsumexp(log_k + v[None, :], axis=1)
        v = log_b - _logsumexp(log_k + u[:, None], axis=0)
    log_p = log_k + u[:, None] + v[None, :]
    log_p -= _logsumexp(log_p)  # exact unit total mass
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
