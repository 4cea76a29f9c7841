"""Diagonal-covariance Gaussian mixtures fitted with Sinkhorn EM.

One GmmHead serves every mixture in the package: the stage-1 class
densities and the stage-2 inlier/outlier densities. Mixture
weights are uniform per class and never stored or re-estimated, so the
log-weight is the constant log(1/C). The stage-2 outlier class also holds a
broad component with the moments of every training row, which EM never
fits, so it is a mixture of C + 1 components weighing 1/(C+1) each:
log p_out = logaddexp(log(C/(C+1)) + log p_mixture, log(1/(C+1)) +
log N(z; m_b, v_b)). Far from the trained outlier components, the broad one
keeps an unseen outlier from ranking below the inliers.

One in-place log-sum-exp, `_logsumexp`, serves the class densities and
every Sinkhorn scaling: equal to scipy.special.logsumexp bit for bit on
finite input, it skips the exps that underflow to 0.

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

from dataclasses import dataclass, replace

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
    The last class may hold one more Gaussian, the broad component, that EM
    never fits (`with_broad` sets it to the moments of a set of rows); its
    C + 1 components then each weigh 1/(C+1).

    Shares its head surface (`logits`, `logits_with_grad`, `tensors`,
    `from_tensors`, `in_dim`, `out_dim`) with the linear head,
    `neuralcore.DenseLayer`.
    """

    means: np.ndarray      # [K, C, d]
    variances: np.ndarray  # [K, C, d]
    broad_mean: np.ndarray | None = None  # [d]
    broad_var: np.ndarray | None = None   # [d]

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        variances = np.asarray(self.variances, dtype=np.float64)
        if means.ndim != 3 or means.shape != variances.shape:
            raise DimMismatch(f"bad GMM shapes {means.shape} vs {variances.shape}")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        if (self.broad_mean is None) != (self.broad_var is None):
            raise DimMismatch("a broad component needs both a mean and a variance")
        if self.broad_mean is not None:
            for name in ("broad_mean", "broad_var"):
                value = np.asarray(getattr(self, name), dtype=np.float64)
                if value.shape != (self.in_dim,):
                    raise DimMismatch(f"{name} of shape {value.shape}, "
                                      f"the GMM has {self.in_dim} channels")
                object.__setattr__(self, name, value)
            variances = np.append(variances, self.broad_var)
        if np.any(variances < VAR_FLOOR):
            raise DegenerateCovariance(
                f"variance below floor {VAR_FLOOR}: min={variances.min()}"
            )

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
        """The uniform mixture log-weight log(1/C) of every component of a
        class without the broad component."""
        return np.log(1.0 / self.components)

    def class_components(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The means and variances of every component of class k, each
        [C, d], or [C + 1, d] with the broad component last."""
        if self.broad_mean is None or k != self.classes - 1:
            return self.means[k], self.variances[k]
        return (np.vstack([self.means[k], self.broad_mean]),
                np.vstack([self.variances[k], self.broad_var]))

    def with_broad(self, z: np.ndarray) -> "GmmHead":
        """This head with its last class's broad component set to the mean
        and diagonal variance (floored at VAR_FLOOR) of the rows z."""
        return replace(self, broad_mean=z.mean(axis=0),
                       broad_var=np.maximum(z.var(axis=0), VAR_FLOOR))

    def logits(self, x: np.ndarray) -> np.ndarray:
        return gmm_all_log_densities(x, self)

    def logits_with_grad(self, x: np.ndarray):
        logdens, backward = gmm_all_log_densities_with_grad(x, self)

        # EM alone fits the mixture: no head tensor gets a gradient
        return logdens, lambda d_logdens: (backward(d_logdens), {})

    def tensors(self) -> dict[str, np.ndarray]:
        broad = ({} if self.broad_mean is None else
                 {"broad_mean": self.broad_mean, "broad_var": self.broad_var})
        return {"means": self.means, "vars": self.variances, **broad}

    @classmethod
    def from_tensors(cls, tensors: dict) -> "GmmHead":
        """Clamps variances to VAR_FLOOR: float32 storage rounds the floor
        itself to just below it. A broad component needs both its tensors;
        one alone raises KeyError for the other."""
        broad = {}
        if "broad_mean" in tensors or "broad_var" in tensors:
            broad = {"broad_mean": tensors["broad_mean"],
                     "broad_var": np.maximum(tensors["broad_var"], VAR_FLOOR)}
        return cls(means=tensors["means"],
                   variances=np.maximum(tensors["vars"], VAR_FLOOR), **broad)


def _logsumexp(a: np.ndarray, axis, sum_) -> np.ndarray:
    """log(sum(exp(a))) along `axis` of a C-contiguous a, which it
    overwrites; `sum_(e)` sums the shifted exponentials e along `axis`.

    As in scipy.special.logsumexp, the m entries at the maximum are taken
    out of the sum (they add log(m)) and the rest is summed relative to it,
    so for finite a and a `sum_` in the order scipy's sum takes, the result
    is scipy's bit for bit. Entries below -746 leave the sum as 0 too: NumPy
    rounds their exp to 0 along a path ~20x slower than its normal one. The
    input must hold no NaN or +inf; a -inf entry adds nothing, but a slice
    that is all -inf gives NaN where scipy gives -inf.
    """
    a_max = a.max(axis=axis, keepdims=True)
    a -= a_max
    at_max = a == 0  # for finite a, the same test as a == a_max
    m = at_max.sum(axis=axis, dtype=a.dtype)
    flat = a.reshape(-1)
    live = np.flatnonzero((flat > -746.0) ^ at_max.reshape(-1))
    e = np.exp(flat[live])
    flat.fill(0.0)
    flat[live] = e
    return np.log1p(sum_(a) / m) + np.log(m) + np.squeeze(a_max, axis=axis)


def _component_log_densities(x: np.ndarray, means: np.ndarray, variances: np.ndarray,
                             out: np.ndarray, scaled: np.ndarray) -> np.ndarray:
    """Writes the log density of x's rows under each Gaussian (means[c],
    variances[c]), no weights, to out[:, c]; scaled, shaped and laid out
    like x, is scratch."""
    d = x.shape[1]
    for c, (mean, var) in enumerate(zip(means, variances)):
        np.subtract(x, mean, out=scaled)
        np.square(scaled, out=scaled)
        scaled /= var
        out[:, c] = -0.5 * (d * LOG_2PI + np.log(var).sum() + scaled.sum(axis=1))
    return out


def component_log_densities(x: np.ndarray, head: GmmHead, k: int) -> np.ndarray:
    """[N, C] matrix of per-component log densities for class k (no weights),
    over the C components EM fits."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((x.shape[0], head.components))
    return _component_log_densities(x, head.means[k], head.variances[k], out,
                                    np.empty_like(x))


def _class_densities(x: np.ndarray, head: GmmHead, logdens: np.ndarray,
                     resp: np.ndarray | None = None,
                     comp_ll: np.ndarray | None = None) -> None:
    """Writes the [N, K] class log densities of x's rows to logdens; if
    resp [K, C', N] is given (C' = C + 1 with a broad component), each
    component's responsibility in its class; if comp_ll [N, K*C] is given,
    the log densities (no weights) of the C components EM fits in each
    class, class-major. Runs in the row blocks of `_row_blocks` on the
    workers of `_run_blocks`."""
    cc = head.components
    # taken here: a block runs on a worker, which calls no public method
    classes = [head.class_components(k) for k in range(head.classes)]

    def block(rows):
        xb = x[rows]
        scaled = np.empty_like(xb)
        for k, (means, variances) in enumerate(classes):
            comp = _component_log_densities(xb, means, variances,
                                            np.empty((len(xb), len(means))), scaled)
            if comp_ll is not None:
                # copied before the weight: adding it and taking it off
                # again would change the bits
                comp_ll[rows, k * cc:(k + 1) * cc] = comp[:, :cc]
            comp += np.log(1.0 / len(means))
            if resp is None:
                logdens[rows, k] = _logsumexp(comp, 1, lambda e: e.sum(axis=1))
                continue
            m = comp.max(axis=1, keepdims=True)
            e = np.exp(comp - m)
            s = e.sum(axis=1, keepdims=True)
            logdens[rows, k] = (m + np.log(s))[:, 0]
            resp[k, :len(means), rows] = (e / s).T

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
    resp = np.empty((head.classes, head.components + (head.broad_mean is not None),
                     x.shape[0]))
    _class_densities(x, head, logdens, resp, comp_ll)

    def backward(d_logdens: np.ndarray, d_comp: np.ndarray | None = None):
        return _component_backward(head, x, d_logdens, resp, d_comp)

    return logdens, backward


def _component_backward(head: GmmHead, x: np.ndarray, d_logdens: np.ndarray,
                        resp: np.ndarray, d_comp: np.ndarray | None) -> np.ndarray:
    """dx [N, d] of the class log densities, whose upstream gradient
    d_logdens [N, K] reaches component c of class k (the broad component
    included) as d_logdens[:, k] * resp[k, c], plus, if d_comp [N, K*C] is
    given, of the log densities of the components EM fits.

    Each upstream gradient has its own accumulator, summed at the end, so dx
    has the bits of one pass per gradient: c * -g = -(c * g) and
    dx + -t = dx - t exactly.
    """
    cc = head.components
    dx = np.zeros_like(x)
    dx_comp = None if d_comp is None else np.zeros_like(x)
    g, t = np.empty_like(x), np.empty_like(x)
    for k in range(head.classes):
        for c, (mean, var) in enumerate(zip(*head.class_components(k))):
            # d logN / d mu per coordinate, the negated gradient wrt x
            np.subtract(x, mean, out=g)
            g *= 1.0 / var
            np.multiply((d_logdens[:, k] * resp[k, c])[:, None], g, out=t)
            dx -= t
            if d_comp is not None and c < cc:
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
        u = log_a - _logsumexp(log_kt + v[:, None], 0, pixel_sum)
        v = log_b - _logsumexp(log_kt + u, 1, component_sum)
    log_p = log_k + u[:, None] + v[None, :]
    # exact unit total mass; the flattened sum's order depends on the layout
    log_p -= _logsumexp(log_p.copy(), (0, 1), lambda e: e.sum(axis=(0, 1)))
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
    counted under counters["empty_components"]. Weights stay uniform, and
    a broad component is kept as it is.
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
    return replace(head, means=means, variances=variances)


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
