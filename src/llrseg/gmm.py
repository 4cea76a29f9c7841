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

Every log density is one GEMM. With every component of every class stacked,
class-major with the broad one last, log N(x; mu, var) expands as
(x*x) @ a + x @ b + c, with a = -1/(2 var), b = mu/var and
c = -(d log 2pi + sum log var + sum mu^2/var)/2, so a block of DENSITY_ROWS
rows takes one product [x*x, x] @ [a; b] + c, inline. The class densities,
the component densities that EM and the contrast loss read, and the
responsibilities all come from that block; the backward is two GEMMs.

A row's densities must not depend on the rows that share its product:
scoring's per-scene maps and training's gathered rows hold the same pixels.
OpenBLAS picks its GEMM kernel by the product's shape, and kernels round
differently (`neuralcore._forward_chunks`), so the stacked columns are
padded with zeros to a multiple of 8, and [a; b] is C-contiguous. Measured
with OpenBLAS 0.3.31 on an AVX-512 x86-64 machine, with one BLAS thread and
unpinned alike: at output widths 8 to 64 in steps of 8 and inner dimensions
3 to 128, the first M rows of an M-row product had the bits of the same
rows of a 4096-row one for every M from 2 to 1199 at row offsets 0, 7 and
391; the unpadded widths of today's heads, 25 (5 classes x 5) and 11
(2 x 5 + broad), did not, nor did a transposed right operand (x @ W.T, up
to M = 1200 / width). A one-row product takes NumPy's matrix-vector path,
which rounds differently, so a one-row x runs as two copies of it.

One in-place log-sum-exp, `_logsumexp`, serves the class densities and
every Sinkhorn scaling: equal to scipy.special.logsumexp bit for bit on
finite input, it skips the exps that underflow to 0. Both run on
component-major arrays, [C', K, rows] and Sinkhorn's [C, N], as NumPy
reduces a short last axis several times slower than a leading one.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateCovariance, DimMismatch, InvalidCost
from .neuralcore import _row_blocks

VAR_FLOOR = 1e-6
LOG_2PI = float(np.log(2.0 * np.pi))
# rows per block of the densities. 4096 rows of 64 channels under 5 classes
# x 5 components, one BLAS thread, 2-core x86-64 (median of 40, three
# rounds): 2.3-2.4 ms in blocks of 512 rows, 2.4-2.5 in 256, 2.3-3.0 in
# 1024, 4.5-4.7 in one block; a call peaks at 1.4 MB with 512 (tracemalloc)
DENSITY_ROWS = 512


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


def _logsumexp(a: np.ndarray, axis) -> np.ndarray:
    """log(sum(exp(a))) along `axis` of a C-contiguous a, which it
    overwrites.

    As in scipy.special.logsumexp, the m entries at the maximum are taken
    out of the sum (they add log(m)) and the rest is summed relative to it,
    so for finite a the result is scipy's bit for bit. Entries below -746
    leave the sum as 0 too: NumPy rounds their exp to 0 along a path ~20x
    slower than its normal one. The input must hold no NaN or +inf; a -inf
    entry adds nothing, but a slice that is all -inf gives NaN where scipy
    gives -inf.
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
    return np.log1p(a.sum(axis=axis) / m) + np.log(m) + np.squeeze(a_max, axis=axis)


def _exp(a: np.ndarray) -> np.ndarray:
    """exp(a), with the entries below -746, whose exp rounds to 0, set to 0
    without NumPy's slow underflow path."""
    return np.exp(a, out=np.zeros_like(a), where=a > -746.0)


def _stacked(head: GmmHead) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every component of every class, class-major with the broad component
    last: their means and variances [T, d], and the class of each [T]."""
    means = head.means.reshape(-1, head.in_dim)
    variances = head.variances.reshape(-1, head.in_dim)
    classes = np.repeat(np.arange(head.classes), head.components)
    if head.broad_mean is None:
        return means, variances, classes
    return (np.vstack([means, head.broad_mean]), np.vstack([variances, head.broad_var]),
            np.append(classes, head.classes - 1))


def _log_density_blocks(x: np.ndarray, means: np.ndarray, variances: np.ndarray):
    """Yields (rows, q) for each `_row_blocks` block of DENSITY_ROWS rows of
    x: q [T, rows], component-major, holds the log density of each row
    under each Gaussian (means[t], variances[t]), no weights, from one GEMM
    [x*x, x] @ [-1/(2 var); mean/var] whose T columns are padded with zeros
    to a multiple of 8, so that a row's bits do not depend on the block's
    height (module docstring). A one-row x runs as two copies of its row."""
    t, d = means.shape
    inv_var = 1.0 / variances
    ab = np.zeros((2 * d, -(-t // 8) * 8))  # C-contiguous, as the rule needs
    ab[:d, :t] = -0.5 * inv_var.T
    ab[d:, :t] = (means * inv_var).T
    const = -0.5 * (d * LOG_2PI + np.log(variances).sum(axis=1)
                    + (means * means * inv_var).sum(axis=1))
    # a block has at most DENSITY_ROWS + 1 rows, a one-row tail joined
    xx = np.empty((max(2, min(len(x), DENSITY_ROWS + 1)), 2 * d))
    prod = np.empty((len(xx), ab.shape[1]))
    for rows in _row_blocks(len(x), DENSITY_ROWS):
        xb = x[rows] if len(x) > 1 else x[[0, 0]]
        n = len(xb)
        np.multiply(xb, xb, out=xx[:n, :d])
        xx[:n, d:] = xb
        np.matmul(xx[:n], ab, out=prod[:n])
        q = np.add(prod[:rows.stop - rows.start, :t].T, const[:, None], order="C")
        yield rows, q


def component_log_densities(x: np.ndarray, head: GmmHead, k: int) -> np.ndarray:
    """[N, C] matrix of per-component log densities for class k (no weights),
    over the C components EM fits."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((x.shape[0], head.components))
    cols = slice(k * head.components, (k + 1) * head.components)
    for rows, q in _log_density_blocks(x, *_stacked(head)[:2]):
        out[rows] = q[cols].T
    return out


def _class_densities(x: np.ndarray, head: GmmHead, logdens: np.ndarray,
                     resp: np.ndarray | None = None,
                     comp_ll: np.ndarray | None = None) -> None:
    """Writes the [N, K] class log densities of x's rows to logdens; if
    resp [T, N] is given, each component's responsibility in its class, for
    the T components of `_stacked`; if comp_ll [N, K*C] is given, the log
    densities (no weights) of the C components EM fits in each class,
    class-major."""
    kk, cc = head.classes, head.components
    means, variances, classes = _stacked(head)
    sizes = np.bincount(classes)
    log_weight = -np.log(sizes[classes])[:, None]
    for rows, q in _log_density_blocks(x, means, variances):
        if comp_ll is not None:
            comp_ll[rows] = q[:kk * cc].T
        q += log_weight
        # [C', K, rows]: the broad component is the last class's slot cc,
        # and that slot holds -inf, which adds nothing, in the other classes
        weighted = np.full((sizes.max(), kk, q.shape[1]), -np.inf)
        weighted[:cc] = q[:kk * cc].reshape(kk, cc, -1).transpose(1, 0, 2)
        weighted[cc:, -1] = q[kk * cc:]
        logdens[rows] = _logsumexp(weighted, 0).T
        if resp is not None:
            q -= logdens[rows].T[classes]
            resp[:, rows] = _exp(q)


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
    the same two GEMMs.
    """
    x = np.asarray(x, dtype=np.float64)
    logdens = np.empty((x.shape[0], head.classes))
    resp = np.empty((len(_stacked(head)[2]), x.shape[0]))
    _class_densities(x, head, logdens, resp, comp_ll)

    def backward(d_logdens: np.ndarray, d_comp: np.ndarray | None = None):
        return _component_backward(head, x, d_logdens, resp, d_comp)

    return logdens, backward


def _component_backward(head: GmmHead, x: np.ndarray, d_logdens: np.ndarray,
                        resp: np.ndarray, d_comp: np.ndarray | None) -> np.ndarray:
    """dx [N, d] of the class log densities, whose upstream gradient
    d_logdens [N, K] reaches component t of `_stacked` (the broad component
    included) as d_logdens[:, class of t] * resp[t], plus, if d_comp
    [N, K*C] is given, of the log densities of the components EM fits.

    With coeff [T, N] the upstream gradient of each component's log
    density, whose x-gradient is (mean - x) / var, dx is two GEMMs:
    coeff.T @ (mean / var) - x * (coeff.T @ (1 / var)). As in the forward,
    a one-row x runs as two copies of its row.
    """
    means, variances, classes = _stacked(head)
    coeff = resp * d_logdens.T[classes]
    if d_comp is not None:
        coeff[:d_comp.shape[1]] += d_comp.T
    inv_var = 1.0 / variances
    c = coeff.T[[0, 0]] if len(x) == 1 else coeff.T
    return (c @ (means * inv_var) - x * (c @ inv_var))[:len(x)]


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
    total mass. The scalings run on a component-major [C, N] copy of the
    costs, so each reduction runs over the long pixel axis.
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

    log_kt = np.ascontiguousarray(ll.T) / epsilon  # [C, N]
    log_a = -np.log(n)  # row marginal
    log_b = -np.log(c)  # column marginal
    u = np.zeros(n)
    v = np.zeros(c)
    for _ in range(iters):
        u = log_a - _logsumexp(log_kt + v[:, None], 0)
        v = log_b - _logsumexp(log_kt + u, 1)
    log_p = log_kt + v[:, None] + u
    log_p -= _logsumexp(log_p.copy(), (0, 1))  # exact unit total mass
    return SinkhornPlan(matrix=_exp(log_p).T)


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
