"""Built-in verification battery: gradient checks, density and metric
oracle equivalences, Sinkhorn marginals, the LLR algebraic identity, and
stitching equivalence. Shared by the `selfcheck` CLI command and tests."""
from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from .anomalymix import inject_outliers, random_bank, random_spec, synth_scene
from .datamodel import BinaryOutlierMap, FeatureMap
from .gmm import GmmHead, gmm_all_log_densities, sinkhorn_assign
from .inlier import (
    DISCRIMINATIVE,
    GENERATIVE,
    InlierConfig,
    PixelModel,
    inlier_from_bundle,
    max_inlier_logit,
    train_inlier,
)
from .inference import score_image, tile_plan
from .metrics import ScoredPixels, auroc, average_precision, fpr_at_tpr
from .neuralcore import Mlp, grad_check, make_mlp, mlp_forward, mlp_backward, \
    sigmoid_bce_with_logits, xavier_dense
from .uem import (
    UEM_NAMES,
    LlrConfig,
    build_uem,
    llr_loss,
    llr_score,
    ood_score,
    train_uem,
    uem_forward,
    uem_from_bundle,
)


def naive_gmm_log_density(x, means, variances, weights) -> float:
    """Extended-precision direct summation oracle (no log-sum-exp)."""
    total = np.longdouble(0.0)
    d = len(x)
    for mu, var, w in zip(means, variances, weights):
        q = np.longdouble(0.0)
        logdet = np.longdouble(0.0)
        for i in range(d):
            q += np.longdouble((x[i] - mu[i]) ** 2) / np.longdouble(var[i])
            logdet += np.log(np.longdouble(var[i]))
        logn = -0.5 * (d * np.log(np.longdouble(2 * np.pi)) + logdet + q)
        total += np.longdouble(w) * np.exp(logn)
    return float(np.log(total))


def check_gmm_density_oracle(instances: int = 1000, seed: int = 0,
                             tol: float = 1e-10) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        d = int(rng.integers(1, 9))
        c = int(rng.integers(1, 5))
        means = rng.normal(0, 2, (1, c, d))
        variances = rng.uniform(0.1, 3.0, (1, c, d))
        head = GmmHead(means=means, variances=variances)
        x = rng.normal(0, 2, d)
        got = gmm_all_log_densities(x[None], head)[0, 0]
        want = naive_gmm_log_density(x, means[0], variances[0],
                                     np.full(c, 1.0 / c))
        worst = max(worst, abs(got - want))
    return worst < tol, f"max |lse - naive| = {worst:.3e}"


def check_sinkhorn_marginals(seed: int = 0, tol: float = 1e-4) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        ll = rng.normal(0, 1, (64, 5))
        plan = sinkhorn_assign(ll, epsilon=0.5, iters=50)
        worst = max(worst, plan.marginal_residual())
    uniform = sinkhorn_assign(np.zeros((8, 4)), epsilon=0.5, iters=1)
    exact = np.allclose(uniform.matrix, 1.0 / 32, atol=1e-15)
    return worst < tol and exact, f"max residual = {worst:.3e}, uniform exact = {exact}"


def check_llr_identity(n: int = 1000, seed: int = 0) -> tuple[bool, str]:
    """Both derivations of the LLR, each against `llr_score` bit for bit.
    Generative: the inlier evidence is p_in times the best class density,
    so LLR = log p_out - (log p_in + max_k log p(x|k)). Discriminative: the
    logits are log-softmax posteriors plus a normaliser Z, added back:
    LLR = log p_out - log p_in - (max_k log p(k|x) + Z). Inputs are dyadic
    (a 2^-6 grid, |v| <= 2^9), so every operation is exact. Z is the logits'
    log-sum-exp rounded to that grid: softmax ignores any per-pixel shift, so
    it proves the same cancellation. A derivation with Z dropped must differ.
    """
    rng = np.random.default_rng(seed)
    out, inl, logits = (rng.integers(-2**15, 2**15, shape) / 64.0
                        for shape in ((n, 1), (n, 1), (n, 1, 5)))
    best = logits.max(axis=-1)
    want = llr_score(out, inl, best).scores
    z = np.round(logsumexp(logits, axis=-1) * 64.0) / 64.0
    log_posteriors = logits - z[..., None]
    same = (np.array_equal(out - (inl + best), want)
            and np.array_equal(out - inl - (log_posteriors.max(axis=-1) + z), want))
    caught = not np.array_equal(out - inl - log_posteriors.max(axis=-1), want)
    return same and caught, (f"both derivations bitwise equal on {n} inputs: {same}; "
                             f"normaliser-dropped derivation caught: {caught}")


def _tiny_setup(uem_kind: str, seed: int):
    rng = np.random.default_rng(seed)
    h = w = 6
    c_e = 5
    f = FeatureMap(rng.normal(0, 1, (c_e, h, w)))
    y = rng.integers(0, 2, (h, w)).astype(np.uint8)
    y.ravel()[:3] = 255
    omap = BinaryOutlierMap(y)
    decoder = make_mlp([c_e, 8, 6], rng)
    head = xavier_dense(6, 3, rng)
    inlier_model = PixelModel(net=decoder, head=head)
    u = build_uem(c_e, 6, 5, uem_kind, 2, rng)
    cfg = LlrConfig(alpha=1.0, beta=0.01, head_kind=uem_kind,
                    gmm_components=2, projection_dim=6, proj_hidden=5)
    return u, inlier_model, f, omap, cfg


def llr_grad_error(uem_kind: str, seed: int = 0, h: float = 1e-5,
                   max_coords: int = 200) -> float:
    """Worst relative error of the LLR loss gradient over the tensors it
    trains: a GMM head, which EM alone fits, is held fixed and not sampled."""
    u, inlier_model, f, omap, cfg = _tiny_setup(uem_kind, seed)
    fixed = u.tensors(UEM_NAMES)
    trained = {k: v.copy() for k, v in fixed.items()
               if uem_kind == DISCRIMINATIVE or k.startswith(f"{UEM_NAMES[0]}.")}

    def fn(params):
        return llr_loss(PixelModel.from_tensors({**fixed, **params}, UEM_NAMES),
                        inlier_model, f, omap, cfg)

    return grad_check(fn, trained, h=h, max_coords=max_coords, seed=seed)


def check_llr_gradients(seed: int = 0, tol: float = 1e-4) -> tuple[bool, str]:
    errs = [llr_grad_error(kind, seed) for kind in (DISCRIMINATIVE, GENERATIVE)]
    worst = max(errs)
    return worst < tol, f"max relative error = {worst:.3e}"


def check_mlp_bce_gradient(seed: int = 0, tol: float = 1e-4) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    m = make_mlp([4, 6, 1], rng)
    x = rng.normal(0, 1, (12, 4))
    t = rng.integers(0, 2, 12)

    def fn(params):
        net = Mlp.from_tensors(params)
        out, tape = mlp_forward(net, x)
        loss, dz = sigmoid_bce_with_logits(out[:, 0], t)
        grads = mlp_backward(net, tape, dz[:, None])
        return loss, grads

    err = grad_check(fn, {k: v.copy() for k, v in m.tensors().items()}, seed=seed)
    return err < tol, f"max relative error = {err:.3e}"


def brute_force_ap(scores, labels) -> float:
    """O(n^2) threshold-sweep oracle."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    p = labels.sum()
    ap = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores), reverse=True):
        sel = scores >= t
        tp = int((labels[sel] == 1).sum())
        precision = tp / sel.sum()
        recall = tp / p
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def brute_force_auroc(scores, labels) -> float:
    """Pairwise counting oracle."""
    pos = np.asarray(scores)[np.asarray(labels) == 1]
    neg = np.asarray(scores)[np.asarray(labels) == 0]
    correct = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (correct + 0.5 * ties) / (len(pos) * len(neg))


def brute_force_fpr_at_tpr(scores, labels, tpr: float = 0.95) -> float:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    p = labels.sum()
    n = len(labels) - p
    for t in sorted(set(scores), reverse=True):
        sel = scores >= t
        if (labels[sel] == 1).sum() / p >= tpr:
            return (labels[sel] == 0).sum() / n
    return 1.0


def check_metric_oracles(seeds: int = 20, n: int = 300,
                         tol: float = 1e-9) -> tuple[bool, str]:
    worst = 0.0
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        scores = np.round(rng.normal(0, 1, n), 2)  # rounded to force ties
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            continue
        sp = ScoredPixels(scores=scores, labels=labels)
        worst = max(worst,
                    abs(average_precision(sp) - brute_force_ap(scores, labels)),
                    abs(auroc(sp) - brute_force_auroc(scores, labels)),
                    abs(fpr_at_tpr(sp) - brute_force_fpr_at_tpr(scores, labels)))
    return worst < tol, f"max |fast - oracle| = {worst:.3e}"


def check_stitching(seed: int = 0, tol: float = 1e-12) -> tuple[bool, str]:
    """`score_image` in window-sized batches against whole-frame terms
    computed by the models directly, not through `llrseg.inference`, for
    every scorer. Windows 1 and (1, 3) on a 16x16 frame are the batches that
    would hold a single row; 8 and 16 are square tiles and the whole frame."""
    rng = np.random.default_rng(seed)
    spec = random_spec(3, 6, 16, 16, rng)
    feats, labels = synth_scene(spec, rng)
    dataset = [(feats, labels)]
    cfg = InlierConfig(head_kind=DISCRIMINATIVE, decoder_hidden=16,
                       decoder_dim=8, epochs=1, seed=seed)
    stage1 = train_inlier(dataset, 3, cfg).bundle
    bank = random_bank(spec, 2, rng)
    mixed, omap, _ = inject_outliers(feats, labels, bank, rng)
    ucfg = LlrConfig(epochs=1, seed=seed, projection_dim=8, proj_hidden=6)
    stage2 = train_uem(stage1, [(mixed, omap)], ucfg).bundle
    log_in, log_out = uem_forward(uem_from_bundle(stage2), mixed)
    max_logit = max_inlier_logit(inlier_from_bundle(stage2), mixed)
    whole = {"llr": llr_score(log_out, log_in, max_logit).scores,
             "id": -max_logit,
             "ood": ood_score(log_out).scores}
    worst = 0.0
    for window in (1, (1, 3), 8, 16):
        plan = tile_plan(16, 16, window, window)
        for scorer, reference in whole.items():
            batched = score_image(stage2, mixed, plan, scorer).scores
            worst = max(worst, float(np.abs(batched - reference).max()))
    return worst < tol, f"max |batched - whole| = {worst:.3e}"


ALL_CHECKS = [
    ("gmm-density-oracle", lambda: check_gmm_density_oracle(instances=200)),
    ("sinkhorn-marginals", check_sinkhorn_marginals),
    ("llr-algebraic-identity", check_llr_identity),
    ("mlp-bce-gradient", check_mlp_bce_gradient),
    ("llr-loss-gradients", check_llr_gradients),
    ("metric-oracles", check_metric_oracles),
    ("stitching-equivalence", check_stitching),
]


def run_selfcheck() -> bool:
    all_ok = True
    for name, fn in ALL_CHECKS:
        ok, detail = fn()
        all_ok &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
