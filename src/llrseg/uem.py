"""Unknown Estimation Module: a `PixelModel` whose MLP is a 3-layer
projection and whose head has two classes (inlier, outlier), the
log-likelihood-ratio score and loss, and stage-2 training with a hard
freeze of every stage-1 parameter.

The score is the same three-term expression for both head kinds:
log p_out - log p_in - max_k F_k. Stage-2 training only ever touches the
phi tensors (projection + UEM head); the theta tensors are digest-checked
before and after. Adam trains the projection and a linear head; EM alone
fits a GMM head, through which the loss's gradient reaches the projection.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import asdict, dataclass, replace

import numpy as np

from .datamodel import (
    IGNORE,
    BinaryOutlierMap,
    FeatureMap,
    ModelBundle,
    ScoreMap,
    tensor_digest,
)
from .errors import AllIgnored, BadBundle, DimMismatch, FreezeViolation, LlrsegError
from .gmm import GmmHead, gmm_all_log_densities_with_grad, init_head, sinkhorn_assign
from .inlier import (
    DISCRIMINATIVE,
    GENERATIVE,
    UEM_NAMES,
    PixelModel,
    TrainResult,
    _bundle_model,
    _check_training_config,
    fit,
    inlier_from_bundle,
    max_inlier_logit,
    model_tensors,
    stage1_tensor_names,
    unprefixed,
)
from .neuralcore import (
    Mlp,
    make_mlp,
    mlp_backward,
    mlp_forward,
    sigmoid_bce_with_logits,
    softmax_cross_entropy,
    xavier_dense,
)

INLIER_CLASS = 0
OUTLIER_CLASS = 1


def build_uem(feature_dim: int, projection_dim: int, proj_hidden: int,
              head_kind: str, components: int, rng: np.random.Generator) -> PixelModel:
    projection = make_mlp([feature_dim, proj_hidden, proj_hidden, projection_dim], rng)
    if head_kind == DISCRIMINATIVE:
        head = xavier_dense(projection_dim, 2, rng)
    else:
        means = rng.standard_normal((2, components, projection_dim))
        head = GmmHead(means=means,
                       variances=np.ones((2, components, projection_dim)))
    return PixelModel(net=projection, head=head)


def uem_forward(u: PixelModel, f: FeatureMap) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel (log p_in, log p_out) maps, each [H, W]."""
    out = u.logits(f)
    h, w = f.height, f.width
    return out[:, INLIER_CLASS].reshape(h, w), out[:, OUTLIER_CLASS].reshape(h, w)


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def llr_score(log_p_out, log_p_in, max_logit) -> ScoreMap:
    """LLR = log p_out - log p_in - max_k F_k, exact per-pixel subtraction."""
    out, inl, mx = (np.asarray(t, dtype=np.float64) for t in (log_p_out, log_p_in, max_logit))
    if not (out.shape == inl.shape == mx.shape):
        raise DimMismatch(f"score terms differ in shape: {out.shape}, {inl.shape}, {mx.shape}")
    return ScoreMap(out - inl - mx)


def ood_score(log_p_out) -> ScoreMap:
    """Outlier-density-only baseline: identity passthrough."""
    return ScoreMap(np.asarray(log_p_out, dtype=np.float64))


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

@dataclass
class LlrConfig:
    alpha: float = 1.0
    beta: float = 0.01
    lr: float = 1e-2
    epochs: int = 8
    batch_size: int = 1024
    seed: int = 0
    projection_dim: int = 64
    proj_hidden: int = 24
    head_kind: str = GENERATIVE
    gmm_components: int = 5
    gmm_epsilon: float = 0.1
    gmm_sinkhorn_iters: int = 10
    gmm_momentum: float = 0.5
    gmm_max_pixels_per_class: int = 4096

    def __post_init__(self):
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        _check_training_config(self, ("projection_dim", "proj_hidden"))


def _loss_and_grads(head, z: np.ndarray, max_logit: np.ndarray,
                    targets: np.ndarray, cfg: LlrConfig):
    """The LLR loss of the head over projected pixels.

    z: [N, C_p] projection output; max_logit: [N] frozen inlier term;
    targets: [N] in {0, 1, IGNORE}. Returns (loss, d_z, head gradients).
    """
    valid = targets != IGNORE
    if not valid.any():
        raise AllIgnored("every pixel is ignored")

    contrast = cfg.alpha > 0 and cfg.beta > 0 and isinstance(head, GmmHead)
    if contrast:
        # the contrast loss reads the forward's component log densities
        comp_ll = np.empty((z.shape[0], head.classes * head.components))
        logits2, gmm_backward = gmm_all_log_densities_with_grad(z, head, comp_ll)
    else:
        logits2, head_backward = head.logits_with_grad(z)
    d_logits2 = np.zeros_like(logits2)

    llr = logits2[:, OUTLIER_CLASS] - logits2[:, INLIER_CLASS] - max_logit
    loss, d_llr = sigmoid_bce_with_logits(llr, targets)
    d_logits2[:, OUTLIER_CLASS] += d_llr
    d_logits2[:, INLIER_CLASS] -= d_llr

    if cfg.alpha > 0:
        ce, d_ce = softmax_cross_entropy(logits2, targets)
        loss += cfg.alpha * ce
        d_logits2 += cfg.alpha * d_ce

    if not contrast:
        d_z, head_grads = head_backward(d_logits2)
        return float(loss), d_z, head_grads
    c_loss, d_comp = _contrast_loss(comp_ll, head.components, targets, cfg)
    loss += cfg.alpha * cfg.beta * c_loss
    # one pass over the components for both gradients; EM alone fits the head
    d_z = gmm_backward(d_logits2, cfg.alpha * cfg.beta * d_comp)
    return float(loss), d_z, {}


def _contrast_loss(comp_ll: np.ndarray, components: int, targets: np.ndarray,
                   cfg: LlrConfig):
    """Cross-entropy over all 2C component log densities comp_ll [N, 2C]
    (class-major columns) against the Sinkhorn-assigned component inside
    each pixel's own class GMM.

    Returns (loss, d_comp [N, 2C]).
    """
    assigned = np.full(comp_ll.shape[0], IGNORE, dtype=np.int64)
    for k in range(2):
        rows = np.nonzero(targets == k)[0]
        if rows.size == 0:
            continue
        class_ll = comp_ll[rows, k * components:(k + 1) * components]
        if rows.size < components:
            assigned[rows] = k * components + np.argmax(class_ll, axis=1)
            continue
        plan = sinkhorn_assign(class_ll, cfg.gmm_epsilon, cfg.gmm_sinkhorn_iters)
        assigned[rows] = k * components + np.argmax(plan.matrix, axis=1)
    return softmax_cross_entropy(comp_ll, assigned)


def llr_loss(u: PixelModel, inlier_model: PixelModel, f: FeatureMap,
             outliers: BinaryOutlierMap, cfg: LlrConfig):
    """LLR training loss and gradients over the phi tensors only, keyed like
    `u.tensors(UEM_NAMES)`: the projection's, and a linear head's (EM fits a
    GMM head, which gets none). The inlier model only supplies the max_k F_k
    term: no theta tensor ever appears in the returned gradient record."""
    if (f.height, f.width) != (outliers.height, outliers.width):
        raise DimMismatch("feature map and outlier map dims differ")
    max_logit = max_inlier_logit(inlier_model, f).ravel()
    z, tape = mlp_forward(u.net, f.pixels())
    loss, d_z, head_grads = _loss_and_grads(u.head, z, max_logit,
                                            outliers.labels.ravel(), cfg)
    proj_grads, _ = mlp_backward(u.net, tape, d_z)
    return loss, model_tensors(proj_grads, head_grads, UEM_NAMES)


# ---------------------------------------------------------------------------
# stage-2 training
# ---------------------------------------------------------------------------

def train_uem(stage1: ModelBundle, dataset, cfg: LlrConfig) -> TrainResult:
    """Train the UEM on (FeatureMap, BinaryOutlierMap) pairs.

    `fit` runs Adam on the LLR loss for the projection and a linear head. A
    GMM head is fitted by Sinkhorn EM alone, once per epoch; the loss's
    gradient passes through it to the projection. The result's bundle embeds
    every stage-1 tensor byte-identically; a digest mismatch at entry or exit
    raises FreezeViolation.
    """
    inlier_model = inlier_from_bundle(stage1)
    if stage1.manifest["stage"] != "inlier":
        raise LlrsegError("train_uem needs a stage-1 (inlier) bundle")
    if not dataset:
        raise LlrsegError("empty dataset")

    initial_digests = {name: tensor_digest(stage1.tensors[name])
                       for name in stage1_tensor_names(stage1)}
    declared = stage1.manifest.get("tensors")
    if declared is not None:
        for name, digest in initial_digests.items():
            if declared[name]["digest"] != digest:
                raise FreezeViolation(f"stage-1 tensor {name!r} digest mismatch")

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x2]))
    feature_dim = dataset[0][0].channels
    u = build_uem(feature_dim, cfg.projection_dim, cfg.proj_hidden,
                  cfg.head_kind, cfg.gmm_components, rng)

    # frozen inlier term and pixel buffers, precomputed once
    xs, ys, maxes = [], [], []
    for f, omap in dataset:
        if (f.height, f.width) != (omap.height, omap.width):
            raise DimMismatch("feature map and outlier map dims differ")
        keep = omap.labels.ravel() != IGNORE
        xs.append(f.pixels()[keep])
        ys.append(omap.labels.ravel()[keep].astype(np.int64))
        maxes.append(max_inlier_logit(inlier_model, f).ravel()[keep])
    x = np.concatenate(xs, axis=0)
    y = np.concatenate(ys)
    max_logit = np.concatenate(maxes)
    if x.shape[0] == 0:
        raise AllIgnored("every pixel in the dataset is ignored")

    if cfg.head_kind == GENERATIVE:
        z0, _ = mlp_forward(u.net, x, tape=False)
        u = replace(u, head=init_head([z0[y == k] for k in range(2)],
                                      cfg.gmm_components, rng))

    u, loss_history, counters = fit(
        u, x, y, lambda head, z, idx: _loss_and_grads(head, z, max_logit[idx], y[idx], cfg),
        rng, cfg)

    # the bundle embeds the stage-1 tensors as they are now
    bundle = bundle_from_uem(u, stage1, cfg, initial_digests)
    verify_freeze(bundle)
    return TrainResult(bundle=bundle, loss_history=loss_history,
                       em_counters=counters, warnings=[])


# ---------------------------------------------------------------------------
# bundle conversion
# ---------------------------------------------------------------------------

def bundle_from_uem(u: PixelModel, stage1: ModelBundle, cfg: LlrConfig,
                    frozen_digests: dict) -> ModelBundle:
    """UEM `u` with the tensors of `stage1`."""
    tensors = {**{name: stage1.tensors[name] for name in stage1_tensor_names(stage1)},
               **u.tensors(UEM_NAMES)}
    manifest = {
        "stage": "uem",
        "heldout_miou": stage1.manifest.get("heldout_miou"),
        "config": asdict(cfg),
        "frozen_digests": frozen_digests,
    }
    return ModelBundle(manifest=manifest, tensors=tensors)


def uem_from_bundle(bundle: ModelBundle) -> PixelModel:
    """The UEM of a stage-2 bundle: a 3-layer projection and a 2-class head.
    A malformed bundle raises BadBundle, or DimMismatch where its tensors do
    not fit each other or the head is not 2-class."""
    if bundle.manifest.get("stage") != "uem":
        raise LlrsegError("not a stage-2 bundle")
    layers = Mlp.depth(unprefixed(UEM_NAMES[0], bundle.tensors))
    if layers != 3:
        raise BadBundle(f"stage-2 model: the projection has {layers} layers, not 3")
    u = _bundle_model(bundle, UEM_NAMES, "stage-2")
    if u.head.out_dim != 2:
        raise DimMismatch(f"stage-2 head has {u.head.out_dim} classes, not 2")
    return u


def verify_freeze(stage2: ModelBundle) -> bool:
    """Check that the manifest's frozen digests name exactly the bundle's
    stage-1 tensors and that every one still matches."""
    if stage2.manifest.get("stage") != "uem":
        raise LlrsegError("not a stage-2 bundle")
    frozen = stage2.manifest.get("frozen_digests")
    if not isinstance(frozen, Mapping):
        raise FreezeViolation("stage-2 manifest has no frozen_digests")
    names = set(stage1_tensor_names(stage2))
    if set(frozen) != names:
        raise FreezeViolation(
            f"frozen_digests do not name the stage-1 tensors: unlisted "
            f"{sorted(names - set(frozen))}, absent {sorted(set(frozen) - names)}")
    for name, digest in frozen.items():
        if tensor_digest(stage2.tensors[name]) != digest:
            raise FreezeViolation(f"frozen tensor {name!r} digest mismatch")
    return True
