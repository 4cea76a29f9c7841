"""Unknown Estimation Module: projection MLP + two-class head, the
log-likelihood-ratio score and loss, and stage-2 training with a hard
freeze of every stage-1 parameter.

The score is the same three-term expression for both head kinds:
log p_out - log p_in - max_k F_k. Stage-2 training only ever touches the
phi tensors (projection + UEM head); the theta tensors are digest-checked
before and after.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict

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
from .gmm import (
    GmmHead,
    component_backward,
    component_log_densities,
    init_head,
    refresh,
    sinkhorn_assign,
)
from .inlier import (
    DISCRIMINATIVE,
    GENERATIVE,
    HEAD_TYPES,
    InlierModel,
    check_head,
    inlier_from_bundle,
    max_inlier_logit,
    prefixed,
    stage1_tensor_names,
    unprefixed,
)
from .neuralcore import (
    DenseLayer,
    Mlp,
    make_mlp,
    make_optimizer,
    mlp_backward,
    mlp_forward,
    mlp_grads_dict,
    mlp_params,
    optimizer_step,
    set_mlp_params,
    sigmoid_bce_with_logits,
    softmax_cross_entropy,
    xavier_dense,
)

INLIER_CLASS = 0
OUTLIER_CLASS = 1


@dataclass
class UemModel:
    projection: Mlp   # exactly 3 layers, C_e -> C_p
    head: object      # DenseLayer (C_p -> 2) or GmmHead with 2 classes
    head_kind: str

    def __post_init__(self):
        if len(self.projection.layers) != 3:
            raise ValueError("the projection MLP must have exactly 3 layers")
        check_head(self.head, self.head_kind, self.projection.out_dim, 2, "UEM")

    @property
    def feature_dim(self) -> int:
        return self.projection.in_dim

    @property
    def projection_dim(self) -> int:
        return self.projection.out_dim

    def parameter_count(self) -> int:
        return (self.projection.parameter_count()
                + sum(t.size for t in self.head.tensors().values()))


def build_uem(feature_dim: int, projection_dim: int, proj_hidden: int,
              head_kind: str, components: int, rng: np.random.Generator) -> UemModel:
    projection = make_mlp([feature_dim, proj_hidden, proj_hidden, projection_dim], rng)
    if head_kind == DISCRIMINATIVE:
        head = xavier_dense(projection_dim, 2, "identity", rng)
    else:
        means = rng.standard_normal((2, components, projection_dim))
        head = GmmHead(means=means,
                       variances=np.ones((2, components, projection_dim)))
    return UemModel(projection=projection, head=head, head_kind=head_kind)


def uem_forward(u: UemModel, f: FeatureMap) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel (log p_in, log p_out) maps, each [H, W]."""
    if f.channels != u.feature_dim:
        raise DimMismatch(
            f"feature map has {f.channels} channels, UEM expects {u.feature_dim}")
    z, _ = mlp_forward(u.projection, f.pixels())
    out = u.head.logits(z)
    h, w = f.height, f.width
    return out[:, INLIER_CLASS].reshape(h, w), out[:, OUTLIER_CLASS].reshape(h, w)


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def _three_term_llr(log_p_out, log_p_in, max_logit) -> np.ndarray:
    if not (log_p_out.shape == log_p_in.shape == max_logit.shape):
        raise DimMismatch(
            f"score terms differ in shape: {log_p_out.shape}, "
            f"{log_p_in.shape}, {max_logit.shape}")
    return log_p_out - log_p_in - max_logit


def llr_score(log_p_out, log_p_in, max_logit) -> ScoreMap:
    """LLR = log p_out - log p_in - max_k F_k, exact per-pixel subtraction."""
    return ScoreMap(_three_term_llr(np.asarray(log_p_out, dtype=np.float64),
                                    np.asarray(log_p_in, dtype=np.float64),
                                    np.asarray(max_logit, dtype=np.float64)))


def llr_score_generative(log_p_out, log_p_in, max_log_density) -> ScoreMap:
    """Generative derivation: the inlier evidence is the product of the UEM
    inlier density and the best class density, so its log splits into the
    same three-term subtraction."""
    return llr_score(log_p_out, log_p_in, max_log_density)


def llr_score_discriminative(log_p_out, log_p_in, max_logit) -> ScoreMap:
    """Discriminative derivation: the softmax normalizer shifts every class
    logit equally, so it drops from the max and the same three-term
    subtraction remains."""
    return llr_score(log_p_out, log_p_in, max_logit)


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
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")


def uem_params(u: UemModel) -> dict[str, np.ndarray]:
    return {**mlp_params(u.projection, "uem.proj"),
            **prefixed("uem.head", u.head.tensors())}


def set_uem_params(u: UemModel, params: dict[str, np.ndarray]) -> None:
    set_mlp_params(u.projection, "uem.proj", params)
    u.head = type(u.head).from_tensors(unprefixed("uem.head", params))


def _loss_and_grads(u: UemModel, x: np.ndarray, max_logit: np.ndarray,
                    targets: np.ndarray, cfg: LlrConfig):
    """Core of the LLR loss over flattened pixels.

    x: [N, C_e] raw features; max_logit: [N] frozen inlier term;
    targets: [N] in {0, 1, IGNORE}. Returns (loss, grads over phi).
    """
    valid = targets != IGNORE
    if not valid.any():
        raise AllIgnored("every pixel is ignored")

    z, tape = mlp_forward(u.projection, x)
    logits2, head_backward = u.head.logits_with_grad(z)
    d_logits2 = np.zeros_like(logits2)

    llr = logits2[:, OUTLIER_CLASS] - logits2[:, INLIER_CLASS] - max_logit
    loss, d_llr = sigmoid_bce_with_logits(llr, targets)
    d_logits2[:, OUTLIER_CLASS] += d_llr
    d_logits2[:, INLIER_CLASS] -= d_llr

    if cfg.alpha > 0:
        ce, d_ce = softmax_cross_entropy(logits2, targets)
        loss += cfg.alpha * ce
        d_logits2 += cfg.alpha * d_ce

    d_z, head_grads = head_backward(d_logits2)
    if cfg.alpha > 0 and cfg.beta > 0 and u.head_kind == GENERATIVE:
        c_loss, d_comp = _contrast_loss(u.head, z, targets, cfg)
        loss += cfg.alpha * cfg.beta * c_loss
        d_comp = (cfg.alpha * cfg.beta * d_comp).reshape(z.shape[0], 2, -1)
        dz_c, dmeans_c, dvars_c = component_backward(u.head, z, d_comp)
        d_z += dz_c
        head_grads["means"] = head_grads["means"] + dmeans_c
        head_grads["vars"] = head_grads["vars"] + dvars_c

    proj_grads, _ = mlp_backward(u.projection, tape, d_z)
    grads = prefixed("uem.head", head_grads)
    grads.update(mlp_grads_dict(proj_grads, "uem.proj"))
    return float(loss), grads


def _contrast_loss(head: GmmHead, z: np.ndarray, targets: np.ndarray,
                   cfg: LlrConfig):
    """Cross-entropy over all 2C component logits against the
    Sinkhorn-assigned component inside each pixel's own class GMM.

    Returns (loss, d_comp [N, 2C]) with class-major columns.
    """
    comp = head.components
    comp_ll = np.concatenate([component_log_densities(z, head, k)
                              for k in range(head.classes)], axis=1)
    assigned = np.full(z.shape[0], IGNORE, dtype=np.int64)
    for k in range(2):
        rows = np.nonzero(targets == k)[0]
        if rows.size == 0:
            continue
        class_ll = comp_ll[rows, k * comp:(k + 1) * comp]
        if rows.size < comp:
            assigned[rows] = k * comp + np.argmax(class_ll, axis=1)
            continue
        plan = sinkhorn_assign(class_ll, cfg.gmm_epsilon, cfg.gmm_sinkhorn_iters)
        assigned[rows] = k * comp + np.argmax(plan.matrix, axis=1)
    return softmax_cross_entropy(comp_ll, assigned)


def llr_loss(u: UemModel, inlier_model: InlierModel, f: FeatureMap,
             outliers: BinaryOutlierMap, cfg: LlrConfig):
    """LLR training loss and gradients over the phi tensors only.

    The inlier model must be flagged frozen; no theta tensor ever appears
    in the returned gradient record.
    """
    if not inlier_model.frozen:
        raise FreezeViolation("stage-1 model must be frozen before UEM training")
    if (f.height, f.width) != (outliers.height, outliers.width):
        raise DimMismatch("feature map and outlier map dims differ")
    max_logit = max_inlier_logit(inlier_model, f).ravel()
    return _loss_and_grads(u, f.pixels(), max_logit, outliers.labels.ravel(), cfg)


# ---------------------------------------------------------------------------
# stage-2 training
# ---------------------------------------------------------------------------

def train_uem(stage1: ModelBundle, dataset, cfg: LlrConfig) -> ModelBundle:
    """Train the UEM on (FeatureMap, BinaryOutlierMap) pairs.

    Adam on the LLR loss for every phi tensor; a GMM head is also refreshed
    by one Sinkhorn-EM round per epoch. The returned stage-2 bundle embeds
    every stage-1 tensor byte-identically; a digest mismatch at entry or
    exit raises FreezeViolation.
    """
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

    inlier_model = inlier_from_bundle(stage1)
    inlier_model.frozen = True

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

    em = cfg.head_kind == GENERATIVE
    if em:
        z0, _ = mlp_forward(u.projection, x)
        u.head = init_head([z0[y == k] for k in range(2)], cfg.gmm_components, rng)

    params = uem_params(u)
    opt = make_optimizer("adam", cfg.lr)
    counters: dict = {}
    for _ in range(cfg.epochs):
        order = rng.permutation(x.shape[0])
        for start in range(0, x.shape[0], cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            _, grads = _loss_and_grads(u, x[idx], max_logit[idx], y[idx], cfg)
            opt, params = optimizer_step(opt, params, grads)
            set_uem_params(u, params)
        if em:
            z, _ = mlp_forward(u.projection, x)
            u.head = refresh(u.head, [z[y == k] for k in range(2)], rng,
                             cfg.gmm_epsilon, cfg.gmm_sinkhorn_iters,
                             cfg.gmm_momentum, cfg.gmm_max_pixels_per_class,
                             counters)
            params = uem_params(u)

    final_digests = {name: tensor_digest(stage1.tensors[name])
                     for name in stage1_tensor_names(stage1)}
    if final_digests != initial_digests:
        raise FreezeViolation("stage-1 tensors changed during UEM training")

    return bundle_from_uem(u, stage1, cfg, initial_digests)


# ---------------------------------------------------------------------------
# bundle conversion
# ---------------------------------------------------------------------------

def bundle_from_uem(u: UemModel, stage1: ModelBundle, cfg: LlrConfig,
                    frozen_digests: dict) -> ModelBundle:
    tensors = {**{name: stage1.tensors[name] for name in stage1_tensor_names(stage1)},
               **uem_params(u)}
    s1 = stage1.manifest
    manifest = {
        "stage": "uem",
        "head_kind": cfg.head_kind,
        "inlier_head_kind": s1["head_kind"],
        "num_classes": s1["num_classes"],
        "feature_dim": s1["feature_dim"],
        "decoder_dim": s1["decoder_dim"],
        "projection_dim": u.projection_dim,
        "decoder_layers": s1["decoder_layers"],
        "decoder_activations": s1["decoder_activations"],
        "proj_activations": [l.activation for l in u.projection.layers],
        "heldout_miou": s1.get("heldout_miou"),
        "config": asdict(cfg),
        "frozen_digests": frozen_digests,
    }
    return ModelBundle(manifest=manifest, tensors=tensors)


def uem_from_bundle(bundle: ModelBundle) -> UemModel:
    man = bundle.manifest
    if man.get("stage") != "uem":
        raise LlrsegError("not a stage-2 bundle")
    try:
        layers = [
            DenseLayer(weight=bundle.tensors[f"uem.proj.{i}.weight"],
                       bias=bundle.tensors[f"uem.proj.{i}.bias"],
                       activation=activation)
            for i, activation in enumerate(man["proj_activations"])
        ]
        head = HEAD_TYPES[man["head_kind"]].from_tensors(
            unprefixed("uem.head", bundle.tensors))
    except KeyError as exc:
        raise BadBundle(f"stage-2 model: bundle entry {exc.args[0]!r} "
                        "missing or unknown") from None
    return UemModel(projection=Mlp(layers=layers), head=head,
                    head_kind=man["head_kind"])


def verify_freeze(stage2: ModelBundle) -> bool:
    """Check that every frozen stage-1 tensor digest still matches."""
    frozen = stage2.manifest.get("frozen_digests", {})
    for name, digest in frozen.items():
        if tensor_digest(stage2.tensors[name]) != digest:
            raise FreezeViolation(f"frozen tensor {name!r} digest mismatch")
    return True
