"""Stage-1 inlier segmentor: pixel-wise decoder + classification head.

The decoder is a 2-layer MLP applied per pixel; the head is either a
linear layer (discriminative) or one diagonal GMM per class (generative,
class log densities used directly as logits). Both heads expose the same
surface (logits, logits with a backward, tensors to and from a bundle), so
every stage handles them alike.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict, field

import numpy as np

from .datamodel import (
    FeatureMap,
    LabelMap,
    ModelBundle,
    ScoreMap,
    validate_pair,
)
from .errors import BadBundle, DimMismatch, LlrsegError
from .gmm import GmmHead, init_head, refresh
from .metrics import miou
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
    softmax_cross_entropy,
    xavier_dense,
)

GENERATIVE = "generative"
DISCRIMINATIVE = "discriminative"

HEAD_TYPES = {DISCRIMINATIVE: DenseLayer, GENERATIVE: GmmHead}
# bundle name prefix of the stage-1 head tensors
STAGE1_HEAD_PREFIX = {DISCRIMINATIVE: "head", GENERATIVE: "gmm"}


def check_head(head, head_kind: str, in_dim: int, out_dim: int, what: str) -> None:
    """A head of `head_kind` must be its kind's type and map in_dim -> out_dim."""
    if head_kind not in HEAD_TYPES:
        raise ValueError(f"unknown head kind {head_kind!r}")
    if not isinstance(head, HEAD_TYPES[head_kind]):
        raise TypeError(
            f"{head_kind} {what} head must be a {HEAD_TYPES[head_kind].__name__}")
    if (head.in_dim, head.out_dim) != (in_dim, out_dim):
        raise DimMismatch(f"{what} head maps {head.in_dim} -> {head.out_dim}, "
                          f"expected {in_dim} -> {out_dim}")


def prefixed(prefix: str, tensors: dict) -> dict:
    return {f"{prefix}.{name}": t for name, t in tensors.items()}


def unprefixed(prefix: str, tensors: dict) -> dict:
    p = prefix + "."
    return {name[len(p):]: t for name, t in tensors.items() if name.startswith(p)}


@dataclass
class InlierModel:
    decoder: Mlp                      # pixel-wise C_e -> C_d
    head: object                      # DenseLayer (disc) or GmmHead (gen)
    num_classes: int
    head_kind: str
    frozen: bool = False

    def __post_init__(self):
        check_head(self.head, self.head_kind, self.decoder.out_dim,
                   self.num_classes, "inlier")

    @property
    def feature_dim(self) -> int:
        return self.decoder.in_dim

    @property
    def decoder_dim(self) -> int:
        return self.decoder.out_dim

    def parameter_count(self) -> int:
        return (self.decoder.parameter_count()
                + sum(t.size for t in self.head.tensors().values()))


def decode_pixels(m: InlierModel, f: FeatureMap) -> np.ndarray:
    if f.channels != m.feature_dim:
        raise DimMismatch(
            f"feature map has {f.channels} channels, model expects {m.feature_dim}")
    decoded, _ = mlp_forward(m.decoder, f.pixels())
    return decoded


def inlier_logits(m: InlierModel, f: FeatureMap) -> np.ndarray:
    """Per-pixel class logits with shape [K, H, W]."""
    logits = m.head.logits(decode_pixels(m, f))
    return logits.T.reshape(m.num_classes, f.height, f.width)


def inlier_predict(m: InlierModel, f: FeatureMap) -> LabelMap:
    """Argmax class per pixel; ties break toward the smaller index."""
    logits = inlier_logits(m, f)
    return LabelMap(np.argmax(logits, axis=0).astype(np.uint8))


def max_inlier_logit(m: InlierModel, f: FeatureMap) -> np.ndarray:
    """Per-pixel max_k logit, shape [H, W]."""
    return inlier_logits(m, f).max(axis=0)


def id_score(m: InlierModel, f: FeatureMap) -> ScoreMap:
    """Inlier-density baseline: negated max logit so higher = more outlier."""
    return ScoreMap(-max_inlier_logit(m, f))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class InlierConfig:
    head_kind: str = GENERATIVE
    decoder_dim: int = 64
    decoder_hidden: int = 1152
    lr: float = 3e-3
    epochs: int = 4
    batch_size: int = 1024
    seed: int = 0
    gmm_components: int = 5
    gmm_epsilon: float = 0.1
    gmm_sinkhorn_iters: int = 10
    gmm_momentum: float = 0.8
    gmm_max_pixels_per_class: int = 4096


@dataclass
class InlierTrainResult:
    bundle: ModelBundle
    miou: float
    loss_history: list = field(default_factory=list)
    warnings: list = field(default_factory=list)


def holdout_split(n: int) -> tuple[list[int], list[int]]:
    """Deterministic 90/10 split by scene index; at least one held out."""
    n_held = max(1, n // 10)
    train = list(range(n - n_held))
    held = list(range(n - n_held, n))
    if not train:
        train = held
    return train, held


def _gather_pixels(dataset, indices, num_classes):
    feats, labels = [], []
    for i in indices:
        f, l = dataset[i][0], dataset[i][1]
        validate_pair(f, l, num_classes)
        px = f.pixels()
        lab = l.labels.ravel()
        keep = lab != 255
        feats.append(px[keep])
        labels.append(lab[keep].astype(np.int64))
    return np.concatenate(feats, axis=0), np.concatenate(labels)


def train_inlier(dataset, num_classes: int, config: InlierConfig) -> InlierTrainResult:
    """Train decoder + head on (FeatureMap, LabelMap) pairs.

    Adam on the cross-entropy of the head's logits. A linear head trains
    jointly with the decoder; a GMM head is fitted by Sinkhorn EM alone,
    one refresh per epoch on the decoded features. Deterministic per seed.
    """
    if not dataset:
        raise LlrsegError("empty dataset")
    if config.head_kind not in HEAD_TYPES:
        raise LlrsegError(f"unknown head kind {config.head_kind!r}")
    feature_dim = dataset[0][0].channels
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x1]))
    train_idx, held_idx = holdout_split(len(dataset))
    x, y = _gather_pixels(dataset, train_idx, num_classes)

    warnings_list = []
    if held_idx == train_idx:
        warnings_list.append("one scene only: it is both trained on and held "
                             "out, so heldout_miou is a training-set mIoU")
    present = np.unique(y)
    for k in range(num_classes):
        if k not in present:
            warnings_list.append(f"class {k} absent from training data")

    decoder = make_mlp([feature_dim, config.decoder_hidden, config.decoder_dim], rng)
    em = config.head_kind == GENERATIVE
    if em:
        decoded_all, _ = mlp_forward(decoder, x)
        head = init_head([decoded_all[y == k] for k in range(num_classes)],
                         config.gmm_components, rng)
    else:
        head = xavier_dense(config.decoder_dim, num_classes, "identity", rng)
    params = {**mlp_params(decoder, "decoder"), **prefixed("head", head.tensors())}
    opt = make_optimizer("adam", config.lr)
    counters: dict = {}
    loss_history = []
    for _ in range(config.epochs):
        order = rng.permutation(x.shape[0])
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, x.shape[0], config.batch_size):
            idx = order[start:start + config.batch_size]
            decoded, tape = mlp_forward(decoder, x[idx])
            logits, head_backward = head.logits_with_grad(decoded)
            loss, d_logits = softmax_cross_entropy(logits, y[idx])
            d_decoded, head_grads = head_backward(d_logits)
            dec_grads, _ = mlp_backward(decoder, tape, d_decoded)
            grads = mlp_grads_dict(dec_grads, "decoder")
            # EM alone fits a GMM head: Adam keeps tensors that get no gradient
            if not em:
                grads.update(prefixed("head", head_grads))
            opt, params = optimizer_step(opt, params, grads)
            set_mlp_params(decoder, "decoder", params)
            head = type(head).from_tensors(unprefixed("head", params))
            epoch_loss += loss
            n_batches += 1
        loss_history.append(epoch_loss / max(1, n_batches))
        if em:
            decoded_all, _ = mlp_forward(decoder, x)
            head = refresh(head, [decoded_all[y == k] for k in range(num_classes)],
                           rng, config.gmm_epsilon, config.gmm_sinkhorn_iters,
                           config.gmm_momentum, config.gmm_max_pixels_per_class,
                           counters)
            params.update(prefixed("head", head.tensors()))
    model = InlierModel(decoder=decoder, head=head, num_classes=num_classes,
                        head_kind=config.head_kind)

    bundle = bundle_from_inlier(model, config)
    # report mIoU from the bundle so it is reproducible bit-exactly after reload
    reloaded = inlier_from_bundle(bundle)
    miou_value = heldout_miou(reloaded, dataset, held_idx, num_classes)
    bundle.manifest["heldout_miou"] = miou_value
    return InlierTrainResult(bundle=bundle, miou=miou_value,
                             loss_history=loss_history, warnings=warnings_list)


def heldout_miou(model: InlierModel, dataset, held_idx, num_classes: int) -> float:
    values = []
    for i in held_idx:
        f, l = dataset[i][0], dataset[i][1]
        values.append(miou(inlier_predict(model, f), l, num_classes))
    return float(np.mean(values))


# ---------------------------------------------------------------------------
# bundle conversion
# ---------------------------------------------------------------------------

def bundle_from_inlier(model: InlierModel, config: InlierConfig) -> ModelBundle:
    tensors = {**mlp_params(model.decoder, "decoder"),
               **prefixed(STAGE1_HEAD_PREFIX[model.head_kind], model.head.tensors())}
    manifest = {
        "stage": "inlier",
        "head_kind": model.head_kind,
        "num_classes": model.num_classes,
        "feature_dim": model.feature_dim,
        "decoder_dim": model.decoder_dim,
        "projection_dim": None,
        "decoder_layers": len(model.decoder.layers),
        "decoder_activations": [l.activation for l in model.decoder.layers],
        "config": asdict(config),
    }
    return ModelBundle(manifest=manifest, tensors=tensors)


def inlier_from_bundle(bundle: ModelBundle) -> InlierModel:
    man = bundle.manifest
    try:
        if man["stage"] not in ("inlier", "uem"):
            raise LlrsegError(f"unexpected bundle stage {man['stage']!r}")
        layers = [
            DenseLayer(weight=bundle.tensors[f"decoder.{i}.weight"],
                       bias=bundle.tensors[f"decoder.{i}.bias"],
                       activation=activation)
            for i, activation in enumerate(man["decoder_activations"])
        ]
        head_kind = man["inlier_head_kind"] if man["stage"] == "uem" else man["head_kind"]
        head = HEAD_TYPES[head_kind].from_tensors(
            unprefixed(STAGE1_HEAD_PREFIX[head_kind], bundle.tensors))
        num_classes = man["num_classes"]
    except KeyError as exc:
        raise BadBundle(f"stage-1 model: bundle entry {exc.args[0]!r} "
                        "missing or unknown") from None
    return InlierModel(decoder=Mlp(layers=layers), head=head,
                       num_classes=num_classes, head_kind=head_kind,
                       frozen=man["stage"] == "uem")


def stage1_tensor_names(bundle: ModelBundle) -> list[str]:
    """Names of every stage-1 (theta) tensor in a bundle."""
    return [n for n in bundle.tensors
            if n.startswith(("decoder.", "head.", "gmm."))]
