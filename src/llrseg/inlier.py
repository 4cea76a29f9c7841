"""Stage-1 inlier segmentor, and what both stages share: the per-pixel
model and the training loop.

Both stages are a `PixelModel`: an MLP applied per pixel and a head that is
either a linear layer (discriminative) or one diagonal GMM per class
(generative, class log densities used directly as logits). Both heads expose
the same surface (logits, logits with a backward, tensors to and from a
bundle), so the model, `fit` and the bundle loaders handle them alike. A
model is its tensors: `PixelModel.from_tensors` rebuilds it from them alone.
The stage-1 decoder is a 2-layer MLP.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .datamodel import (
    IGNORE,
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
    OptimizerState,
    make_mlp,
    mlp_backward,
    mlp_forward,
    optimizer_step,
    softmax_cross_entropy,
    xavier_dense,
)

GENERATIVE = "generative"
DISCRIMINATIVE = "discriminative"
HEAD_KINDS = (GENERATIVE, DISCRIMINATIVE)
# bundle name prefixes of a stage-1 model's decoder and head, of the UEM's
# projection and head, and of every model a bundle of each stage holds
STAGE1_NAMES = ("decoder", "head")
UEM_NAMES = ("uem.proj", "uem.head")
STAGE_NAMES = {"inlier": STAGE1_NAMES, "uem": STAGE1_NAMES + UEM_NAMES}


def unprefixed(prefix: str, tensors: dict) -> dict:
    p = prefix + "."
    return {name[len(p):]: t for name, t in tensors.items() if name.startswith(p)}


def refresh_head(head: GmmHead, z, y, rng: np.random.Generator, cfg,
                 counters: dict) -> GmmHead:
    """One Sinkhorn-EM refresh (cfg.gmm_*) of a GMM head on the net outputs
    z grouped by their labels y."""
    return refresh(head, [z[y == k] for k in range(head.classes)], rng,
                   cfg.gmm_epsilon, cfg.gmm_sinkhorn_iters, cfg.gmm_momentum,
                   cfg.gmm_max_pixels_per_class, counters)


def _batches(order: np.ndarray, size: int) -> list[np.ndarray]:
    return [order[start:start + size] for start in range(0, len(order), size)]


def model_tensors(net: dict, head: dict, names: tuple[str, str] = ("net", "head")) -> dict:
    """A net's and a head's tensors, or gradients, named as a model's:
    `{names[0]}.{name}` and `{names[1]}.{name}`."""
    return {f"{prefix}.{name}": t for prefix, part in zip(names, (net, head))
            for name, t in part.items()}


def fit(model: PixelModel, x, y, loss, rng: np.random.Generator, cfg):
    """The training loop of every net that trains (a discriminative stage 1
    and both stage-2 kinds): seeded shuffles, minibatch Adam (cfg.lr, .epochs,
    .batch_size) on one dict of `model.tensors()`, the model rebuilt from it
    after every step. `loss(head, z, idx)` returns (loss, d_z, head
    gradients) for the net output z of rows idx; a head tensor without a
    gradient keeps its value, so Adam trains the net and a linear head, and
    EM alone fits a GMM head: one `refresh_head` per epoch on net(x).
    Each step's forward refills the tape the previous step's backward spent,
    so the net's hidden layers are allocated once per fit, for the first
    (largest) batch. The `model` passed in is left unchanged.

    Returns (trained model, mean batch loss of each epoch, EM counters).
    """
    params = model.tensors()
    opt = OptimizerState(lr=cfg.lr)
    counters, loss_history = {}, []
    tape = True
    for _ in range(cfg.epochs):
        order = rng.permutation(x.shape[0])
        losses = []
        for idx in _batches(order, cfg.batch_size):
            z, tape = mlp_forward(model.net, x[idx], tape=tape)
            value, d_z, head_grads = loss(model.head, z, idx)
            net_grads = mlp_backward(model.net, tape, d_z)
            grads = model_tensors(net_grads, head_grads)
            opt, params = optimizer_step(opt, params, grads)
            model = PixelModel.from_tensors(params)
            losses.append(value)
        loss_history.append(sum(losses) / max(1, len(losses)))
        if isinstance(model.head, GmmHead):
            z, _ = mlp_forward(model.net, x, tape=False)
            model = replace(model, head=refresh_head(model.head, z, y, rng, cfg, counters))
            params = model.tensors()
    return model, loss_history, counters


@dataclass
class TrainResult:
    """What either training stage returns: the bundle, the mean loss of each
    epoch, the EM counters (`empty_components`, `absent_classes`; a key
    appears once its event has happened) and warnings about the data."""
    bundle: ModelBundle
    loss_history: list
    em_counters: dict
    warnings: list

    @property
    def miou(self) -> float | None:
        """Held-out mIoU of the stage-1 model in the bundle."""
        return self.bundle.manifest.get("heldout_miou")


@dataclass
class PixelModel:
    """A per-pixel MLP and a head over its output: the stage-1 decoder and
    class head, or the stage-2 projection and inlier/outlier head. The head
    is a DenseLayer (discriminative) or a GmmHead (generative); its out_dim
    is the class count."""
    net: Mlp
    head: DenseLayer | GmmHead

    def __post_init__(self):
        if not isinstance(self.head, (DenseLayer, GmmHead)):
            raise TypeError("a head is a DenseLayer or a GmmHead, "
                            f"not a {type(self.head).__name__}")
        if self.head.in_dim != self.net.out_dim:
            raise DimMismatch(f"head takes {self.head.in_dim} channels, "
                              f"the MLP gives {self.net.out_dim}")

    def tensors(self, names: tuple[str, str] = ("net", "head")) -> dict:
        return model_tensors(self.net.tensors(), self.head.tensors(), names)

    @classmethod
    def from_tensors(cls, tensors: dict,
                     names: tuple[str, str] = ("net", "head")) -> "PixelModel":
        """The inverse of `tensors(names)`: an MLP up to its last layer named
        (`Mlp.from_tensors`) and a GmmHead if the head has `means`, else a
        DenseLayer; tensors under neither prefix go unread. A missing tensor
        raises KeyError with its full name, a bad or stray one (under a
        prefix, unread) ValueError, and parts that do not fit DimMismatch."""
        head_type = GmmHead if f"{names[1]}.means" in tensors else DenseLayer
        parts = []
        for prefix, part in zip(names, (Mlp, head_type)):
            try:
                parts.append(part.from_tensors(unprefixed(prefix, tensors)))
            except KeyError as exc:
                raise KeyError(f"{prefix}.{exc.args[0]}") from None
        model = cls(*parts)
        prefixes = tuple(f"{p}." for p in names)
        stray = {n for n in tensors if n.startswith(prefixes)} - model.tensors(names).keys()
        if stray:
            raise ValueError(f"stray tensor {min(stray)!r}: the model does not read it")
        return model

    def parameter_count(self) -> int:
        return sum(t.size for t in self.tensors().values())

    def logits(self, f: FeatureMap) -> np.ndarray:
        """Head logits [H*W, classes] of the pixels in row-major order."""
        if f.channels != self.net.in_dim:
            raise DimMismatch(f"feature map has {f.channels} channels, "
                              f"model expects {self.net.in_dim}")
        # forward only: no tape, and the hidden layer is held one chunk at a time
        z, _ = mlp_forward(self.net, f.pixels(), tape=False)
        return self.head.logits(z)


def inlier_logits(m: PixelModel, f: FeatureMap) -> np.ndarray:
    """Per-pixel class logits with shape [K, H, W]."""
    return m.logits(f).T.reshape(-1, f.height, f.width)


def inlier_predict(m: PixelModel, f: FeatureMap) -> LabelMap:
    """Argmax class per pixel; ties break toward the smaller index."""
    logits = inlier_logits(m, f)
    return LabelMap(np.argmax(logits, axis=0).astype(np.uint8))


def max_inlier_logit(m: PixelModel, f: FeatureMap) -> np.ndarray:
    """Per-pixel max_k logit, shape [H, W]."""
    return inlier_logits(m, f).max(axis=0)


def id_score(m: PixelModel, f: FeatureMap) -> ScoreMap:
    """Inlier-density baseline: negated max logit so higher = more outlier."""
    return ScoreMap(-max_inlier_logit(m, f))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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

    def __post_init__(self):
        _check_training_config(self, ("decoder_dim", "decoder_hidden"))


def _check_training_config(cfg, widths: tuple[str, ...]) -> None:
    """Raises ValueError for a value a training loop cannot run: a head
    kind not in HEAD_KINDS, a batch size, GMM component count or layer
    width (the fields named `widths`) below 1, a negative epoch or Sinkhorn
    iteration count, a learning rate or Sinkhorn epsilon that is not finite
    and positive, or an EM momentum outside [0, 1]."""
    if cfg.head_kind not in HEAD_KINDS:
        raise ValueError(f"head_kind must be one of {HEAD_KINDS}, got {cfg.head_kind!r}")
    least = {"batch_size": 1, "epochs": 0, "gmm_components": 1,
             "gmm_sinkhorn_iters": 0, **dict.fromkeys(widths, 1)}
    for name, low in least.items():
        value = getattr(cfg, name)
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    for name in ("lr", "gmm_epsilon"):
        value = getattr(cfg, name)
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")
    if not 0 <= cfg.gmm_momentum <= 1:
        raise ValueError(f"gmm_momentum must be in [0, 1], got {cfg.gmm_momentum}")


def holdout_split(n: int) -> tuple[list[int], list[int]]:
    """Deterministic 90/10 split by scene index; at least one held out."""
    n_held = max(1, n // 10)
    train = list(range(n - n_held))
    held = list(range(n - n_held, n))
    if not train:
        train = held
    return train, held


def _gather_pixels(dataset, indices, num_classes):
    """The non-IGNORE pixels of the indexed scenes: rows [N, C], labels [N]."""
    feats, labels = [], []
    channels = dataset[0][0].channels
    for i in indices:
        f, l = dataset[i][0], dataset[i][1]
        if f.channels != channels:
            raise DimMismatch(f"scene {i} has {f.channels} channels, scene 0 has {channels}")
        validate_pair(f, l, num_classes)
        px = f.pixels()
        lab = l.labels.ravel()
        keep = lab != IGNORE
        feats.append(px[keep])
        labels.append(lab[keep].astype(np.int64))
    return np.concatenate(feats, axis=0), np.concatenate(labels)


def train_inlier(dataset, num_classes: int, config: InlierConfig) -> TrainResult:
    """Train a stage-1 model on (FeatureMap, LabelMap) pairs.

    A linear head trains jointly with the decoder: `fit` runs Adam on the
    cross-entropy of the head's logits. A GMM head keeps the seeded decoder,
    as the paper's frozen inlier network is: `init_head` and one
    `refresh_head` per epoch fit only the head by Sinkhorn EM, on decoder
    outputs computed once. Its loss history is the cross-entropy of the head
    in force over each epoch's shuffled batches, and `config.lr` goes unread.
    Deterministic per seed.
    """
    if not dataset:
        raise LlrsegError("empty dataset")
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
    if config.head_kind == GENERATIVE:
        decoded, _ = mlp_forward(decoder, x, tape=False)
        head = init_head([decoded[y == k] for k in range(num_classes)],
                         config.gmm_components, rng)
        counters, loss_history = {}, []
        for _ in range(config.epochs):
            # drawn as `fit` draws it: `refresh` subsamples with the same rng
            order = rng.permutation(x.shape[0])
            losses = [softmax_cross_entropy(head.logits(decoded[idx]), y[idx])[0]
                      for idx in _batches(order, config.batch_size)]
            loss_history.append(sum(losses) / max(1, len(losses)))
            head = refresh_head(head, decoded, y, rng, config, counters)
        model = PixelModel(net=decoder, head=head)
    else:
        def cross_entropy(head, decoded, idx):
            logits, head_backward = head.logits_with_grad(decoded)
            value, d_logits = softmax_cross_entropy(logits, y[idx])
            d_decoded, head_grads = head_backward(d_logits)
            return value, d_decoded, head_grads

        head = xavier_dense(config.decoder_dim, num_classes, rng)
        model, loss_history, counters = fit(PixelModel(net=decoder, head=head), x, y,
                                            cross_entropy, rng, config)
    # the mIoU of the stored (float32) model, reproducible bit-exactly on reload
    stored = inlier_from_bundle(bundle_from_inlier(model, config, None))
    bundle = bundle_from_inlier(
        model, config, heldout_miou(stored, dataset, held_idx, num_classes))
    return TrainResult(bundle=bundle, loss_history=loss_history,
                       em_counters=counters, warnings=warnings_list)


def heldout_miou(model: PixelModel, dataset, held_idx, num_classes: int) -> float:
    values = []
    for i in held_idx:
        f, l = dataset[i][0], dataset[i][1]
        values.append(miou(inlier_predict(model, f), l, num_classes))
    return float(np.mean(values))


# ---------------------------------------------------------------------------
# bundle conversion
# ---------------------------------------------------------------------------

def bundle_from_inlier(model: PixelModel, config: InlierConfig,
                       miou_value: float | None) -> ModelBundle:
    manifest = {"stage": "inlier", "config": asdict(config), "heldout_miou": miou_value}
    return ModelBundle(manifest=manifest, tensors=model.tensors(STAGE1_NAMES))


def _bundle_model(bundle: ModelBundle, names: tuple[str, str], what: str) -> PixelModel:
    """`PixelModel.from_tensors` over a bundle's tensors: a missing or bad
    entry, or a stray one that no model of the bundle's stage reads, raises
    BadBundle, tensors that do not fit each other DimMismatch."""
    stage = bundle.manifest["stage"]
    prefixes = tuple(f"{p}." for p in STAGE_NAMES[stage])
    for name in bundle.tensors:
        if not name.startswith(prefixes):
            raise BadBundle(f"{what} model: stray bundle entry {name!r}: no model "
                            f"of the {stage!r} stage reads it")
    try:
        return PixelModel.from_tensors(bundle.tensors, names)
    except KeyError as exc:
        raise BadBundle(f"{what} model: bundle entry {exc.args[0]!r} missing") from None
    except ValueError as exc:
        raise BadBundle(f"{what} model: {exc}") from None


def inlier_from_bundle(bundle: ModelBundle) -> PixelModel:
    """The stage-1 model of a stage-1 or stage-2 bundle (the latter embeds
    its tensors byte for byte). A malformed bundle raises BadBundle, or
    DimMismatch where its tensors do not fit each other."""
    stage = bundle.manifest.get("stage")
    if stage not in ("inlier", "uem"):
        raise BadBundle(f"stage-1 model: unexpected bundle stage {stage!r}")
    return _bundle_model(bundle, STAGE1_NAMES, "stage-1")


def stage1_tensor_names(bundle: ModelBundle) -> list[str]:
    """Names of every stage-1 (theta) tensor in a bundle."""
    prefixes = tuple(f"{p}." for p in STAGE1_NAMES)
    return [n for n in bundle.tensors if n.startswith(prefixes)]
