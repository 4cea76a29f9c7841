"""Synthetic scenes and cut-paste outlier injection.

Scenes are Voronoi partitions of the pixel grid; each cell's pixels draw
their feature vectors from that class's Gaussian. Outliers are rasterized
shapes whose pixels are overwritten with draws from a bank Gaussian kept
well away from every inlier mean.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .datamodel import (
    IGNORE,
    BinaryOutlierMap,
    FeatureMap,
    LabelMap,
    load_feature_map,
    load_label_map,
    load_outlier_map,
    save_feature_map,
    save_label_map,
)
from .errors import LlrsegError

# standard deviations of the Gaussian clouds class and bank means are drawn from
CLASS_SPREAD, BANK_SPREAD = 4.0, 8.0


@dataclass(frozen=True)
class SceneSpec:
    num_classes: int
    feature_dim: int
    class_means: np.ndarray   # [K, d]
    class_scales: np.ndarray  # [K]
    height: int
    width: int

    def __post_init__(self):
        means = np.asarray(self.class_means, dtype=np.float64)
        scales = np.asarray(self.class_scales, dtype=np.float64)
        if means.shape != (self.num_classes, self.feature_dim):
            raise ValueError(f"class_means shape {means.shape}")
        if scales.shape != (self.num_classes,) or np.any(scales <= 0):
            raise ValueError("class_scales must be positive, one per class")
        dists = np.linalg.norm(means[:, None] - means[None, :], axis=2)
        np.fill_diagonal(dists, np.inf)
        if dists.min() <= 0:
            raise ValueError("class means must be pairwise distinct")
        object.__setattr__(self, "class_means", means)
        object.__setattr__(self, "class_scales", scales)


@dataclass(frozen=True)
class OutlierBank:
    means: np.ndarray   # [M, d]
    scales: np.ndarray  # [M]
    min_area: float = 0.01   # shape size as a fraction of image area
    max_area: float = 0.10

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        scales = np.asarray(self.scales, dtype=np.float64)
        if means.ndim != 2 or scales.shape != (means.shape[0],):
            raise ValueError("bank means/scales shapes inconsistent")
        if np.any(scales <= 0):
            raise ValueError("bank scales must be positive")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "scales", scales)

    @property
    def size(self) -> int:
        return self.means.shape[0]


def random_spec(num_classes: int, feature_dim: int, height: int, width: int,
                rng: np.random.Generator) -> SceneSpec:
    """Sample class means on a spread-out Gaussian cloud, rejecting layouts
    whose means lie closer than 4 (every class scale is 1)."""
    for _ in range(100):
        means = rng.normal(0.0, CLASS_SPREAD, size=(num_classes, feature_dim))
        dists = np.linalg.norm(means[:, None] - means[None, :], axis=2)
        np.fill_diagonal(dists, np.inf)
        if dists.min() >= 4.0:
            break
    else:
        raise LlrsegError("could not place well-separated class means")
    return SceneSpec(num_classes=num_classes, feature_dim=feature_dim,
                     class_means=means, class_scales=np.full(num_classes, 1.0),
                     height=height, width=width)


def random_bank(spec: SceneSpec, size: int, rng: np.random.Generator,
                separation: float = 6.0, min_area: float = 0.01,
                max_area: float = 0.10) -> OutlierBank:
    """Bank Gaussians at least separation * max(scale) away from every
    inlier mean (and from each other)."""
    max_scale = float(spec.class_scales.max())
    floor = separation * max_scale
    means = []
    for _ in range(10000):
        cand = rng.normal(0.0, BANK_SPREAD, size=spec.feature_dim)
        others = np.vstack([spec.class_means] + means) if means else spec.class_means
        if np.linalg.norm(others - cand, axis=1).min() >= floor:
            means.append(cand[None, :])
        if len(means) == size:
            break
    else:
        raise LlrsegError("could not place bank means with required separation")
    return OutlierBank(means=np.vstack(means), scales=np.full(size, max_scale),
                       min_area=min_area, max_area=max_area)


def synth_scene(spec: SceneSpec, rng: np.random.Generator) -> tuple[FeatureMap, LabelMap]:
    """Voronoi-labelled scene with per-class Gaussian features; up to 20
    layouts are drawn until every class has a cell."""
    h, w, k = spec.height, spec.width, spec.num_classes
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    for _ in range(20):
        sites = np.stack([rng.uniform(0, h, size=k), rng.uniform(0, w, size=k)], axis=1)
        d2 = (yy[..., None] - sites[:, 0]) ** 2 + (xx[..., None] - sites[:, 1]) ** 2
        labels = d2.argmin(axis=2).astype(np.uint8)
        if len(np.unique(labels)) == k:
            break
    else:
        raise LlrsegError("degenerate Voronoi layout: a class got zero pixels")
    noise = rng.standard_normal(size=(h * w, spec.feature_dim))
    flat = spec.class_means[labels.ravel()] + noise * spec.class_scales[labels.ravel()][:, None]
    data = flat.T.reshape(spec.feature_dim, h, w)
    return FeatureMap(data), LabelMap(labels)


def _rasterize_shape(kind: str, h: int, w: int, area_frac: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Boolean mask of one shape at a random position, clipped to the image."""
    target = max(1.0, area_frac * h * w)
    side = np.sqrt(target)
    cy, cx = rng.uniform(0, h), rng.uniform(0, w)
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    if kind == "rectangle":
        hh = side * rng.uniform(0.5, 1.5)
        ww = target / hh
        return (np.abs(yy + 0.5 - cy) <= hh / 2) & (np.abs(xx + 0.5 - cx) <= ww / 2)
    if kind == "ellipse":
        a = side / np.sqrt(np.pi) * rng.uniform(0.7, 1.4)
        b = target / (np.pi * a)
        return ((yy + 0.5 - cy) / a) ** 2 + ((xx + 0.5 - cx) / b) ** 2 <= 1.0
    if kind == "polygon":
        # random convex polygon: intersection of half planes through vertices
        # sampled on a circle of matching area
        r = np.sqrt(target / np.pi)
        n_vert = int(rng.integers(3, 7))
        angles = np.sort(rng.uniform(0, 2 * np.pi, size=n_vert))
        verts = np.stack([cy + r * np.sin(angles), cx + r * np.cos(angles)], axis=1)
        mask = np.ones((h, w), dtype=bool)
        for i in range(n_vert):
            p, q = verts[i], verts[(i + 1) % n_vert]
            edge = (q[0] - p[0]) * (xx + 0.5 - p[1]) - (q[1] - p[1]) * (yy + 0.5 - p[0])
            mask &= edge <= 0
        return mask
    raise ValueError(f"unknown shape kind {kind!r}")


_SHAPE_KINDS = ("rectangle", "ellipse", "polygon")


def inject_outliers(
    features: FeatureMap,
    labels: LabelMap,
    bank: OutlierBank,
    rng: np.random.Generator,
    count_range: tuple[int, int] = (1, 4),
    bank_indices: list[int] | None = None,
):
    """Paste outlier shapes into a scene.

    Returns (FeatureMap, BinaryOutlierMap, LabelMap): mixed features, the
    binary pseudo-outlier map, and an inlier-label variant with pasted
    pixels set to IGNORE.
    """
    h, w = features.height, features.width
    data = np.array(features.data)
    outlier = np.zeros((h, w), dtype=np.uint8)
    new_labels = np.array(labels.labels)
    indices = list(range(bank.size)) if bank_indices is None else list(bank_indices)
    lo, hi = count_range
    n_shapes = int(rng.integers(lo, hi + 1)) if hi > lo else lo
    for _ in range(n_shapes):
        # redraw shapes that clipped entirely outside the image
        for _attempt in range(20):
            kind = _SHAPE_KINDS[rng.integers(0, len(_SHAPE_KINDS))]
            area = rng.uniform(bank.min_area, bank.max_area)
            mask = _rasterize_shape(kind, h, w, area, rng)
            if mask.any():
                break
        else:
            continue
        gi = indices[rng.integers(0, len(indices))]
        n_px = int(mask.sum())
        draws = bank.means[gi] + rng.standard_normal((n_px, bank.means.shape[1])) * bank.scales[gi]
        data[:, mask] = draws.T
        outlier[mask] = 1
        new_labels[mask] = IGNORE
    return FeatureMap(data), BinaryOutlierMap(outlier), LabelMap(new_labels)


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetConfig:
    num_classes: int = 5
    feature_dim: int = 16
    height: int = 64
    width: int = 64
    bank_size: int = 8
    train_bank: int = 5          # first N bank members used for training
    # A floor, not a placement: each bank mean lies at least separation x
    # the largest class scale from every inlier mean and earlier bank mean.
    # It rarely binds at the default dims: over root seeds 0-49 the nearest
    # of 400 bank draws lay 14.8 away, so any separation up to 14.8 gives
    # the same bank.
    separation: float = 6.0
    min_area: float = 0.01
    max_area: float = 0.10
    count_range: tuple = (1, 4)
    splits: tuple = (4, 4, 3)    # (train_inlier, train_uem, eval) scene counts
    seed: int = 0

    def __post_init__(self):
        for name in ("feature_dim", "height", "width", "bank_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        # labels are uint8, and IGNORE (255) is none of classes 0 to 254
        if not 1 <= self.num_classes <= IGNORE:
            raise ValueError(f"num_classes must be in [1, {IGNORE}], got {self.num_classes}")
        if not (np.isfinite(self.separation) and self.separation >= 0):
            raise ValueError(f"separation must be finite and >= 0, got {self.separation}")
        if min(self.splits) < 0:
            raise ValueError(f"splits must be scene counts >= 0, got {tuple(self.splits)}")
        low, high = self.count_range
        if not 0 <= low <= high:
            raise ValueError(f"count_range must be (low, high) with 0 <= low <= high, "
                             f"got {tuple(self.count_range)}")
        if not 0 < self.min_area <= self.max_area <= 1:
            raise ValueError(f"min_area and max_area must satisfy 0 < min_area <= "
                             f"max_area <= 1, got {self.min_area} and {self.max_area}")
        if not 0 <= self.train_bank <= self.bank_size:
            raise ValueError(f"train_bank must be in [0, bank_size ({self.bank_size})], "
                             f"got {self.train_bank}")
        # train_uem scenes draw outliers from the training bank members,
        # eval scenes from the rest
        if self.splits[1] > 0 and self.train_bank < 1:
            raise ValueError(f"train_bank must be >= 1 for train_uem scenes, "
                             f"got {self.train_bank}")
        if self.splits[2] > 0 and self.bank_size - self.train_bank < 1:
            raise ValueError(f"train_bank must be below bank_size ({self.bank_size}) "
                             f"for eval scenes, got {self.train_bank}")


def _scene_rng(root_seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([root_seed, index]))


def make_dataset(config: DatasetConfig, out_dir) -> dict:
    """Write scenes/NNNN/{features.fmap, labels.lmap, outliers.lmap} plus a
    manifest. Eval scenes use only bank Gaussians withheld from training."""
    out_dir = Path(out_dir)
    (out_dir / "scenes").mkdir(parents=True, exist_ok=True)
    root = np.random.default_rng(np.random.SeedSequence([config.seed, 0xBA_5E]))
    spec = random_spec(config.num_classes, config.feature_dim,
                       config.height, config.width, root)
    bank = random_bank(spec, config.bank_size, root,
                       separation=config.separation,
                       min_area=config.min_area, max_area=config.max_area)
    train_idx = list(range(config.train_bank))
    eval_idx = list(range(config.train_bank, config.bank_size))

    n_inlier, n_uem, n_eval = config.splits
    scenes = []
    idx = 0
    for split, count in (("train_inlier", n_inlier), ("train_uem", n_uem),
                         ("eval", n_eval)):
        for _ in range(count):
            rng = _scene_rng(config.seed, idx)
            feats, labels = synth_scene(spec, rng)
            if split == "train_inlier":
                omap = BinaryOutlierMap(np.zeros((config.height, config.width),
                                                 dtype=np.uint8))
            else:
                members = train_idx if split == "train_uem" else eval_idx
                feats, omap, labels = inject_outliers(
                    feats, labels, bank, rng,
                    count_range=tuple(config.count_range), bank_indices=members)
            scene_dir = out_dir / "scenes" / f"{idx:04d}"
            scene_dir.mkdir(parents=True, exist_ok=True)
            save_feature_map(feats, scene_dir / "features.fmap")
            save_label_map(labels, scene_dir / "labels.lmap")
            save_label_map(omap, scene_dir / "outliers.lmap")
            scenes.append({"index": idx, "split": split,
                           "path": f"scenes/{idx:04d}"})
            idx += 1

    manifest = {
        "config": {**asdict(config),
                   "count_range": list(config.count_range),
                   "splits": list(config.splits)},
        "class_means": spec.class_means.tolist(),
        "class_scales": spec.class_scales.tolist(),
        "bank_means": bank.means.tolist(),
        "bank_scales": bank.scales.tolist(),
        "train_bank_indices": train_idx,
        "eval_bank_indices": eval_idx,
        "scenes": scenes,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    return manifest


def load_split(dataset_dir, split: str):
    """The (FeatureMap, LabelMap, BinaryOutlierMap) triples of a split, in
    scene order. A manifest that is not JSON, not an object, has no
    `scenes` list, or lists a scene without a string `split` and `path`
    raises LlrsegError naming the file."""
    dataset_dir = Path(dataset_dir)
    path = dataset_dir / "manifest.json"
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise LlrsegError(f"dataset manifest {path} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise LlrsegError(f"dataset manifest {path} is not a JSON object")
    if not isinstance(manifest.get("scenes"), list):
        raise LlrsegError(f"dataset manifest {path} has no 'scenes' list")
    out = []
    for i, scene in enumerate(manifest["scenes"]):
        if not (isinstance(scene, dict) and isinstance(scene.get("split"), str)
                and isinstance(scene.get("path"), str)):
            raise LlrsegError(f"dataset manifest {path}: scene {i} has no "
                              "string 'split' and 'path'")
        if scene["split"] != split:
            continue
        p = dataset_dir / scene["path"]
        out.append((load_feature_map(p / "features.fmap"),
                    load_label_map(p / "labels.lmap"),
                    load_outlier_map(p / "outliers.lmap")))
    return out
