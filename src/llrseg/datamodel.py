"""Core tensors, label conventions, and the binary file formats.

All maps live in memory as float64 / int arrays and are serialized with
fixed little-endian layouts (32-bit floats on disk). Arrays are marked
read-only after construction so instances can be shared across workers.
"""
from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    BadBundle,
    BadHeader,
    BadMagic,
    DigestMismatch,
    DimMismatch,
    IllegalLabel,
    NonFinite,
    TruncatedPayload,
)

IGNORE = 255

FMAP_MAGIC = b"FMAP"
LMAP_MAGIC = b"LMAP"
SMAP_MAGIC = b"SMAP"
FORMAT_VERSION = 1
DTYPE_F32 = 0
# Model bundle layout version, written to manifest["format_version"].
# Version 2 stores each GMM head as two packed [K, C, d] tensors (means,
# vars) and no weights; unversioned bundles stored one file per component.
BUNDLE_FORMAT_VERSION = 2

# Sanity bound on header dimensions; anything larger is a corrupt header.
MAX_DIM = 1 << 24


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _check_finite(data: np.ndarray) -> None:
    finite = np.isfinite(data)
    if not finite.all():
        pos = int(np.argmin(finite.ravel()))
        raise NonFinite(pos)


@dataclass(frozen=True)
class FeatureMap:
    """Dense C x H x W real-valued feature tensor."""

    data: np.ndarray  # float64, shape [C, H, W]

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 3:
            raise DimMismatch(f"feature map must be 3-d, got shape {data.shape}")
        if min(data.shape) < 1:
            raise DimMismatch(f"degenerate feature map shape {data.shape}")
        _check_finite(data)
        object.__setattr__(self, "data", _freeze(data))

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    def pixels(self) -> np.ndarray:
        """Flattened [H*W, C] view of the per-pixel feature vectors."""
        c, h, w = self.data.shape
        return self.data.reshape(c, h * w).T


@dataclass(frozen=True)
class LabelMap:
    """Per-pixel class labels in {0..K-1} plus IGNORE."""

    labels: np.ndarray  # uint8, shape [H, W]

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 2 or min(labels.shape) < 1:
            raise DimMismatch(f"label map must be 2-d, got shape {labels.shape}")
        if labels.dtype != np.uint8:
            if np.any(labels < 0) or np.any(labels > 255):
                bad = np.argmax((labels < 0) | (labels > 255))
                raise IllegalLabel(int(labels.ravel()[bad]), int(bad))
            labels = labels.astype(np.uint8)
        object.__setattr__(self, "labels", _freeze(labels))

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


@dataclass(frozen=True)
class BinaryOutlierMap:
    """Per-pixel labels in {0=inlier, 1=outlier, IGNORE}."""

    labels: np.ndarray  # uint8, shape [H, W]

    def __post_init__(self):
        labels = np.asarray(self.labels).astype(np.uint8, copy=False)
        if labels.ndim != 2 or min(labels.shape) < 1:
            raise DimMismatch(f"outlier map must be 2-d, got shape {labels.shape}")
        legal = (labels == 0) | (labels == 1) | (labels == IGNORE)
        if not legal.all():
            pos = int(np.argmin(legal.ravel()))
            raise IllegalLabel(int(labels.ravel()[pos]), pos)
        object.__setattr__(self, "labels", _freeze(labels))

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


@dataclass(frozen=True)
class ScoreMap:
    """Per-pixel outlier scores; higher means more outlier."""

    scores: np.ndarray  # float64, shape [H, W]

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 2 or min(scores.shape) < 1:
            raise DimMismatch(f"score map must be 2-d, got shape {scores.shape}")
        _check_finite(scores)
        object.__setattr__(self, "scores", _freeze(scores))

    @property
    def height(self) -> int:
        return self.scores.shape[0]

    @property
    def width(self) -> int:
        return self.scores.shape[1]


def validate_pair(f: FeatureMap, l: LabelMap, k: int) -> None:
    """Check that a feature/label pair is consistent for K classes."""
    if (f.height, f.width) != (l.height, l.width):
        raise DimMismatch(
            f"features are {f.height}x{f.width}, labels are {l.height}x{l.width}"
        )
    labels = l.labels
    bad = (labels != IGNORE) & (labels >= k)
    if bad.any():
        pos = int(np.argmax(bad.ravel()))
        raise IllegalLabel(int(labels.ravel()[pos]), pos)


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def _read_exact(fh, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise TruncatedPayload(f"expected {n} bytes for {what}, got {len(buf)}")
    return buf


def _read_u32s(fh, count: int, what: str) -> tuple[int, ...]:
    return struct.unpack(f"<{count}I", _read_exact(fh, 4 * count, what))


def _check_dims(*dims: int) -> None:
    for d in dims:
        if d < 1 or d > MAX_DIM:
            raise BadHeader(f"dimension {d} out of range [1, {MAX_DIM}]")


def save_feature_map(fmap: FeatureMap, path) -> None:
    payload = fmap.data.astype(np.float32)
    _check_finite(payload)  # guards against f32 overflow
    c, h, w = fmap.data.shape
    with open(path, "wb") as fh:
        fh.write(FMAP_MAGIC)
        fh.write(struct.pack("<IIIII", FORMAT_VERSION, DTYPE_F32, c, h, w))
        fh.write(payload.tobytes())


def load_feature_map(path) -> FeatureMap:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != FMAP_MAGIC:
            raise BadMagic(f"expected {FMAP_MAGIC!r}, got {magic!r}")
        version, dtype, c, h, w = _read_u32s(fh, 5, "header")
        if version != FORMAT_VERSION:
            raise BadHeader(f"unsupported version {version}")
        if dtype != DTYPE_F32:
            raise BadHeader(f"unsupported dtype code {dtype}")
        _check_dims(c, h, w)
        raw = _read_exact(fh, 4 * c * h * w, "payload")
    data = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(c, h, w)
    return FeatureMap(data)


def _save_u8_map(labels: np.ndarray, path) -> None:
    h, w = labels.shape
    with open(path, "wb") as fh:
        fh.write(LMAP_MAGIC)
        fh.write(struct.pack("<III", FORMAT_VERSION, h, w))
        fh.write(labels.astype(np.uint8).tobytes())


def _load_u8_map(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != LMAP_MAGIC:
            raise BadMagic(f"expected {LMAP_MAGIC!r}, got {magic!r}")
        version, h, w = _read_u32s(fh, 3, "header")
        if version != FORMAT_VERSION:
            raise BadHeader(f"unsupported version {version}")
        _check_dims(h, w)
        raw = _read_exact(fh, h * w, "payload")
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w).copy()


def save_label_map(lmap: LabelMap, path) -> None:
    _save_u8_map(lmap.labels, path)


def load_label_map(path) -> LabelMap:
    return LabelMap(_load_u8_map(path))


def save_outlier_map(omap: BinaryOutlierMap, path) -> None:
    _save_u8_map(omap.labels, path)


def load_outlier_map(path) -> BinaryOutlierMap:
    return BinaryOutlierMap(_load_u8_map(path))


def save_score_map(smap: ScoreMap, path) -> None:
    payload = smap.scores.astype(np.float32)
    _check_finite(payload)
    h, w = smap.scores.shape
    with open(path, "wb") as fh:
        fh.write(SMAP_MAGIC)
        fh.write(struct.pack("<III", FORMAT_VERSION, h, w))
        fh.write(payload.tobytes())


def load_score_map(path) -> ScoreMap:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != SMAP_MAGIC:
            raise BadMagic(f"expected {SMAP_MAGIC!r}, got {magic!r}")
        version, h, w = _read_u32s(fh, 3, "header")
        if version != FORMAT_VERSION:
            raise BadHeader(f"unsupported version {version}")
        _check_dims(h, w)
        raw = _read_exact(fh, 4 * h * w, "payload")
    scores = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(h, w)
    return ScoreMap(scores)


# ---------------------------------------------------------------------------
# model bundles
# ---------------------------------------------------------------------------

def _fmap_shape(shape) -> tuple:
    """The (C, H, W) header shape that stores a tensor of rank <= 3."""
    shape = tuple(shape)
    if len(shape) > 3:
        raise DimMismatch(f"cannot serialize tensor of rank {len(shape)}")
    return (1,) * (3 - len(shape)) + shape


def _tensor_file_bytes(tensor: np.ndarray) -> bytes:
    """Serialize a tensor as an FMAP file image (C collapsed where needed)."""
    t = np.asarray(tensor, dtype=np.float64)
    header = FMAP_MAGIC + struct.pack("<IIIII", FORMAT_VERSION, DTYPE_F32,
                                      *_fmap_shape(t.shape))
    return header + t.astype("<f4").tobytes()


def tensor_digest(tensor: np.ndarray) -> str:
    """Hex SHA-256 of the tensor's on-disk file image."""
    return hashlib.sha256(_tensor_file_bytes(tensor)).hexdigest()


@dataclass
class ModelBundle:
    """Named parameter tensors plus a JSON manifest with per-tensor digests.

    A stage-2 ("uem") bundle embeds every stage-1 tensor byte-identically and
    lists their digests under manifest["frozen_digests"]. On disk it is one
    FMAP file per tensor plus manifest.json, which records the bundle format
    version and each tensor's shape and digest.
    """

    manifest: dict
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def stage(self) -> str:
        return self.manifest["stage"]

    def digests(self) -> dict[str, str]:
        return {name: tensor_digest(t) for name, t in self.tensors.items()}

    def save(self, dirpath) -> None:
        dirpath = Path(dirpath)
        dirpath.mkdir(parents=True, exist_ok=True)
        tensor_meta = {}
        for name, tensor in self.tensors.items():
            blob = _tensor_file_bytes(tensor)
            (dirpath / f"{name}.fmap").write_bytes(blob)
            tensor_meta[name] = {
                "shape": list(np.asarray(tensor).shape),
                "digest": hashlib.sha256(blob).hexdigest(),
            }
        manifest = dict(self.manifest)
        manifest["format_version"] = BUNDLE_FORMAT_VERSION
        manifest["tensors"] = tensor_meta
        (dirpath / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
        )

    @classmethod
    def load(cls, dirpath, verify: bool = True) -> "ModelBundle":
        """Read a bundle; every file, shape and version fault is an LlrsegError."""
        dirpath = Path(dirpath)
        try:
            manifest = json.loads((dirpath / "manifest.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise BadBundle(f"cannot read {dirpath / 'manifest.json'}: {exc}") from None
        version = manifest.get("format_version")
        if version != BUNDLE_FORMAT_VERSION:
            raise BadBundle(
                f"bundle {dirpath} has format version {version}, expected format "
                f"version {BUNDLE_FORMAT_VERSION}; retrain it with this version")
        tensors = {}
        for name, meta in manifest["tensors"].items():
            try:
                blob = (dirpath / f"{name}.fmap").read_bytes()
            except OSError as exc:
                raise BadBundle(f"tensor {name!r}: {exc}") from None
            if verify and hashlib.sha256(blob).hexdigest() != meta["digest"]:
                raise DigestMismatch(f"tensor {name!r} digest mismatch")
            data, header_shape = _parse_fmap_bytes(blob)
            shape = tuple(meta["shape"])
            if _fmap_shape(shape) != header_shape:
                raise DimMismatch(f"tensor {name!r}: manifest shape {shape} "
                                  f"vs file header {header_shape}")
            tensors[name] = data.reshape(shape)
        return cls(manifest=manifest, tensors=tensors)


def _parse_fmap_bytes(blob: bytes) -> tuple[np.ndarray, tuple]:
    """Flat float64 payload and (C, H, W) header shape of an FMAP image."""
    if blob[:4] != FMAP_MAGIC:
        raise BadMagic(f"expected {FMAP_MAGIC!r}, got {blob[:4]!r}")
    if len(blob) < 24:
        raise TruncatedPayload("header truncated")
    version, dtype, c, h, w = struct.unpack("<IIIII", blob[4:24])
    if version != FORMAT_VERSION or dtype != DTYPE_F32:
        raise BadHeader(f"unsupported version/dtype {version}/{dtype}")
    _check_dims(c, h, w)
    n = c * h * w
    if len(blob) != 24 + 4 * n:
        raise TruncatedPayload(f"expected {24 + 4 * n} bytes, got {len(blob)}")
    data = np.frombuffer(blob, dtype="<f4", offset=24).astype(np.float64)
    _check_finite(data)
    return data, (c, h, w)
