"""Core tensors, label conventions, and the binary file formats.

Feature and score maps live in memory as float64 arrays, label maps (an
outlier map is a two-class label map) as uint8, and all are serialized
with fixed little-endian layouts (32-bit floats on disk). Arrays are marked
read-only after construction so instances can be shared across workers; a
map copies an array its caller can still write, and keeps a read-only one.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
import struct
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType

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
# Version 4 drops the head kinds and activation lists from the manifest and
# names the stage-1 head `head.*` for both kinds; 3 drops the model
# dimensions; 2 to 4 pack a GMM head as two [K, C, d] tensors, unversioned
# bundles one file per component.
BUNDLE_FORMAT_VERSION = 4
# a tensor's file is `{name}.fmap` in the bundle directory, so a name is one
# path component that does not start with a dot
TENSOR_NAME = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.]*")

# Sanity bound on header dimensions; anything larger is a corrupt header.
MAX_DIM = 1 << 24


def _freeze(a: np.ndarray, given) -> np.ndarray:
    """a marked read-only, copied first if it may share memory with given,
    the caller's input, through which or whose base the caller can write."""
    if isinstance(given, np.ndarray) and np.may_share_memory(a, given) and (
            given.flags.writeable
            or isinstance(given.base, np.ndarray) and given.base.flags.writeable):
        a = a.copy()
    a.flags.writeable = False
    return a


def _read_only(value):
    """A read-only deep copy of a JSON value: objects become read-only
    mappings and arrays tuples; JSON writes them back as it read them."""
    if isinstance(value, Mapping):
        return MappingProxyType({k: _read_only(v) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple(_read_only(v) for v in value)
    return value


def _check_finite(data: np.ndarray, what: str = "value") -> None:
    finite = np.isfinite(data)
    if not finite.all():
        pos = int(np.argmin(finite.ravel()))
        raise NonFinite(pos, f"non-finite {what} at position {pos}")


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
        object.__setattr__(self, "data", _freeze(data, self.data))

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
    """Per-pixel class labels in {0..K-1} plus IGNORE, stored as uint8: a
    value that is not an integer in [0, 255] raises IllegalLabel."""

    labels: np.ndarray  # uint8, shape [H, W]

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 2 or min(labels.shape) < 1:
            raise DimMismatch(f"label map must be 2-d, got shape {labels.shape}")
        if labels.dtype != np.uint8:
            with np.errstate(invalid="ignore"):  # a NaN's cast is the error below
                cast = labels.astype(np.uint8)
            bad = cast != labels
            if bad.any():
                pos = int(np.argmax(bad.ravel()))
                raise IllegalLabel(labels.ravel()[pos].item(), pos)
            labels = cast
        object.__setattr__(self, "labels", _freeze(labels, self.labels))

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


@dataclass(frozen=True)
class BinaryOutlierMap(LabelMap):
    """A two-class label map: 0 = inlier, 1 = outlier, or IGNORE."""

    def __post_init__(self):
        super().__post_init__()
        check_labels(self, 2)


@dataclass(frozen=True)
class ScoreMap:
    """Per-pixel outlier scores; higher means more outlier."""

    scores: np.ndarray  # float64, shape [H, W]

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 2 or min(scores.shape) < 1:
            raise DimMismatch(f"score map must be 2-d, got shape {scores.shape}")
        _check_finite(scores)
        object.__setattr__(self, "scores", _freeze(scores, self.scores))

    @property
    def height(self) -> int:
        return self.scores.shape[0]

    @property
    def width(self) -> int:
        return self.scores.shape[1]


def check_labels(l: LabelMap, k: int) -> None:
    """Every label is one of K classes or IGNORE; the first that is not
    raises IllegalLabel with its row-major position."""
    labels = l.labels
    bad = (labels != IGNORE) & (labels >= k)
    if bad.any():
        pos = int(np.argmax(bad.ravel()))
        raise IllegalLabel(int(labels.ravel()[pos]), pos)


def validate_pair(f: FeatureMap, l: LabelMap, k: int) -> None:
    """Check that a feature/label pair is consistent for K classes."""
    if (f.height, f.width) != (l.height, l.width):
        raise DimMismatch(
            f"features are {f.height}x{f.width}, labels are {l.height}x{l.width}"
        )
    check_labels(l, k)


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

# magic -> (u32 header fields that must match, u32 dims after them, payload
# dtype); every image is little-endian and exactly header + payload long
_LAYOUTS = {
    FMAP_MAGIC: ((FORMAT_VERSION, DTYPE_F32), 3, "<f4"),
    LMAP_MAGIC: ((FORMAT_VERSION,), 2, "u1"),
    SMAP_MAGIC: ((FORMAT_VERSION,), 2, "<f4"),
}


def _check_dims(*dims: int) -> None:
    for d in dims:
        if d < 1 or d > MAX_DIM:
            raise BadHeader(f"dimension {d} out of range [1, {MAX_DIM}]")


def _encode(magic: bytes, array: np.ndarray) -> bytes:
    """The file image of `array`; rejects what `_decode` would reject."""
    fixed, rank, dtype = _LAYOUTS[magic]
    with np.errstate(over="ignore"):  # an overflow is the NonFinite below
        payload = np.asarray(array).astype(dtype)
    _check_dims(*payload.shape)
    _check_finite(payload)  # guards against f32 overflow
    return (magic + struct.pack(f"<{len(fixed) + rank}I", *fixed, *payload.shape)
            + payload.tobytes())


def _decode(blob: bytes, magic: bytes) -> np.ndarray:
    """The payload of a file image, shaped by its header, in its disk dtype."""
    fixed, rank, dtype = _LAYOUTS[magic]
    if blob[:4] != magic:
        raise BadMagic(f"expected {magic!r}, got {blob[:4]!r}")
    start = 4 + 4 * (len(fixed) + rank)
    if len(blob) < start:
        raise TruncatedPayload(f"expected a {start}-byte header, got {len(blob)} bytes")
    header = struct.unpack_from(f"<{len(fixed) + rank}I", blob, 4)
    if header[:len(fixed)] != fixed:
        raise BadHeader(f"unsupported {magic.decode()} version/dtype "
                        f"{header[:len(fixed)]}, expected {fixed}")
    shape = header[len(fixed):]
    _check_dims(*shape)
    size = start + np.dtype(dtype).itemsize * math.prod(shape)
    if len(blob) != size:
        raise TruncatedPayload(f"expected {size} bytes, got {len(blob)}")
    data = np.frombuffer(blob, dtype=dtype, offset=start).reshape(shape)
    _check_finite(data)
    return data


def save_feature_map(fmap: FeatureMap, path) -> None:
    Path(path).write_bytes(_encode(FMAP_MAGIC, fmap.data))


def load_feature_map(path) -> FeatureMap:
    return FeatureMap(_decode(Path(path).read_bytes(), FMAP_MAGIC))


def save_label_map(lmap: LabelMap, path) -> None:
    Path(path).write_bytes(_encode(LMAP_MAGIC, lmap.labels))


def load_label_map(path) -> LabelMap:
    return LabelMap(_decode(Path(path).read_bytes(), LMAP_MAGIC))


def save_outlier_map(omap: BinaryOutlierMap, path) -> None:
    Path(path).write_bytes(_encode(LMAP_MAGIC, omap.labels))


def load_outlier_map(path) -> BinaryOutlierMap:
    return BinaryOutlierMap(_decode(Path(path).read_bytes(), LMAP_MAGIC))


def save_score_map(smap: ScoreMap, path) -> None:
    Path(path).write_bytes(_encode(SMAP_MAGIC, smap.scores))


def load_score_map(path) -> ScoreMap:
    return ScoreMap(_decode(Path(path).read_bytes(), SMAP_MAGIC))


# ---------------------------------------------------------------------------
# model bundles
# ---------------------------------------------------------------------------

def _fmap_shape(shape) -> tuple:
    """The (C, H, W) header shape that stores a tensor of rank <= 3."""
    if len(shape) > 3:
        raise DimMismatch(f"cannot serialize tensor of rank {len(shape)}")
    return (1,) * (3 - len(shape)) + shape


def _tensor_file_bytes(tensor: np.ndarray) -> bytes:
    """Serialize a tensor as an FMAP file image (C collapsed where needed)."""
    return _encode(FMAP_MAGIC, np.reshape(tensor, _fmap_shape(np.shape(tensor))))


def tensor_digest(tensor: np.ndarray) -> str:
    """Hex SHA-256 of the tensor's on-disk file image."""
    return hashlib.sha256(_tensor_file_bytes(tensor)).hexdigest()


@dataclass(frozen=True)
class ModelBundle:
    """Named parameter tensors plus a JSON manifest with per-tensor digests.

    Both are copied into read-only mappings at construction, the manifest
    to every depth, the tensors rounded to float32 and non-writeable, so
    in-memory values equal what `tensor_digest` hashes, `save` writes and
    any reload gives. The manifest holds only what the tensors cannot: every
    model dimension is a tensor shape, a head's kind is its tensor names and
    an MLP's depth its layer names. A stage-2 ("uem") bundle embeds every
    stage-1 tensor byte-identically and lists their digests under
    "frozen_digests". On disk it is one FMAP file per tensor plus
    manifest.json, to which `save` adds the format version and each tensor's
    shape and digest; every tensor name matches TENSOR_NAME, so each file
    lies in the bundle's directory.
    """

    manifest: dict
    tensors: dict[str, np.ndarray]

    def __post_init__(self):
        for name in self.tensors:
            if not (isinstance(name, str) and TENSOR_NAME.fullmatch(name)):
                raise BadBundle(f"tensor name {name!r} does not match {TENSOR_NAME.pattern}")
        object.__setattr__(self, "manifest", _read_only(self.manifest))
        tensors = {}
        for name, t in self.tensors.items():
            with np.errstate(over="ignore"):
                tensors[name] = np.asarray(t, dtype=np.float32).astype(np.float64)
            _check_finite(tensors[name], f"float32 value in tensor {name!r}")
            tensors[name] = _freeze(tensors[name], t)
        object.__setattr__(self, "tensors", MappingProxyType(tensors))

    def save(self, dirpath) -> None:
        """Write the bundle; a tensor that cannot be stored leaves no file."""
        blobs = {name: _tensor_file_bytes(t) for name, t in self.tensors.items()}
        manifest = dict(self.manifest)
        manifest["format_version"] = BUNDLE_FORMAT_VERSION
        manifest["tensors"] = {
            name: {"shape": list(np.shape(self.tensors[name])),
                   "digest": hashlib.sha256(blob).hexdigest()}
            for name, blob in blobs.items()}
        dirpath = Path(dirpath)
        dirpath.mkdir(parents=True, exist_ok=True)
        for name, blob in blobs.items():
            (dirpath / f"{name}.fmap").write_bytes(blob)
        (dirpath / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True, default=dict),
            encoding="utf-8"
        )

    @classmethod
    def load(cls, dirpath, verify: bool = True) -> "ModelBundle":
        """Read a bundle; every file, shape and version fault is an LlrsegError."""
        dirpath = Path(dirpath)
        try:
            manifest = json.loads((dirpath / "manifest.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise BadBundle(f"cannot read {dirpath / 'manifest.json'}: {exc}") from None
        if not isinstance(manifest, dict):
            raise BadBundle(f"{dirpath / 'manifest.json'} is not a JSON object")
        version = manifest.get("format_version")
        if version != BUNDLE_FORMAT_VERSION:
            raise BadBundle(
                f"bundle {dirpath} has format version {version}, expected format "
                f"version {BUNDLE_FORMAT_VERSION}; retrain it with this version")
        entries = manifest.get("tensors")
        if not isinstance(entries, dict):
            raise BadBundle(f"bundle {dirpath}: manifest has no 'tensors' object")
        for name, meta in entries.items():
            if not TENSOR_NAME.fullmatch(name):
                raise BadBundle(f"bundle {dirpath}: tensor name {name!r} does not "
                                f"match {TENSOR_NAME.pattern}")
            if not (isinstance(meta, dict) and isinstance(meta.get("digest"), str)
                    and isinstance(meta.get("shape"), list)
                    and all(type(n) is int for n in meta["shape"])):
                raise BadBundle(f"bundle {dirpath}: manifest entry of tensor {name!r} "
                                "needs a 'shape' list of integers and a 'digest' string")
        tensors = {}
        for name, meta in entries.items():
            try:
                blob = (dirpath / f"{name}.fmap").read_bytes()
            except OSError as exc:
                raise BadBundle(f"tensor {name!r}: {exc}") from None
            if verify and hashlib.sha256(blob).hexdigest() != meta["digest"]:
                raise DigestMismatch(f"tensor {name!r} digest mismatch")
            data = _decode(blob, FMAP_MAGIC)
            shape = tuple(meta["shape"])
            if _fmap_shape(shape) != data.shape:
                raise DimMismatch(f"tensor {name!r}: manifest shape {shape} "
                                  f"vs file header {data.shape}")
            tensors[name] = data.reshape(shape)
        return cls(manifest=manifest, tensors=tensors)
