"""Map types, file round trips, and bundle digest verification."""
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llrseg.datamodel import (
    IGNORE,
    BinaryOutlierMap,
    FeatureMap,
    LabelMap,
    ModelBundle,
    ScoreMap,
    load_feature_map,
    load_label_map,
    load_outlier_map,
    load_score_map,
    save_feature_map,
    save_label_map,
    save_outlier_map,
    save_score_map,
    tensor_digest,
    validate_pair,
)
from llrseg.errors import (
    BadHeader,
    BadMagic,
    DigestMismatch,
    DimMismatch,
    IllegalLabel,
    NonFinite,
    TruncatedPayload,
)


def f32_exact(rng, shape):
    """Random values exactly representable in float32."""
    return rng.normal(0, 1, shape).astype(np.float32).astype(np.float64)


class TestFeatureMap:
    def test_round_trip_zeros(self, tmp_path):
        fmap = FeatureMap(np.zeros((3, 2, 2)))
        save_feature_map(fmap, tmp_path / "z.fmap")
        loaded = load_feature_map(tmp_path / "z.fmap")
        assert np.array_equal(loaded.data, fmap.data)

    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(0)
        fmap = FeatureMap(f32_exact(rng, (4, 5, 6)))
        save_feature_map(fmap, tmp_path / "r.fmap")
        loaded = load_feature_map(tmp_path / "r.fmap")
        assert np.array_equal(loaded.data, fmap.data)
        assert (loaded.channels, loaded.height, loaded.width) == (4, 5, 6)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.fmap"
        p.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(BadMagic):
            load_feature_map(p)

    def test_nan_rejected_at_construction(self):
        data = np.zeros((2, 2, 2))
        data[1, 0, 1] = np.nan
        with pytest.raises(NonFinite) as exc:
            FeatureMap(data)
        assert exc.value.position == 5

    def test_truncated_payload(self, tmp_path):
        fmap = FeatureMap(np.zeros((2, 3, 3)))
        p = tmp_path / "t.fmap"
        save_feature_map(fmap, p)
        p.write_bytes(p.read_bytes()[:-4])
        with pytest.raises(TruncatedPayload):
            load_feature_map(p)

    def test_pixels_layout(self):
        data = np.arange(2 * 2 * 3, dtype=np.float64).reshape(2, 2, 3)
        px = FeatureMap(data).pixels()
        assert px.shape == (6, 2)
        assert np.array_equal(px[0], data[:, 0, 0])
        assert np.array_equal(px[5], data[:, 1, 2])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_round_trip_identity_property(self, seed):
        import tempfile
        from pathlib import Path

        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 5, size=3))
        fmap = FeatureMap(f32_exact(rng, shape))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.fmap"
            save_feature_map(fmap, path)
            assert np.array_equal(load_feature_map(path).data, fmap.data)


class TestLabelAndOutlierMaps:
    def test_label_round_trip(self, tmp_path):
        lmap = LabelMap(np.array([[0, 1], [2, IGNORE]], dtype=np.uint8))
        save_label_map(lmap, tmp_path / "l.lmap")
        assert np.array_equal(load_label_map(tmp_path / "l.lmap").labels, lmap.labels)

    def test_outlier_round_trip(self, tmp_path):
        omap = BinaryOutlierMap(np.array([[0, 1], [IGNORE, 0]], dtype=np.uint8))
        save_outlier_map(omap, tmp_path / "o.lmap")
        assert np.array_equal(load_outlier_map(tmp_path / "o.lmap").labels, omap.labels)

    def test_outlier_rejects_other_values(self):
        with pytest.raises(IllegalLabel) as exc:
            BinaryOutlierMap(np.array([[0, 2]], dtype=np.uint8))
        assert exc.value.value == 2

    @pytest.mark.parametrize("kind, labels, value, position", [
        (BinaryOutlierMap, [[-1, 0]], -1, 0), (BinaryOutlierMap, [[256, 1]], 256, 0),
        (BinaryOutlierMap, [[0.5, 1]], 0.5, 0), (BinaryOutlierMap, [[np.nan, 0]], np.nan, 0),
        (LabelMap, [[2.5]], 2.5, 0)])
    def test_rejects_what_is_no_uint8_label(self, kind, labels, value, position):
        """Not wrapped (-1 was IGNORE, 256 an inlier) nor truncated."""
        with pytest.raises(IllegalLabel) as exc:
            kind(np.array(labels))
        assert exc.value.position == position
        assert np.array_equal(exc.value.value, value, equal_nan=True)

    def test_an_outlier_map_is_a_label_map_of_integral_values(self):
        omap = BinaryOutlierMap(np.array([[True, False], [1.0, 255.0]]))
        assert isinstance(omap, LabelMap)
        assert omap.labels.dtype == np.uint8
        assert omap.labels.tolist() == [[1, 0], [1, IGNORE]]
        assert LabelMap(np.array([[3.0, 255.0]])).labels.tolist() == [[3, IGNORE]]

    def test_score_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        smap = ScoreMap(f32_exact(rng, (3, 4)))
        save_score_map(smap, tmp_path / "s.smap")
        assert np.array_equal(load_score_map(tmp_path / "s.smap").scores, smap.scores)

    def test_score_bad_magic(self, tmp_path):
        p = tmp_path / "s.smap"
        p.write_bytes(b"QQQQ" + b"\x00" * 16)
        with pytest.raises(BadMagic):
            load_score_map(p)


MAPS = [(FeatureMap, "data", (2, 3, 3), np.float64), (ScoreMap, "scores", (3, 3), np.float64),
        (LabelMap, "labels", (3, 3), np.uint8), (BinaryOutlierMap, "labels", (3, 3), np.uint8)]


class TestMapsOwnTheirArrays:
    """A map neither shares nor freezes an array its caller can still write,
    and keeps one that no one can."""

    def test_a_view_of_an_outlier_map_input_cannot_change_the_map(self):
        a = np.zeros((2, 2), np.uint8)
        v = a.view()
        m = BinaryOutlierMap(a)
        v[0, 0] = 7  # an illegal outlier label
        assert m.labels[0, 0] == 0

    @pytest.mark.parametrize("kind, field, shape, dtype", MAPS)
    def test_a_writeable_input_is_copied_and_stays_writeable(self, kind, field, shape, dtype):
        a = np.zeros(shape, dtype)
        stored = getattr(kind(a), field)
        assert not np.shares_memory(stored, a)
        assert a.flags.writeable and not stored.flags.writeable
        a[(0,) * a.ndim] = 1
        assert stored[(0,) * a.ndim] == 0

    @pytest.mark.parametrize("kind, field, shape, dtype", MAPS)
    def test_a_read_only_input_is_kept(self, kind, field, shape, dtype):
        a = np.zeros(shape, dtype)
        a.flags.writeable = False
        assert getattr(kind(a), field) is a

    def test_a_read_only_view_of_a_writeable_array_is_copied(self):
        a = np.zeros((3, 3))
        v = a.view()
        v.flags.writeable = False
        m = ScoreMap(v)
        a[0, 0] = 1
        assert m.scores[0, 0] == 0

    def test_a_batch_of_a_loaded_frame_is_no_copy(self, tmp_path):
        """What scoring builds per batch, a view of a frozen frame, keeps it."""
        save_feature_map(FeatureMap(np.zeros((2, 3, 3))), tmp_path / "f.fmap")
        f = load_feature_map(tmp_path / "f.fmap")
        batch = FeatureMap(f.data.reshape(2, -1)[:, None, 2:5])
        assert np.shares_memory(batch.data, f.data)


class TestValidatePair:
    def test_ok(self):
        f = FeatureMap(np.zeros((4, 8, 8)))
        l = LabelMap(np.arange(64, dtype=np.uint8).reshape(8, 8) % 5)
        validate_pair(f, l, 5)  # no exception

    def test_dim_mismatch(self):
        f = FeatureMap(np.zeros((4, 8, 8)))
        l = LabelMap(np.zeros((7, 8), dtype=np.uint8))
        with pytest.raises(DimMismatch):
            validate_pair(f, l, 5)

    def test_illegal_label(self):
        f = FeatureMap(np.zeros((4, 8, 8)))
        labels = np.zeros((8, 8), dtype=np.uint8)
        labels[3, 3] = 5
        with pytest.raises(IllegalLabel) as exc:
            validate_pair(f, LabelMap(labels), 5)
        assert exc.value.value == 5

    def test_ignore_is_always_legal(self):
        f = FeatureMap(np.zeros((4, 8, 8)))
        labels = np.full((8, 8), IGNORE, dtype=np.uint8)
        validate_pair(f, LabelMap(labels), 5)


class TestModelBundle:
    def make_bundle(self):
        rng = np.random.default_rng(3)
        tensors = {
            "decoder.0.weight": f32_exact(rng, (4, 3)),
            "decoder.0.bias": f32_exact(rng, (4,)),
        }
        return ModelBundle(manifest={"stage": "inlier"}, tensors=tensors)

    def test_round_trip(self, tmp_path):
        bundle = self.make_bundle()
        bundle.save(tmp_path / "b")
        loaded = ModelBundle.load(tmp_path / "b")
        assert loaded.manifest["stage"] == "inlier"
        for name, t in bundle.tensors.items():
            assert np.array_equal(loaded.tensors[name], t)

    def test_tensors_are_read_only(self):
        bundle = self.make_bundle()
        with pytest.raises(TypeError):
            bundle.tensors["decoder.0.bias"] = np.zeros(4)
        with pytest.raises(ValueError, match="read-only"):
            bundle.tensors["decoder.0.bias"][0] = 1e39
        with pytest.raises(AttributeError):
            bundle.tensors = {}

    def test_manifest_is_a_read_only_copy(self):
        manifest = {"stage": "inlier"}
        bundle = ModelBundle(manifest=manifest, tensors={})
        manifest["stage"] = "uem"
        assert bundle.manifest["stage"] == "inlier"
        with pytest.raises(TypeError):
            bundle.manifest["heldout_miou"] = 0.5
        with pytest.raises(TypeError):
            del bundle.manifest["stage"]
        with pytest.raises(AttributeError):
            bundle.manifest = {}

    def test_single_byte_flip_detected(self, tmp_path):
        bundle = self.make_bundle()
        bundle.save(tmp_path / "b")
        target = tmp_path / "b" / "decoder.0.weight.fmap"
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0x01
        target.write_bytes(bytes(blob))
        with pytest.raises(DigestMismatch):
            ModelBundle.load(tmp_path / "b")

    def test_digest_deterministic(self):
        t = np.arange(6, dtype=np.float64).reshape(2, 3)
        assert tensor_digest(t) == tensor_digest(t.copy())
        flipped = t.copy()
        flipped[0, 0] += 1
        assert tensor_digest(t) != tensor_digest(flipped)


# ---------------------------------------------------------------------------
# one codec: every map and bundle-tensor image is written and checked alike
# ---------------------------------------------------------------------------

def _bundle_save(tensor, path):
    ModelBundle(manifest={"stage": "inlier"}, tensors={"t": tensor}).save(path)
    return path / "t.fmap"


# name -> (magic, fixed u32 header fields, payload dtype, sample, save, load);
# save returns the path of the image it wrote
CODECS = {
    "fmap": (b"FMAP", 2, "<f4", f32_exact(np.random.default_rng(4), (2, 3, 4)),
             lambda a, p: save_feature_map(FeatureMap(a), p) or p,
             lambda p: load_feature_map(p).data),
    "lmap": (b"LMAP", 1, "u1", np.array([[0, 1, 2], [IGNORE, 1, 0]], dtype=np.uint8),
             lambda a, p: save_label_map(LabelMap(a), p) or p,
             lambda p: load_label_map(p).labels),
    "smap": (b"SMAP", 1, "<f4", f32_exact(np.random.default_rng(5), (3, 5)),
             lambda a, p: save_score_map(ScoreMap(a), p) or p,
             lambda p: load_score_map(p).scores),
    # a rank-2 tensor is stored under the FMAP header shape (1, H, W)
    "bundle tensor": (b"FMAP", 2, "<f4", f32_exact(np.random.default_rng(6), (3, 4)),
                      _bundle_save,
                      lambda p: ModelBundle.load(p.parent, verify=False).tensors["t"]),
}


def _u32(blob: bytes, index: int, value: int) -> bytes:
    """`blob` with its index-th u32 header field (after the magic) replaced."""
    return blob[:4 + 4 * index] + struct.pack("<I", value) + blob[8 + 4 * index:]


def _corrupt(case, blob, fixed, header):
    return {
        "truncated header": lambda: blob[:header - 1],
        "truncated payload": lambda: blob[:-1],
        "trailing byte": lambda: blob + b"\x00",
        "wrong version": lambda: _u32(blob, 0, 2),
        "zero dimension": lambda: _u32(blob, (header - 4) // 4 - 1, 0),
    }[case]()


class TestCodec:
    @pytest.mark.parametrize("kind", CODECS)
    def test_round_trip_is_byte_exact(self, kind, tmp_path):
        magic, fixed, dtype, sample, save, load = CODECS[kind]
        image = save(sample, tmp_path / "a")
        blob = image.read_bytes()
        dims = sample.shape if kind != "bundle tensor" else (1, *sample.shape)
        header = 4 + 4 * (fixed + len(dims))
        assert blob[:4] == magic
        assert struct.unpack_from(f"<{fixed + len(dims)}I", blob, 4)[fixed:] == dims
        assert blob[header:] == np.asarray(sample).astype(dtype).tobytes()
        assert len(blob) == header + np.dtype(dtype).itemsize * sample.size
        loaded = load(image)
        assert np.array_equal(loaded, sample)
        assert save(loaded, tmp_path / "b").read_bytes() == blob

    @pytest.mark.parametrize("case", ["truncated header", "truncated payload",
                                      "trailing byte", "wrong version",
                                      "zero dimension"])
    @pytest.mark.parametrize("kind", CODECS)
    def test_bad_image_rejected(self, kind, case, tmp_path):
        magic, fixed, dtype, sample, save, load = CODECS[kind]
        image = save(sample, tmp_path / "a")
        blob = image.read_bytes()
        rank = 3 if kind == "bundle tensor" else sample.ndim
        image.write_bytes(_corrupt(case, blob, fixed, 4 + 4 * (fixed + rank)))
        expected = (BadHeader if case in ("wrong version", "zero dimension")
                    else TruncatedPayload)
        with pytest.raises(expected):
            load(image)

    @pytest.mark.parametrize("kind", ["fmap", "smap", "bundle tensor"])
    def test_float32_overflow_rejected_before_writing(self, kind, tmp_path):
        *_, sample, save, load = CODECS[kind]
        big = sample.copy()
        big.flat[1] = 1e39  # finite in float64, inf in float32
        target = tmp_path / "a"
        with pytest.raises(NonFinite) as exc:
            if kind == "bundle tensor":
                bundle = ModelBundle(manifest={"stage": "inlier"}, tensors={"t": sample})
                # forced past construction's check: save checks every tensor
                # again before it writes any file
                object.__setattr__(bundle, "tensors", {"t": big})
                bundle.save(target)
            else:
                save(big, target)
        assert exc.value.position == 1
        assert not target.exists()

    def test_bundle_rounds_to_float32_once(self):
        t = np.array([0.1, 1.0 / 3.0])
        bundle = ModelBundle(manifest={"stage": "inlier"}, tensors={"t": t})
        assert np.array_equal(bundle.tensors["t"],
                              t.astype(np.float32).astype(np.float64))
        assert bundle.tensors["t"].dtype == np.float64

    def test_bundle_rejects_tensor_overflowing_float32(self):
        with pytest.raises(NonFinite, match="'t'"):
            ModelBundle(manifest={"stage": "inlier"}, tensors={"t": np.array([1.0, 1e39])})
