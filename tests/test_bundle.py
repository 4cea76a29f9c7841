"""Packed model bundles: bitwise save/load round trips for both head kinds,
and every corruption surfacing as an LlrsegError (CLI exit 1)."""
import json
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from llrseg.datamodel import BUNDLE_FORMAT_VERSION, ModelBundle, tensor_digest
from llrseg.errors import (
    BadBundle,
    DigestMismatch,
    DimMismatch,
    FreezeViolation,
    LlrsegError,
)
from llrseg.gmm import GmmHead
from llrseg.inlier import (
    DISCRIMINATIVE,
    GENERATIVE,
    InlierConfig,
    PixelModel,
    bundle_from_inlier,
    inlier_from_bundle,
    stage1_tensor_names,
)
from llrseg.neuralcore import make_mlp, xavier_dense
from llrseg.uem import (
    LlrConfig,
    build_uem,
    bundle_from_uem,
    uem_from_bundle,
    verify_freeze,
)

KINDS = st.sampled_from([GENERATIVE, DISCRIMINATIVE])
C_E = 3


def make_bundles(head_kind, k, c, d, seed=0) -> tuple[ModelBundle, ModelBundle]:
    """The stage-1 bundle of a random model and a stage-2 bundle over it,
    both with `head_kind` heads: K classes, C components, decoder and
    projection width d."""
    rng = np.random.default_rng(seed)
    decoder = make_mlp([C_E, 5, d], rng)
    if head_kind == GENERATIVE:
        head = GmmHead(means=rng.normal(0, 1, (k, c, d)),
                       variances=rng.uniform(0.1, 2.0, (k, c, d)))
    else:
        head = xavier_dense(d, k, rng)
    inlier = PixelModel(net=decoder, head=head)
    stage1 = bundle_from_inlier(inlier, InlierConfig(
        head_kind=head_kind, decoder_dim=d, gmm_components=c), 0.0)
    u = build_uem(C_E, d, 4, head_kind, c, rng)
    digests = {n: tensor_digest(stage1.tensors[n]) for n in stage1_tensor_names(stage1)}
    cfg = LlrConfig(head_kind=head_kind, projection_dim=d, proj_hidden=4,
                    gmm_components=c)
    return stage1, bundle_from_uem(u, stage1, cfg, digests)


def make_stage2(head_kind, k, c, d, seed=0) -> ModelBundle:
    return make_bundles(head_kind, k, c, d, seed)[1]


def models(bundle: ModelBundle):
    return inlier_from_bundle(bundle), uem_from_bundle(bundle)


def load_models(path, verify=True):
    return models(ModelBundle.load(path, verify=verify))


@contextmanager
def saved(bundle: ModelBundle):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bundle"
        bundle.save(path)
        yield path


def edit_manifest(path: Path, fn) -> None:
    manifest = json.loads((path / "manifest.json").read_text())
    fn(manifest)
    (path / "manifest.json").write_text(json.dumps(manifest))


def as_format_2(manifest: dict) -> None:
    """Rewrite a saved manifest as format 2 wrote it, with the model
    dimensions that format 3 leaves to the tensor shapes."""
    shapes = {name: meta["shape"] for name, meta in manifest["tensors"].items()}
    manifest.update(format_version=2, feature_dim=shapes["decoder.0.weight"][1],
                    decoder_dim=shapes["decoder.1.weight"][0], decoder_layers=2,
                    num_classes=shapes.get("head.means", shapes.get("head.weight"))[0],
                    projection_dim=shapes.get("uem.proj.2.weight", [None])[0])


def as_format_3(manifest: dict) -> None:
    """Rewrite a saved manifest as format 3 wrote it, with the head kinds and
    activation lists that format 4 leaves to the tensor names."""
    def kind(head):
        return GENERATIVE if f"{head}.means" in manifest["tensors"] else DISCRIMINATIVE

    manifest.update(format_version=3, head_kind=kind("head"),
                    decoder_activations=["gelu", "identity"])
    if manifest["stage"] == "uem":
        manifest.update(head_kind=kind("uem.head"), inlier_head_kind=kind("head"),
                        proj_activations=["gelu", "gelu", "identity"])


def save_per_component(bundle: ModelBundle, path: Path) -> None:
    """Write `bundle` in the unversioned layout: one file per GMM component
    mean, variance and weight."""
    tensors = {}
    for name, t in bundle.tensors.items():
        prefix, _, field = name.rpartition(".")
        if field not in ("means", "vars"):
            tensors[name] = t
            continue
        for k in range(t.shape[0]):
            for c in range(t.shape[1]):
                tensors[f"{prefix}.{k}.{c}.{field[:-1]}"] = t[k, c]
                tensors[f"{prefix}.{k}.{c}.weight"] = np.array([1.0 / t.shape[1]])
    ModelBundle(manifest=dict(bundle.manifest), tensors=tensors).save(path)
    edit_manifest(path, lambda m: m.pop("format_version"))


STAGE1_KEYS = {"stage", "config", "heldout_miou", "format_version", "tensors"}
STAGE2_KEYS = STAGE1_KEYS | {"frozen_digests"}
SHAPES = dict(k=st.integers(1, 4), c=st.integers(1, 4), d=st.integers(1, 5))


class TestRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(kind=KINDS, seed=st.integers(0, 2**32 - 1), **SHAPES)
    def test_save_load_is_bitwise(self, kind, k, c, d, seed):
        bundle = make_stage2(kind, k, c, d, seed)
        with saved(bundle) as path:
            loaded = ModelBundle.load(path)
            files = sorted(p.name for p in path.iterdir())
        assert loaded.manifest["format_version"] == BUNDLE_FORMAT_VERSION
        assert set(loaded.tensors) == set(bundle.tensors)
        for name, t in bundle.tensors.items():
            assert loaded.tensors[name].shape == t.shape
            assert np.array_equal(loaded.tensors[name], t)
        for a, b in zip(models(bundle), models(loaded)):
            for name, t in a.head.tensors().items():
                assert np.array_equal(b.head.tensors()[name], t)
        assert len(files) == len(bundle.tensors) + 1

    @pytest.mark.parametrize("kind", [GENERATIVE, DISCRIMINATIVE])
    def test_saved_manifest_keys(self, kind):
        """A format-4 manifest holds no model dimension, head kind or
        activation: the tensors' shapes and names do."""
        stage1, stage2 = make_bundles(kind, 3, 2, 4)
        for bundle, keys in ((stage1, STAGE1_KEYS), (stage2, STAGE2_KEYS)):
            with saved(bundle) as path:
                manifest = json.loads((path / "manifest.json").read_text())
            assert set(manifest) == keys
            assert manifest["format_version"] == BUNDLE_FORMAT_VERSION == 4

    @pytest.mark.parametrize("kind, head", [
        (DISCRIMINATIVE, ["bias", "weight"]), (GENERATIVE, ["means", "vars"])])
    def test_tensor_names(self, kind, head):
        """The layout every saved bundle has: a rename must show here."""
        stage1, stage2 = make_bundles(kind, 3, 2, 4)
        decoder = ["decoder.0.bias", "decoder.0.weight",
                   "decoder.1.bias", "decoder.1.weight"]
        want1 = decoder + [f"head.{name}" for name in head]
        assert sorted(stage1.tensors) == want1
        assert sorted(stage2.tensors) == want1 + [f"uem.head.{name}" for name in head] + [
            "uem.proj.0.bias", "uem.proj.0.weight", "uem.proj.1.bias",
            "uem.proj.1.weight", "uem.proj.2.bias", "uem.proj.2.weight"]

    @settings(max_examples=10, deadline=None)
    @given(**SHAPES)
    def test_gmm_heads_are_two_packed_tensors(self, k, c, d):
        bundle = make_stage2(GENERATIVE, k, c, d)
        assert bundle.tensors["head.means"].shape == (k, c, d)
        assert bundle.tensors["head.vars"].shape == (k, c, d)
        assert bundle.tensors["uem.head.means"].shape == (2, c, d)
        assert bundle.tensors["uem.head.vars"].shape == (2, c, d)
        # 2 + 2 decoder, 6 projection, 2 + 2 GMM tensors
        assert len(bundle.tensors) == 14


def tensor_file(path: Path, index: int) -> Path:
    files = sorted(path.glob("*.fmap"))
    return files[index % len(files)]


class TestCorruption:
    @settings(max_examples=25, deadline=None)
    @given(kind=KINDS, index=st.integers(0, 100), keep=st.floats(0.0, 0.999))
    def test_truncated_tensor_file(self, kind, index, keep):
        with saved(make_stage2(kind, 3, 2, 4)) as path:
            target = tensor_file(path, index)
            blob = target.read_bytes()
            target.write_bytes(blob[:int(keep * len(blob))])
            with pytest.raises(DigestMismatch):
                load_models(path)
            # train-uem loads without digest checks; the file is still rejected
            with pytest.raises(LlrsegError):
                load_models(path, verify=False)

    @settings(max_examples=25, deadline=None)
    @given(kind=KINDS, index=st.integers(0, 100), offset=st.integers(0, 10**6),
           bit=st.integers(0, 7))
    def test_byte_flip(self, kind, index, offset, bit):
        with saved(make_stage2(kind, 3, 2, 4)) as path:
            target = tensor_file(path, index)
            blob = bytearray(target.read_bytes())
            blob[offset % len(blob)] ^= 1 << bit
            target.write_bytes(bytes(blob))
            with pytest.raises(DigestMismatch):
                load_models(path)

    @settings(max_examples=15, deadline=None)
    @given(kind=KINDS, index=st.integers(0, 100), verify=st.booleans())
    def test_deleted_tensor_file(self, kind, index, verify):
        with saved(make_stage2(kind, 3, 2, 4)) as path:
            tensor_file(path, index).unlink()
            with pytest.raises(BadBundle):
                load_models(path, verify=verify)

    @settings(max_examples=15, deadline=None)
    @given(kind=KINDS, index=st.integers(0, 100))
    def test_tensor_dropped_from_manifest(self, kind, index):
        with saved(make_stage2(kind, 3, 2, 4)) as path:
            name = tensor_file(path, index).name[:-len(".fmap")]
            edit_manifest(path, lambda m: m["tensors"].pop(name))
            with pytest.raises(BadBundle):
                load_models(path)

    @settings(max_examples=20, deadline=None)
    @given(prefix=st.sampled_from(["head", "uem.head"]),
           field=st.sampled_from(["means", "vars"]), **SHAPES)
    def test_transposed_packed_shape_in_manifest(self, prefix, field, k, c, d):
        bundle = make_stage2(GENERATIVE, k, c, d)
        name = f"{prefix}.{field}"
        classes, comps, dim = bundle.tensors[name].shape
        assume(classes != comps)
        with saved(bundle) as path:
            def lie(manifest):
                manifest["tensors"][name]["shape"] = [comps, classes, dim]
            edit_manifest(path, lie)
            with pytest.raises(DimMismatch):
                load_models(path)

    @staticmethod
    def transposed_head(bundle: ModelBundle, prefix: str) -> ModelBundle:
        """`bundle` with the GMM head `prefix` saved as [C, K, d]."""
        classes, comps, dim = bundle.tensors[f"{prefix}.means"].shape
        tensors = dict(bundle.tensors)
        for field in ("means", "vars"):
            tensors[f"{prefix}.{field}"] = tensors[f"{prefix}.{field}"].reshape(
                comps, classes, dim)
        return ModelBundle(manifest=bundle.manifest, tensors=tensors)

    @settings(max_examples=20, deadline=None)
    @given(**SHAPES)
    def test_transposed_packed_head_fails_manifest_dims(self, k, c, d):
        """A UEM head saved as [C, 2, d] with matching digests and headers
        is not 2-class."""
        assume(c != 2)
        bundle = self.transposed_head(make_stage2(GENERATIVE, k, c, d), "uem.head")
        with saved(bundle) as path:
            with pytest.raises(DimMismatch):
                load_models(path)

    @settings(max_examples=20, deadline=None)
    @given(**SHAPES)
    def test_transposed_stage1_head_breaks_the_freeze(self, k, c, d):
        """A stage-1 head saved as [C, K, d] is a valid C-class head, but its
        file image, header included, no longer has its frozen digest."""
        assume(k != c)
        bundle = self.transposed_head(make_stage2(GENERATIVE, k, c, d), "head")
        with saved(bundle) as path:
            with pytest.raises(FreezeViolation, match="'head.means' digest mismatch"):
                verify_freeze(ModelBundle.load(path))

    @settings(max_examples=15, deadline=None)
    @given(version=st.one_of(st.none(), st.integers(-3, 10), st.text(max_size=3)))
    def test_other_format_version(self, version):
        assume(version != BUNDLE_FORMAT_VERSION)
        with saved(make_stage2(GENERATIVE, 3, 2, 4)) as path:
            def set_version(manifest):
                if version is None:
                    manifest.pop("format_version")
                else:
                    manifest["format_version"] = version
            edit_manifest(path, set_version)
            with pytest.raises(BadBundle, match=f"format version {BUNDLE_FORMAT_VERSION}"):
                load_models(path)

    @pytest.mark.parametrize("kind", [GENERATIVE, DISCRIMINATIVE])
    @pytest.mark.parametrize("version, rewrite", [(2, as_format_2), (3, as_format_3)])
    def test_older_format_bundle(self, kind, version, rewrite):
        with saved(make_stage2(kind, 3, 2, 4)) as path:
            edit_manifest(path, rewrite)
            with pytest.raises(BadBundle, match=f"has format version {version}, expected "
                               "format version 4; retrain it with this version"):
                load_models(path, verify=False)

    @pytest.mark.parametrize("kind", [GENERATIVE, DISCRIMINATIVE])
    def test_per_component_bundle(self, kind, tmp_path):
        save_per_component(make_stage2(kind, 3, 2, 4), tmp_path / "old")
        with pytest.raises(BadBundle, match=f"format version {BUNDLE_FORMAT_VERSION}"):
            load_models(tmp_path / "old", verify=False)

    @staticmethod
    def drop_entries(path: Path, prefix: str) -> None:
        """Drop the manifest entries of the tensors named `{prefix}.*`."""
        def drop(manifest):
            for name in [n for n in manifest["tensors"] if n.startswith(f"{prefix}.")]:
                manifest["tensors"].pop(name)
        edit_manifest(path, drop)

    def test_projection_must_have_three_layers(self):
        with saved(make_stage2(DISCRIMINATIVE, 3, 2, 4)) as path:
            self.drop_entries(path, "uem.proj.2")
            with pytest.raises(BadBundle, match="projection has 2 layers, not 3"):
                load_models(path)

    @pytest.mark.parametrize("net", ["decoder.0", "uem.proj.1"])
    def test_layer_below_the_last_one_named_is_missing(self, net):
        """An MLP ends at its last layer named, so a layer dropped below it
        is a missing entry, not a shallower net."""
        with saved(make_stage2(DISCRIMINATIVE, 3, 2, 4)) as path:
            self.drop_entries(path, net)
            with pytest.raises(BadBundle, match=f"bundle entry '{net}.weight' missing"):
                load_models(path)

    @pytest.mark.parametrize("kind", [GENERATIVE, DISCRIMINATIVE])
    @pytest.mark.parametrize("head", ["head", "uem.head"])
    def test_head_with_neither_means_nor_weight(self, kind, head):
        """A head's kind is its tensor names: one with no `means` is linear,
        so it is missing its `weight`."""
        with saved(make_stage2(kind, 3, 2, 4)) as path:
            self.drop_entries(path, head)
            with pytest.raises(BadBundle, match=f"bundle entry '{head}.weight' missing"):
                load_models(path)

    @staticmethod
    def with_tensor(bundle: ModelBundle, name: str) -> ModelBundle:
        """`bundle` plus a tensor `name` with a fresh digest."""
        return ModelBundle(manifest=bundle.manifest,
                           tensors={**bundle.tensors, name: np.ones(4)})

    @pytest.mark.parametrize("kind, name", [
        (GENERATIVE, "head.weight"), (GENERATIVE, "uem.head.bias"),
        (DISCRIMINATIVE, "head.vars"), (DISCRIMINATIVE, "uem.head.vars"),
        (DISCRIMINATIVE, "decoder.7x.bias"), (GENERATIVE, "uem.proj.0.scale"),
    ])
    def test_stray_entry_under_a_model_prefix(self, kind, name):
        """A model reads every entry under its prefixes, or the bundle is
        refused: a linear head's `weight` beside a GMM head's `means` used to
        be dropped without notice."""
        with saved(self.with_tensor(make_stage2(kind, 3, 2, 4), name)) as path:
            with pytest.raises(BadBundle, match=f"stray tensor {name!r}"):
                load_models(path)

    @pytest.mark.parametrize("name", ["extra.weight", "uem.extra", "uem", "decoders.0.bias"])
    def test_stray_entry_under_no_model_prefix(self, name):
        with saved(self.with_tensor(make_stage2(DISCRIMINATIVE, 3, 2, 4), name)) as path:
            with pytest.raises(BadBundle, match=f"stray bundle entry {name!r}: no "
                               "model of the 'uem' stage reads it"):
                load_models(path)

    @pytest.mark.parametrize("name", ["uem.head.weight", "uem.proj.0.bias", "extra.weight"])
    def test_stage1_bundle_holds_only_stage1_entries(self, name):
        stage1 = make_bundles(GENERATIVE, 3, 2, 4)[0]
        with pytest.raises(BadBundle, match=f"stray bundle entry {name!r}: no "
                           "model of the 'inlier' stage reads it"):
            inlier_from_bundle(self.with_tensor(stage1, name))

    def test_uem_head_must_be_two_class(self):
        bundle = make_stage2(DISCRIMINATIVE, 3, 2, 4)
        head = xavier_dense(4, 3, np.random.default_rng(0))
        tensors = {**bundle.tensors, "uem.head.weight": head.weight,
                   "uem.head.bias": head.bias}
        with saved(ModelBundle(manifest=bundle.manifest, tensors=tensors)) as path:
            with pytest.raises(DimMismatch, match="3 classes"):
                load_models(path)

    @pytest.mark.parametrize("name", ["decoder.1.weight", "uem.proj.0.weight"])
    def test_resigned_transposed_layer_weight(self, name):
        """A transposed weight with a fresh digest fails its layer's shapes."""
        bundle = make_stage2(DISCRIMINATIVE, 3, 2, 4)
        tensors = {**bundle.tensors, name: bundle.tensors[name].T}
        with saved(ModelBundle(manifest=bundle.manifest, tensors=tensors)) as path:
            with pytest.raises(BadBundle, match="bad dense shapes"):
                load_models(path)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(BadBundle):
            ModelBundle.load(tmp_path / "nowhere")

    @pytest.mark.parametrize("manifest", [
        [],
        [{"format_version": BUNDLE_FORMAT_VERSION}],
        "uem",
        {"format_version": BUNDLE_FORMAT_VERSION, "stage": "uem"},
        {"format_version": BUNDLE_FORMAT_VERSION, "stage": "uem", "tensors": []},
    ], ids=["empty-list", "list", "string", "no-tensors", "tensors-list"])
    @pytest.mark.parametrize("verify", [True, False])
    def test_manifest_not_a_bundle_object(self, manifest, verify, tmp_path):
        tmp_path.joinpath("manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BadBundle):
            ModelBundle.load(tmp_path, verify=verify)

    @pytest.mark.parametrize("entry", [
        None, [], {}, {"shape": [2, 3]}, {"digest": "0" * 64},
        {"shape": "2x3", "digest": "0" * 64}, {"shape": [2, 3], "digest": 7},
        {"shape": [2.0, 3], "digest": "0" * 64},
    ])
    def test_malformed_tensor_entry(self, entry):
        with saved(make_stage2(DISCRIMINATIVE, 3, 2, 4)) as path:
            edit_manifest(path, lambda m: m["tensors"].update({"decoder.0.weight": entry}))
            with pytest.raises(BadBundle, match="'decoder.0.weight'"):
                ModelBundle.load(path, verify=False)

    @pytest.mark.parametrize("name", ["../escape", ".escape", "sub/escape", ""])
    @pytest.mark.parametrize("verify", [True, False])
    def test_tensor_name_is_one_file_of_the_bundle(self, name, verify, tmp_path):
        """A manifest name is a file name in the bundle directory: one that
        would reach another directory, or a hidden file, is rejected before
        any file is read, even where that file holds a valid tensor."""
        bundle = make_stage2(DISCRIMINATIVE, 3, 2, 4)
        path = tmp_path / "bundle"
        bundle.save(path)
        source = path / "decoder.0.weight.fmap"
        target = path / f"{name}.fmap"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(source.read_bytes())
        edit_manifest(path, lambda m: m["tensors"].update(
            {name: m["tensors"]["decoder.0.weight"]}))
        with pytest.raises(BadBundle, match=f"tensor name {name!r}"):
            ModelBundle.load(path, verify=verify)

    @pytest.mark.parametrize("name", ["../escape", ".escape", "sub/escape", ""])
    def test_in_memory_tensor_name_is_one_file_of_the_bundle(self, name, tmp_path):
        """A bundle built in memory takes only the names `load` takes, so
        `save` cannot write outside its directory: a bad name raises before
        any file is written."""
        tensor = make_stage2(DISCRIMINATIVE, 3, 2, 4).tensors["decoder.0.weight"]
        with pytest.raises(BadBundle, match=f"tensor name {name!r}"):
            ModelBundle(manifest={}, tensors={name: tensor}).save(tmp_path / "bundle")
        assert list(tmp_path.rglob("*")) == []
