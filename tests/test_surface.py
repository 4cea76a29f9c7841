"""The public surface that callers outside the package rely on.

The benchmark harness under `perfbench/` imports llrseg functions by name
and rebinds every public function of each layer to trace it. A deletion
that breaks it should fail here, not only when the benchmark runs. These
tests only read `perfbench/`: no bytecode is written next to it.
"""
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import llrseg
import llrseg.cli  # noqa: F401  (imports every layer the tracer wraps)
from llrseg.datamodel import (
    FeatureMap,
    ModelBundle,
    save_feature_map,
    tensor_digest,
)
from llrseg.inference import score_image, tile_plan
from llrseg.inlier import inlier_from_bundle
from llrseg.neuralcore import make_mlp

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_exported_name_resolves():
    missing = [name for name in llrseg.__all__ if not hasattr(llrseg, name)]
    assert missing == []


@pytest.fixture
def load_perfbench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)

    def load(name):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                      PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        return module

    return load


def test_perfbench_modules_import(load_perfbench):
    workloads = load_perfbench("workloads")
    assert set(workloads.WORKLOADS) == {"train-gen", "train-disc", "score-tiles"}
    load_perfbench("spans")


def test_whole_frame_terms_compose_the_scored_llr(load_perfbench, small_stage2,
                                                  tmp_path):
    """The benchmark's own whole-frame path through the models, run on a
    saved frame, gives the LLR that `score_image` gives."""
    workloads = load_perfbench("workloads")
    rng = np.random.default_rng(1)
    f = FeatureMap(rng.normal(0, 1, (inlier_from_bundle(small_stage2).net.in_dim, 9, 7)))
    save_feature_map(f, tmp_path / "frame.fmap")
    frame, log_in, log_out, max_logit = workloads.whole_frame_terms(
        small_stage2, tmp_path / "frame.fmap")
    composed = workloads.llr_score(log_out, log_in, max_logit).scores
    scored = score_image(small_stage2, frame, tile_plan(9, 7, 4, 3)).scores
    assert np.abs(scored - composed).max() <= workloads.COMPOSITION_ATOL


def test_saved_manifest_has_what_perfbench_reads(load_perfbench, small_stage2,
                                                 tmp_path):
    """perfbench fingerprints a pass by the tensor digests of the saved
    stage-2 manifest and reports its held-out mIoU."""
    workloads = load_perfbench("workloads")
    small_stage2.save(tmp_path / "stage2")
    loaded = ModelBundle.load(tmp_path / "stage2")
    entries = loaded.manifest["tensors"]
    assert set(entries) == set(small_stage2.tensors)
    for name, t in small_stage2.tensors.items():
        assert entries[name]["digest"] == tensor_digest(t)
    assert type(loaded.manifest["heldout_miou"]) is float
    assert len(workloads.pass_fingerprint(loaded, [])) == 64


def test_tracer_installs_and_restores(load_perfbench, small_stage2):
    spans = load_perfbench("spans")

    def bindings():
        return {(name, attr): value
                for name, module in sys.modules.items()
                if name == "llrseg" or name.startswith("llrseg.")
                for attr, value in vars(module).items()
                if inspect.isfunction(value) or inspect.ismethod(value)}

    before = bindings()
    tracer = spans.Tracer(llrseg)
    tracer.install()
    try:
        wrapped = {key[0] for key, value in bindings().items()
                   if value is not before.get(key)}
        for layer in spans.LAYERS:
            assert f"llrseg.{layer}" in wrapped, f"nothing traced in {layer}"
        # the counters read TilePlan, Tape and SinkhornPlan attributes
        rng = np.random.default_rng(0)
        f = FeatureMap(rng.normal(0, 1, (inlier_from_bundle(small_stage2).net.in_dim, 6, 5)))
        llrseg.inference.score_image(small_stage2, f, tile_plan(6, 5, 3, 3))
        mlp = make_mlp([3, 4, 2], rng)
        x = rng.normal(0, 1, (7, 3))
        _, tape = llrseg.neuralcore.mlp_forward(mlp, x)
        llrseg.neuralcore.mlp_backward(mlp, tape, np.ones((7, 2)))
        llrseg.gmm.sinkhorn_assign(rng.normal(0, 1, (8, 2)), 0.5, 5)
    finally:
        tracer.uninstall()
    assert bindings() == before
    counts = tracer.aggregate()
    assert counts["inference.score_image"]["pixels"] == 30
    assert counts["neuralcore.mlp_backward"]["rows"] == 7
    assert counts["gmm.sinkhorn"]["residual_max"] >= 0.0
