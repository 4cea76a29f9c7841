"""Acceptance gate: nine release criteria, one pass/fail line each.

Each test exercises one criterion end to end at its pinned tolerance and
runtime budget, and prints a single `[PASS]`/`[FAIL]` summary line
(visible with `pytest -s` or on failure).
"""
import tempfile
import time

import numpy as np
import pytest

from llrseg.anomalymix import DatasetConfig, load_split, make_dataset
from llrseg.gmm import GmmHead
from llrseg.inference import score_image, tile_plan
from llrseg.inlier import (
    DISCRIMINATIVE,
    GENERATIVE,
    InlierConfig,
    PixelModel,
    heldout_miou,
    holdout_split,
    inlier_from_bundle,
    stage1_tensor_names,
    train_inlier,
)
from llrseg.datamodel import tensor_digest
from llrseg.metrics import ScoredPixels, auroc, average_precision, fpr_at_tpr
from llrseg.neuralcore import make_mlp, xavier_dense
from llrseg.selfcheck import (
    check_gmm_density_oracle,
    check_llr_identity,
    check_metric_oracles,
    check_sinkhorn_marginals,
    check_stitching,
    llr_grad_error,
)
from llrseg.uem import LlrConfig, build_uem, train_uem, verify_freeze


def report(criterion: str, ok: bool, detail: str, elapsed: float, budget: float):
    verdict = "PASS" if (ok and elapsed < budget) else "FAIL"
    line = (f"[{verdict}] {criterion}: {detail} "
            f"({elapsed:.2f}s / budget {budget:.0f}s)")
    print(line)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_1_llr_algebraic_identity():
    t0 = time.perf_counter()
    ok, detail = check_llr_identity(n=1000)
    report("1 llr-algebraic-identity", ok, detail, time.perf_counter() - t0, 1.0)


def test_criterion_2_gmm_density_oracle():
    t0 = time.perf_counter()
    ok, detail = check_gmm_density_oracle(instances=10_000, tol=1e-10)
    report("2 gmm-density-oracle", ok, detail, time.perf_counter() - t0, 5.0)


def test_criterion_3_sinkhorn_marginals():
    t0 = time.perf_counter()
    ok, detail = check_sinkhorn_marginals(tol=1e-4)
    report("3 sinkhorn-marginals", ok, detail, time.perf_counter() - t0, 1.0)


def test_criterion_4_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        for kind in (DISCRIMINATIVE, GENERATIVE):
            worst = max(worst, llr_grad_error(kind, seed=seed, h=1e-5,
                                              max_coords=200))
    report("4 gradient-correctness", worst < 1e-4,
           f"max relative error = {worst:.3e} over 10 seeds x 2 head kinds",
           time.perf_counter() - t0, 30.0)


def test_criterion_5_freeze_contract(small_dataset_dir, small_stage1,
                                     small_stage2):
    t0 = time.perf_counter()
    stage1 = small_stage1.bundle
    frozen = small_stage2.manifest["frozen_digests"]
    digests_ok = all(
        tensor_digest(small_stage2.tensors[name])
        == tensor_digest(stage1.tensors[name]) == frozen[name]
        for name in stage1_tensor_names(stage1)
    ) and verify_freeze(small_stage2)

    triples = load_split(small_dataset_dir, "train_inlier")
    dataset = [(f, l) for f, l, _ in triples]
    _, held_idx = holdout_split(len(dataset))
    model = inlier_from_bundle(small_stage2)
    recomputed = heldout_miou(model, dataset, held_idx, model.head.out_dim)
    miou_ok = recomputed == stage1.manifest["heldout_miou"]

    report("5 freeze-contract", digests_ok and miou_ok,
           f"digests unchanged = {digests_ok}, "
           f"held-out mIoU bit-exact = {miou_ok} ({recomputed:.6f})",
           time.perf_counter() - t0, 120.0)


def test_criterion_6_metric_oracles():
    t0 = time.perf_counter()
    ok, detail = check_metric_oracles(seeds=100, n=1000, tol=1e-9)
    hand_ap = average_precision(ScoredPixels(
        scores=np.array([0.9, 0.8, 0.7, 0.6]), labels=np.array([1, 0, 1, 0])))
    hand_auroc = auroc(ScoredPixels(
        scores=np.array([0.9, 0.7, 0.8, 0.6]), labels=np.array([1, 1, 0, 0])))
    hand_fpr = fpr_at_tpr(ScoredPixels(
        scores=np.array([0.9, 0.8, 0.85, 0.7]), labels=np.array([1, 1, 0, 0])))
    # AP accumulates per-threshold terms, so allow one ulp of summation order
    hand_ok = (abs(hand_ap - 5.0 / 6.0) < 1e-15
               and hand_auroc == 0.75 and hand_fpr == 0.5)
    report("6 metric-oracles", ok and hand_ok,
           f"{detail}; hand examples exact = {hand_ok}",
           time.perf_counter() - t0, 10.0)


def _benchmark_metrics(seed: int) -> dict:
    """Train the default pipeline on one benchmark seed, score eval scenes."""
    with tempfile.TemporaryDirectory() as tmp:
        make_dataset(DatasetConfig(seed=seed), tmp)
        inlier_ds = [(f, l) for f, l, _ in load_split(tmp, "train_inlier")]
        stage1 = train_inlier(inlier_ds, 5, InlierConfig(seed=seed))
        uem_ds = [(f, o) for f, _, o in load_split(tmp, "train_uem")]
        stage2 = train_uem(stage1.bundle, uem_ds, LlrConfig(seed=seed)).bundle
        out = {}
        eval_scenes = load_split(tmp, "eval")
        for scorer in ("llr", "id", "ood"):
            scores, labels = [], []
            for f, _, o in eval_scenes:
                smap = score_image(stage2, f,
                                   tile_plan(f.height, f.width, 64, 32),
                                   scorer=scorer)
                sp = ScoredPixels.from_maps(smap, o)
                scores.append(sp.scores)
                labels.append(sp.labels)
            sp = ScoredPixels(scores=np.concatenate(scores),
                              labels=np.concatenate(labels))
            out[scorer] = {"ap": average_precision(sp), "fpr95": fpr_at_tpr(sp)}
        return out


def test_criterion_7_benchmark_trend():
    t0 = time.perf_counter()
    per_seed_ok = []
    seed0 = None
    for seed in range(10):
        m = _benchmark_metrics(seed)
        ok = (m["llr"]["ap"] >= m["id"]["ap"]
              and m["llr"]["ap"] >= m["ood"]["ap"]
              and m["llr"]["ap"] >= 0.95
              and m["llr"]["fpr95"] <= 0.10)
        per_seed_ok.append(ok)
        if seed == 0:
            seed0 = m
    strict = per_seed_ok[0]
    passing = sum(per_seed_ok)
    report("7 benchmark-trend", strict and passing >= 9,
           f"seed 0 AP(llr)={seed0['llr']['ap']:.4f} "
           f"FPR95={seed0['llr']['fpr95']:.3f} "
           f"AP(id)={seed0['id']['ap']:.4f} AP(ood)={seed0['ood']['ap']:.4f}; "
           f"orderings hold on {passing}/10 seeds",
           time.perf_counter() - t0, 300.0)


def test_criterion_8_stitching_equivalence():
    t0 = time.perf_counter()
    ok, detail = check_stitching(tol=1e-12)
    report("8 stitching-equivalence", ok, detail, time.perf_counter() - t0, 10.0)


def test_criterion_9_parameter_budget():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    icfg = InlierConfig()
    ucfg = LlrConfig()
    k, c_e = 5, 16  # benchmark dims
    decoder = make_mlp([c_e, icfg.decoder_hidden, icfg.decoder_dim], rng)
    ratios = {}
    for head_kind in (GENERATIVE, DISCRIMINATIVE):
        if head_kind == DISCRIMINATIVE:
            head = xavier_dense(icfg.decoder_dim, k, rng)
        else:
            head = GmmHead(
                means=rng.normal(0, 1, (k, icfg.gmm_components,
                                        icfg.decoder_dim)),
                variances=np.ones((k, icfg.gmm_components, icfg.decoder_dim)))
        inlier = PixelModel(net=decoder, head=head)
        uem = build_uem(c_e, ucfg.projection_dim, ucfg.proj_hidden,
                        head_kind, ucfg.gmm_components, rng)
        ratios[head_kind] = uem.parameter_count() / inlier.parameter_count()
    worst = max(ratios.values())
    report("9 parameter-budget", worst < 0.05,
           "phi/theta = " + ", ".join(f"{k_}: {v:.4f}"
                                      for k_, v in ratios.items()),
           time.perf_counter() - t0, 10.0)
