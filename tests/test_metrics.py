"""Ranking metrics and mIoU against brute-force oracles."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import rankdata

from llrseg.datamodel import IGNORE, BinaryOutlierMap, LabelMap, ScoreMap
from llrseg.errors import IllegalLabel, OneClassOnly
import llrseg.metrics as metrics
from llrseg.metrics import (
    ScoredPixels,
    auroc,
    average_precision,
    evaluation_report,
    fpr_at_tpr,
    miou,
)
from llrseg.selfcheck import brute_force_ap, brute_force_auroc, brute_force_fpr_at_tpr


def sp(scores, labels):
    return ScoredPixels(scores=np.asarray(scores, dtype=float),
                        labels=np.asarray(labels))


class TestAuroc:
    def test_hand_example(self):
        s = sp([0.9, 0.7, 0.8, 0.6], [1, 1, 0, 0])
        assert auroc(s) == pytest.approx(0.75, abs=1e-15)

    def test_perfect_separation(self):
        s = sp([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert auroc(s) == 1.0

    def test_all_ties(self):
        s = sp([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
        assert auroc(s) == pytest.approx(0.5, abs=1e-15)

    def test_complement_symmetry_without_ties(self):
        rng = np.random.default_rng(0)
        scores = rng.permutation(np.linspace(0, 1, 40))  # all distinct
        labels = rng.integers(0, 2, 40)
        labels[0], labels[1] = 0, 1
        a = auroc(sp(scores, labels))
        b = auroc(sp(-scores, labels))
        assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_one_class_only(self):
        with pytest.raises(OneClassOnly):
            auroc(sp([0.1, 0.2], [1, 1]))


class TestMidranks:
    # a handful of distinct values (signed zeros among them) makes long ties
    @settings(max_examples=300, deadline=None)
    @given(scores=arrays(np.float64, st.integers(2, 60),
                         elements=st.sampled_from([-0.0, 0.0, 0.5, -1.0, 3.0, 1e300])),
           data=st.data())
    def test_auroc_bitwise_equal_to_scipy_midranks(self, scores, data):
        """AUROC from tie-grouped counts is the textbook rank-sum form over
        `scipy.stats.rankdata` midranks, to the bit."""
        labels = data.draw(arrays(np.int64, scores.size, elements=st.integers(0, 1)))
        p = int(labels.sum())
        n = labels.size - p
        assume(p > 0 and n > 0)
        want = (rankdata(scores)[labels == 1].sum() - p * (p + 1) / 2) / (p * n)
        got = auroc(sp(scores, labels))
        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)

    def test_cli_import_does_not_load_scipy_stats(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = "import sys, llrseg.cli; print('scipy.stats' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"


class TestAveragePrecision:
    def test_hand_example(self):
        s = sp([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        assert average_precision(s) == pytest.approx(5.0 / 6.0, abs=1e-15)

    def test_perfect_ranking(self):
        s = sp([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert average_precision(s) == 1.0

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            scores = np.round(rng.normal(0, 1, 200), 1)  # force ties
            labels = rng.integers(0, 2, 200)
            if labels.sum() in (0, 200):
                continue
            got = average_precision(sp(scores, labels))
            assert got == pytest.approx(brute_force_ap(scores, labels), abs=1e-9)


class TestFprAtTpr:
    def test_hand_example(self):
        s = sp([0.9, 0.8, 0.85, 0.7], [1, 1, 0, 0])
        assert fpr_at_tpr(s, 0.95) == pytest.approx(0.5, abs=1e-15)

    def test_perfect_separation(self):
        s = sp([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert fpr_at_tpr(s) == 0.0

    def test_inverted_ranking(self):
        s = sp([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
        assert fpr_at_tpr(s) == 1.0

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            scores = np.round(rng.normal(0, 1, 150), 1)
            labels = rng.integers(0, 2, 150)
            if labels.sum() in (0, 150):
                continue
            got = fpr_at_tpr(sp(scores, labels))
            want = brute_force_fpr_at_tpr(scores, labels)
            assert got == pytest.approx(want, abs=1e-9)


class TestRankingInvariance:
    def test_strictly_increasing_transform(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(0, 1, 100)
        labels = rng.integers(0, 2, 100)
        labels[:2] = [0, 1]
        transformed = np.exp(3.0 * scores) + 7.0
        for metric in (auroc, average_precision, fpr_at_tpr):
            assert metric(sp(scores, labels)) == pytest.approx(
                metric(sp(transformed, labels)), abs=1e-12)

    def test_auroc_matches_pairwise_oracle(self):
        rng = np.random.default_rng(4)
        scores = np.round(rng.normal(0, 1, 300), 1)
        labels = rng.integers(0, 2, 300)
        labels[:2] = [0, 1]
        assert auroc(sp(scores, labels)) == pytest.approx(
            brute_force_auroc(scores, labels), abs=1e-12)


class TestScoredPixels:
    @pytest.mark.parametrize("labels", [[0.5, 1.7, 0], [0, 1, 0.999], [0, 1, 2]])
    def test_rejects_labels_that_are_not_0_or_1(self, labels):
        """A fractional label is refused, not truncated by the int cast."""
        with pytest.raises(ValueError, match="binary"):
            ScoredPixels(scores=[0.1, 0.9, 0.5], labels=labels)

    @pytest.mark.parametrize("labels", [[False, True, False], [0.0, 1.0, 0.0], [0, 1, 0]])
    def test_bools_and_integral_floats_load(self, labels):
        s = ScoredPixels(scores=[0.1, 0.9, 0.5], labels=labels)
        assert s.labels.dtype == np.int64 and s.labels.tolist() == [0, 1, 0]


class TestFromMaps:
    def test_ignore_removed(self):
        scores = ScoreMap(np.arange(6, dtype=float).reshape(2, 3))
        labels = np.array([[0, 1, IGNORE], [1, 0, 0]], dtype=np.uint8)
        s = ScoredPixels.from_maps(scores, BinaryOutlierMap(labels))
        assert s.scores.shape == (5,)
        assert s.positives == 2 and s.negatives == 3

    def test_ignore_before_vs_after_flattening(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(0, 1, (8, 8))
        labels = rng.integers(0, 2, (8, 8)).astype(np.uint8)
        labels[0, :4] = IGNORE
        a = ScoredPixels.from_maps(ScoreMap(raw), BinaryOutlierMap(labels))
        keep = labels != IGNORE
        b = ScoredPixels(scores=raw[keep], labels=labels[keep])
        for metric in (auroc, average_precision, fpr_at_tpr):
            assert metric(a) == metric(b)


class TestMiou:
    def test_identical_maps(self):
        labels = LabelMap(np.arange(16, dtype=np.uint8).reshape(4, 4) % 3)
        assert miou(labels, labels, 3) == 1.0

    def test_constant_prediction_on_even_split(self):
        gt = np.zeros((4, 4), dtype=np.uint8)
        gt[2:] = 1
        pred = np.zeros((4, 4), dtype=np.uint8)
        assert miou(LabelMap(pred), LabelMap(gt), 2) == pytest.approx(0.25)

    def test_matches_confusion_matrix_oracle(self):
        rng = np.random.default_rng(6)
        k = 4
        gt = rng.integers(0, k, (10, 10)).astype(np.uint8)
        pred = rng.integers(0, k, (10, 10)).astype(np.uint8)
        confusion = np.zeros((k, k), dtype=np.int64)
        np.add.at(confusion, (gt.ravel(), pred.ravel()), 1)
        tp = np.diag(confusion)
        iou = tp / (confusion.sum(axis=0) + confusion.sum(axis=1) - tp)
        assert miou(LabelMap(pred), LabelMap(gt), k) == pytest.approx(iou.mean())

    def test_ignore_pixels_excluded(self):
        gt = np.zeros((2, 2), dtype=np.uint8)
        gt[0, 0] = IGNORE
        pred = np.zeros((2, 2), dtype=np.uint8)
        pred[0, 0] = 1  # disagreement only under IGNORE
        assert miou(LabelMap(pred), LabelMap(gt), 2) == 1.0

    def test_all_ignored(self):
        gt = LabelMap(np.full((2, 2), IGNORE, dtype=np.uint8))
        pred = LabelMap(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(OneClassOnly):
            miou(pred, gt, 2)

    @pytest.mark.parametrize("which", ["gt", "pred"])
    def test_no_label_below_class_count(self, which):
        """Not one of the 5 classes: an error, not a NaN mean."""
        bad = LabelMap(np.array([[5, 6], [7, 5]], dtype=np.uint8))
        good = LabelMap(np.zeros((2, 2), dtype=np.uint8))
        pred, gt = (good, bad) if which == "gt" else (bad, good)
        with pytest.raises(IllegalLabel) as exc:
            miou(pred, gt, 5)
        assert (exc.value.value, exc.value.position) == (5, 0)

    @pytest.mark.parametrize("which", ["gt", "pred"])
    def test_label_past_class_count_beside_valid_ones(self, which):
        bad = LabelMap(np.array([[0, 1], [IGNORE, 2]], dtype=np.uint8))
        good = LabelMap(np.zeros((2, 2), dtype=np.uint8))
        pred, gt = (good, bad) if which == "gt" else (bad, good)
        with pytest.raises(IllegalLabel) as exc:
            miou(pred, gt, 2)
        assert (exc.value.value, exc.value.position) == (2, 3)


def test_evaluation_report_fields():
    s = sp([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    report = evaluation_report(s)
    assert report["auroc"] == 1.0
    assert report["ap"] == 1.0
    assert report["fpr95"] == 0.0
    assert report["counts"] == {"positives": 2, "negatives": 2}


def test_evaluation_report_sorts_once(monkeypatch):
    """The report reads all three ranking metrics from one grouped sort,
    and each one equals its public function to the bit."""
    rng = np.random.default_rng(7)
    s = sp(np.round(rng.normal(0, 1, 500), 1), rng.integers(0, 2, 500))
    calls = []
    grouped = metrics._grouped_counts
    monkeypatch.setattr(metrics, "_grouped_counts",
                        lambda pixels: calls.append(pixels) or grouped(pixels))
    report = evaluation_report(s)
    assert calls == [s]
    assert [report["auroc"], report["ap"], report["fpr95"]] == [
        auroc(s), average_precision(s), fpr_at_tpr(s, 0.95)]
