"""Pixel-wise evaluation: AUROC, AP, FPR@TPR, mIoU.

Ranking metrics group tied scores at a single threshold and are all read
from one stable descending sort in O(n log n): AP and FPR@TPR from the
cumulative TP / FP counts at each tie group, AUROC from the same counts in
integers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import IGNORE, BinaryOutlierMap, LabelMap, ScoreMap, check_labels
from .errors import DimMismatch, OneClassOnly


@dataclass(frozen=True)
class ScoredPixels:
    """Flattened (score, binary label) pairs with IGNORE already removed."""

    scores: np.ndarray  # float64 [N]
    labels: np.ndarray  # int [N], 0 = negative/inlier, 1 = positive/outlier

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64).ravel()
        labels = np.asarray(self.labels).ravel()
        if scores.shape != labels.shape:
            raise DimMismatch("scores and labels differ in length")
        if not np.isfinite(scores).all():
            raise ValueError("non-finite scores")
        if np.any((labels != 0) & (labels != 1)):  # before a cast truncates 0.5
            raise ValueError("labels must be binary")
        labels = labels.astype(np.int64)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)

    @property
    def positives(self) -> int:
        return int(self.labels.sum())

    @property
    def negatives(self) -> int:
        return int(self.labels.size - self.labels.sum())

    @classmethod
    def from_maps(cls, scores: ScoreMap, outliers: BinaryOutlierMap) -> "ScoredPixels":
        lab = outliers.labels
        if scores.scores.shape != lab.shape:
            raise DimMismatch(
                f"score map {scores.scores.shape} vs labels {lab.shape}")
        keep = lab != IGNORE
        return cls(scores=scores.scores[keep], labels=lab[keep])


def _grouped_counts(sp: ScoredPixels) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative TP and FP at the last pixel of each tie group, from one
    stable descending sort: the one ranking every ranking metric reads."""
    if sp.positives == 0 or sp.negatives == 0:
        raise OneClassOnly(
            f"need both classes, got {sp.positives} positives / {sp.negatives} negatives")
    order = np.argsort(-sp.scores, kind="stable")
    scores = sp.scores[order]
    last = np.append(np.nonzero(np.diff(scores))[0], scores.size - 1)
    tp = np.cumsum(sp.labels[order])[last]
    return tp, last + 1 - tp


def _auroc(tp: np.ndarray, fp: np.ndarray) -> float:
    """Mann-Whitney U / (P*N), ties counted half. Each group's negatives
    rank below every earlier positive and tie with the group's own, so
    2U = sum(fp_new * (2*tp - tp_new)), an integer divided once."""
    tp_new, fp_new = np.diff(tp, prepend=0), np.diff(fp, prepend=0)
    return float((fp_new * (2 * tp - tp_new)).sum() / (2 * tp[-1] * fp[-1]))


def _average_precision(tp: np.ndarray, fp: np.ndarray) -> float:
    recall = tp / tp[-1]
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(((recall - prev_recall) * (tp / (tp + fp))).sum())


def _fpr_at_tpr(tp: np.ndarray, fp: np.ndarray, tpr: float) -> float:
    ok = np.nonzero(tp / tp[-1] >= tpr)[0]
    return float(fp[ok[0]] / fp[-1]) if ok.size else 1.0


def auroc(sp: ScoredPixels) -> float:
    """Mann-Whitney statistic: (correct pairs + half the ties) / (P*N)."""
    return _auroc(*_grouped_counts(sp))


def average_precision(sp: ScoredPixels) -> float:
    """Step-sum AP over descending unique thresholds (ties grouped)."""
    return _average_precision(*_grouped_counts(sp))


def fpr_at_tpr(sp: ScoredPixels, tpr: float = 0.95) -> float:
    """FPR at the largest threshold whose TPR >= tpr, no interpolation."""
    return _fpr_at_tpr(*_grouped_counts(sp), tpr)


def miou(pred: LabelMap, gt: LabelMap, num_classes: int) -> float:
    """Mean IoU over classes present in gt; IGNORE pixels excluded. A label
    that is neither a class below num_classes nor IGNORE, in either map,
    raises IllegalLabel."""
    if pred.labels.shape != gt.labels.shape:
        raise DimMismatch(
            f"prediction {pred.labels.shape} vs ground truth {gt.labels.shape}")
    check_labels(gt, num_classes)
    check_labels(pred, num_classes)
    valid = gt.labels != IGNORE
    if not valid.any():
        raise OneClassOnly("no non-ignored pixels")
    p = pred.labels[valid].astype(np.int64)
    g = gt.labels[valid].astype(np.int64)
    per_class = {}
    for k in range(num_classes):
        gt_k = g == k
        if not gt_k.any():
            continue
        pred_k = p == k
        tp = int((gt_k & pred_k).sum())
        fp = int((~gt_k & pred_k).sum())
        fn = int((gt_k & ~pred_k).sum())
        per_class[k] = tp / (tp + fp + fn)
    return float(np.mean(list(per_class.values())))


def evaluation_report(sp: ScoredPixels) -> dict:
    """AUROC, AP and FPR at TPR 0.95, all read from one grouped sort."""
    tp, fp = _grouped_counts(sp)
    return {"auroc": _auroc(tp, fp), "ap": _average_precision(tp, fp),
            "fpr95": _fpr_at_tpr(tp, fp, 0.95),
            "counts": {"positives": sp.positives, "negatives": sp.negatives}}
