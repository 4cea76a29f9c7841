"""Pixel-wise evaluation: AUROC, AP, FPR@TPR, mIoU.

Ranking metrics group tied scores at a single threshold and are computed
from one descending sort in O(n log n).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import IGNORE, LabelMap, ScoreMap, check_labels
from .errors import DimMismatch, OneClassOnly


@dataclass(frozen=True)
class ScoredPixels:
    """Flattened (score, binary label) pairs with IGNORE already removed."""

    scores: np.ndarray  # float64 [N]
    labels: np.ndarray  # int [N], 0 = negative/inlier, 1 = positive/outlier

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64).ravel()
        labels = np.asarray(self.labels).astype(np.int64).ravel()
        if scores.shape != labels.shape:
            raise DimMismatch("scores and labels differ in length")
        if not np.isfinite(scores).all():
            raise ValueError("non-finite scores")
        if np.any((labels != 0) & (labels != 1)):
            raise ValueError("labels must be binary")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)

    @property
    def positives(self) -> int:
        return int(self.labels.sum())

    @property
    def negatives(self) -> int:
        return int(self.labels.size - self.labels.sum())

    @classmethod
    def from_maps(cls, scores: ScoreMap, outliers) -> "ScoredPixels":
        lab = outliers.labels if hasattr(outliers, "labels") else np.asarray(outliers)
        if scores.scores.shape != lab.shape:
            raise DimMismatch(
                f"score map {scores.scores.shape} vs labels {lab.shape}")
        keep = lab != IGNORE
        return cls(scores=scores.scores[keep], labels=lab[keep])


def _require_two_classes(sp: ScoredPixels) -> None:
    if sp.positives == 0 or sp.negatives == 0:
        raise OneClassOnly(
            f"need both classes, got {sp.positives} positives / {sp.negatives} negatives")


def _grouped_counts(sp: ScoredPixels):
    """Unique thresholds descending plus cumulative TP / FP at each."""
    order = np.argsort(-sp.scores, kind="stable")
    scores = sp.scores[order]
    labels = sp.labels[order]
    tp_cum = np.cumsum(labels)
    fp_cum = np.cumsum(1 - labels)
    # last index of each tied group
    last = np.nonzero(np.diff(scores) != 0)[0]
    idx = np.concatenate([last, [scores.size - 1]])
    return scores[idx], tp_cum[idx], fp_cum[idx]


def _midranks(scores: np.ndarray) -> np.ndarray:
    """Ascending 1-based ranks, each tied group sharing its mean rank.

    A group at sorted positions a..b gets (a + b + 2) / 2, an integer or a
    half-integer, so every rank is exact in float64.
    """
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    first = np.concatenate([[0], np.nonzero(np.diff(sorted_scores) != 0)[0] + 1])
    last = np.concatenate([first[1:] - 1, [scores.size - 1]])
    group_rank = (first + last + 2) / 2.0
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat(group_rank, last - first + 1)
    return ranks


def auroc(sp: ScoredPixels) -> float:
    """Mann-Whitney statistic: (correct pairs + half the ties) / (P*N)."""
    _require_two_classes(sp)
    ranks = _midranks(sp.scores)  # midranks handle ties exactly
    pos_ranks = ranks[sp.labels == 1]
    p, n = sp.positives, sp.negatives
    u = pos_ranks.sum() - p * (p + 1) / 2.0
    return float(u / (p * n))


def average_precision(sp: ScoredPixels) -> float:
    """Step-sum AP over descending unique thresholds (ties grouped)."""
    _require_two_classes(sp)
    _, tp, fp = _grouped_counts(sp)
    recall = tp / sp.positives
    precision = tp / (tp + fp)
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return float(((recall - prev_recall) * precision).sum())


def fpr_at_tpr(sp: ScoredPixels, tpr: float = 0.95) -> float:
    """FPR at the largest threshold whose TPR >= tpr, no interpolation."""
    _require_two_classes(sp)
    _, tp, fp = _grouped_counts(sp)
    tprs = tp / sp.positives
    ok = np.nonzero(tprs >= tpr)[0]
    if ok.size == 0:
        return 1.0
    return float(fp[ok[0]] / sp.negatives)


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


def evaluation_report(sp: ScoredPixels, tpr: float = 0.95) -> dict:
    return {
        "auroc": auroc(sp),
        "ap": average_precision(sp),
        "fpr95": fpr_at_tpr(sp, tpr),
        "counts": {"positives": sp.positives, "negatives": sp.negatives},
    }
