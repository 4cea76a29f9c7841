"""Likelihood-ratio out-of-distribution segmentation over dense feature maps."""

from .datamodel import (
    IGNORE,
    BinaryOutlierMap,
    FeatureMap,
    LabelMap,
    ModelBundle,
    ScoreMap,
)
from .gmm import GmmHead, SinkhornPlan, gmm_all_log_densities, sinkhorn_assign
from .inlier import InlierConfig, PixelModel, id_score, inlier_predict, train_inlier
from .uem import LlrConfig, llr_score, ood_score, train_uem
from .metrics import ScoredPixels, auroc, average_precision, fpr_at_tpr, miou
from .inference import TilePlan, score_image, tile_plan

__all__ = [
    "IGNORE",
    "BinaryOutlierMap",
    "FeatureMap",
    "LabelMap",
    "ModelBundle",
    "ScoreMap",
    "GmmHead",
    "SinkhornPlan",
    "gmm_all_log_densities",
    "sinkhorn_assign",
    "InlierConfig",
    "PixelModel",
    "id_score",
    "inlier_predict",
    "train_inlier",
    "LlrConfig",
    "llr_score",
    "ood_score",
    "train_uem",
    "ScoredPixels",
    "auroc",
    "average_precision",
    "fpr_at_tpr",
    "miou",
    "TilePlan",
    "score_image",
    "tile_plan",
]

__version__ = "0.1.0"
