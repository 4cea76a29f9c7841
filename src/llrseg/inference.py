"""Whole-frame scoring in window-sized batches.

Every head is pixel-wise, so `score_image` scores each pixel exactly once,
in row-major batches of one window's area; the tile plan sets the batch
size (and with it the peak memory) and must cover the frame.

A pixel's score can still depend on its batch in the last bits: NumPy
multiplies a one-row batch on its matrix-vector path, which rounds
differently from the matrix-matrix path of every larger batch (by a few
1e-12 on scores of a few 1e3). So no batch has a single row unless the frame
is a single pixel: a window of one pixel scores pairs, and a one-row tail
joins the batch before it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import FeatureMap, ModelBundle, ScoreMap
from .errors import DimMismatch, LlrsegError
from .inlier import inlier_from_bundle, max_inlier_logit
from .uem import llr_score, ood_score, uem_forward, uem_from_bundle
from .inlier import id_score as inlier_id_score


@dataclass(frozen=True)
class TilePlan:
    window: tuple   # (h, w)
    stride: tuple   # (sh, sw)
    origins: list   # [(y, x)] row-major sorted

    def tile_count(self) -> int:
        return len(self.origins)


def _axis_origins(dim: int, win: int, stride: int) -> list[int]:
    if win < 1:
        raise LlrsegError(f"window must be >= 1, got {win}")
    if stride < 1:
        raise LlrsegError("stride must be >= 1")
    if win >= dim:
        return [0]
    starts = list(range(0, dim - win + 1, stride))
    if starts[-1] != dim - win:
        starts.append(dim - win)  # clamp last tile to the border
    return starts


def _check_covers(plan: TilePlan, height: int, width: int) -> None:
    """Every tile lies inside the frame and together they cover every pixel."""
    wh, ww = plan.window
    covered = np.zeros((height, width), dtype=bool)
    for y, x in plan.origins:
        if y < 0 or x < 0 or y + wh > height or x + ww > width:
            raise DimMismatch(f"{wh}x{ww} tile at ({y}, {x}) is not inside "
                              f"the {height}x{width} image")
        covered[y:y + wh, x:x + ww] = True
    if not covered.all():
        y, x = np.argwhere(~covered)[0]
        raise LlrsegError(f"tile plan (window {plan.window}, stride {plan.stride}) "
                          f"leaves pixel ({y}, {x}) of the {height}x{width} image "
                          "uncovered; use a stride no larger than the window")


def tile_plan(height: int, width: int, window, stride) -> TilePlan:
    """Row-major tile origins covering every pixel; windows larger than the
    image clamp to it. A window below 1 or a stride that leaves a gap
    between tiles is an LlrsegError."""
    wh, ww = (window, window) if np.isscalar(window) else window
    sh, sw = (stride, stride) if np.isscalar(stride) else stride
    wh, ww = min(wh, height), min(ww, width)
    ys = _axis_origins(height, wh, sh)
    xs = _axis_origins(width, ww, sw)
    origins = [(y, x) for y in ys for x in xs]
    plan = TilePlan(window=(wh, ww), stride=(sh, sw), origins=origins)
    _check_covers(plan, height, width)
    return plan


SCORERS = ("llr", "id", "ood")


def _score_tile(inlier_model, uem_model, tile: FeatureMap, scorer: str) -> np.ndarray:
    if scorer == "id":
        return inlier_id_score(inlier_model, tile).scores
    log_in, log_out = uem_forward(uem_model, tile)
    if scorer == "ood":
        return ood_score(log_out).scores
    max_logit = max_inlier_logit(inlier_model, tile)
    return llr_score(log_out, log_in, max_logit).scores


def score_image(stage2: ModelBundle, f: FeatureMap, plan: TilePlan,
                scorer: str = "llr") -> ScoreMap:
    """Score each pixel once, in row-major batches of the plan's window
    area (at least two rows; a one-row tail joins the batch before it).

    The plan must cover the frame; that is checked before any scoring.
    """
    if scorer not in SCORERS:
        raise LlrsegError(f"unknown scorer {scorer!r}, expected one of {SCORERS}")
    _check_covers(plan, f.height, f.width)
    inlier_model = inlier_from_bundle(stage2)
    uem_model = uem_from_bundle(stage2) if scorer != "id" else None
    pixels = f.data.reshape(f.channels, -1)
    n = pixels.shape[1]
    batch = max(2, plan.window[0] * plan.window[1])
    starts = list(range(0, n, batch))
    if n % batch == 1 and n > 1:
        starts.pop()  # the one-row tail joins the batch before it
    scores = np.empty(n)
    for start, end in zip(starts, starts[1:] + [n]):
        rows = FeatureMap(pixels[:, None, start:end])
        scores[start:end] = _score_tile(inlier_model, uem_model, rows, scorer)[0]
    return ScoreMap(scores.reshape(f.height, f.width))
