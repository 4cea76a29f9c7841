"""Whole-frame scoring in window-sized batches.

Every head is pixel-wise, so `score_image` scores each pixel exactly once,
in row-major batches of one window's area; the tile plan sets the batch
size and must be the plan of the frame. The decoder's share of a batch's
memory is bounded by its forward chunks (`neuralcore.CHUNK_ENTRIES` in
all, 1024 rows of its hidden layer shared among the workers), not by the
batch size.

A pixel's score can still depend on its batch in the last bits (by a few
1e-12 on scores of a few 1e3), so the batches are the row blocks of
`neuralcore._row_blocks`, whose one-row-tail rule keeps every batch of a
frame of more than one pixel at two rows or more; a window of one pixel
scores pairs. `score_image` keeps no state: it builds both models of its
bundle on every call, whatever the scorer, so every scorer checks the whole
bundle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datamodel import FeatureMap, ModelBundle, ScoreMap
from .errors import DimMismatch, LlrsegError
from .inlier import inlier_from_bundle, max_inlier_logit
from .neuralcore import _row_blocks
from .uem import llr_score, ood_score, uem_forward, uem_from_bundle
from .inlier import id_score as inlier_id_score


@dataclass(frozen=True)
class TilePlan:
    """The tiling of one frame, each field a (rows, columns) pair: tiles of
    the window start every stride along an axis, the last one clamped to the
    border. It must fit and cover the frame, checked per axis at
    construction: a stride no larger than the window leaves no gap, nor does
    a frame at most twice the window, which the first tile and the clamped
    last one span. `score_image` reads the window area, its batch size."""
    frame: tuple    # (h, w)
    window: tuple   # (h, w)
    stride: tuple   # (sh, sw)

    def __post_init__(self):
        h, w = self.frame
        for dim, win, stride in zip(self.frame, self.window, self.stride):
            if win < 1:
                raise LlrsegError(f"window must be >= 1, got {win}")
            if stride < 1:
                raise LlrsegError("stride must be >= 1")
            if win > dim:
                raise LlrsegError(f"window {self.window} does not fit the {h}x{w} frame")
        gaps = [stride > win and dim > 2 * win
                for dim, win, stride in zip(self.frame, self.window, self.stride)]
        if any(gaps):
            # the first gap of an axis starts where its first tile ends
            y, x = (0, self.window[1]) if gaps[1] else (self.window[0], 0)
            raise LlrsegError(f"tile plan (window {self.window}, stride {self.stride}) "
                              f"leaves pixel ({y}, {x}) of the {h}x{w} image "
                              "uncovered; use a stride no larger than the window")

    def tile_count(self) -> int:
        return math.prod(-(-(dim - win) // stride) + 1
                         for dim, win, stride in zip(self.frame, self.window, self.stride))


def tile_plan(height: int, width: int, window, stride) -> TilePlan:
    """The plan of a height x width frame; windows larger than the frame
    clamp to it. A window below 1 or a stride that leaves a gap between
    tiles is an LlrsegError."""
    wh, ww = (window, window) if np.isscalar(window) else window
    sh, sw = (stride, stride) if np.isscalar(stride) else stride
    return TilePlan(frame=(height, width), window=(min(wh, height), min(ww, width)),
                    stride=(sh, sw))


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
    """Score each pixel once, in the row-major `_row_blocks` of the plan's
    window area (two rows or more unless the frame is one pixel).

    The plan must be the plan of this frame; that is checked before any
    scoring.
    """
    if scorer not in SCORERS:
        raise LlrsegError(f"unknown scorer {scorer!r}, expected one of {SCORERS}")
    if plan.frame != (f.height, f.width):
        raise DimMismatch(f"tile plan of a {plan.frame[0]}x{plan.frame[1]} frame, "
                          f"given a {f.height}x{f.width} frame")
    inlier_model = inlier_from_bundle(stage2)
    uem_model = uem_from_bundle(stage2)
    pixels = f.data.reshape(f.channels, -1)
    n = pixels.shape[1]
    scores = np.empty(n)
    for rows in _row_blocks(n, max(2, plan.window[0] * plan.window[1])):
        batch = FeatureMap(pixels[:, None, rows])
        scores[rows] = _score_tile(inlier_model, uem_model, batch, scorer)[0]
    # read-only, so the map keeps it: a copy of each frame's scores raised
    # the peak RSS of scoring three 128x128 frames by ~0.8 MB
    scores.flags.writeable = False
    return ScoreMap(scores.reshape(f.height, f.width))
