"""Whole-frame scoring in window-sized batches.

Every head is pixel-wise, so `score_image` scores each pixel exactly once,
in row-major batches of one window's area; the tile plan sets the batch
size (and with it the peak memory) and must be the plan of the frame.

A pixel's score can still depend on its batch in the last bits: NumPy
multiplies a one-row batch on its matrix-vector path, which rounds
differently from the matrix-matrix path of every larger batch (by a few
1e-12 on scores of a few 1e3). So no batch has a single row unless the frame
is a single pixel: a window of one pixel scores pairs, and a one-row tail
joins the batch before it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datamodel import FeatureMap, ModelBundle, ScoreMap
from .errors import DimMismatch, LlrsegError
from .inlier import inlier_from_bundle, max_inlier_logit
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

# the models of the bundle scored last: a ModelBundle is immutable, so a run
# that scores many frames with one bundle builds its models once
_built: dict = {}


def _models(stage2: ModelBundle, scorer: str):
    """(inlier model, UEM model or None for the id scorer) of stage2."""
    if _built.get("bundle") is not stage2:
        _built.clear()
        _built["inlier"] = inlier_from_bundle(stage2)
        _built["bundle"] = stage2
    if scorer != "id" and "uem" not in _built:
        _built["uem"] = uem_from_bundle(stage2)
    return _built["inlier"], _built.get("uem") if scorer != "id" else None


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

    The plan must be the plan of this frame; that is checked before any
    scoring.
    """
    if scorer not in SCORERS:
        raise LlrsegError(f"unknown scorer {scorer!r}, expected one of {SCORERS}")
    if plan.frame != (f.height, f.width):
        raise DimMismatch(f"tile plan of a {plan.frame[0]}x{plan.frame[1]} frame, "
                          f"given a {f.height}x{f.width} frame")
    inlier_model, uem_model = _models(stage2, scorer)
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
