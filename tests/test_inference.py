"""Tile planning and score-once batching, against a visit-averaging oracle."""
import dataclasses
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import llrseg.inference as inference
from llrseg.anomalymix import DatasetConfig, load_split, make_dataset
from llrseg.datamodel import FeatureMap
from llrseg.errors import DimMismatch, LlrsegError
from llrseg.inference import SCORERS, TilePlan, score_image, tile_plan
from llrseg.inlier import InlierConfig, inlier_from_bundle, train_inlier
from llrseg.neuralcore import mlp_forward
from llrseg.uem import LlrConfig, train_uem, uem_from_bundle


def tile_origins(frame, window, stride):
    """Row-major origins of the tiles of a geometry, enumerated: each axis
    starts a tile every stride from 0 and one more at the border if the last
    start leaves it. Windows are clamped to the frame as `tile_plan` clamps
    them; the geometry need not cover the frame."""
    def axis(dim, win, step):
        win = min(win, dim)
        starts = list(range(0, dim - win + 1, step))
        if starts[-1] != dim - win:
            starts.append(dim - win)
        return starts

    ys, xs = (axis(*args) for args in zip(frame, window, stride))
    return [(y, x) for y in ys for x in xs]


def plan_origins(plan):
    return tile_origins(plan.frame, plan.window, plan.stride)


def coverage(frame, window, origins) -> np.ndarray:
    """Which pixels tiles of the window at the origins cover."""
    wh, ww = (min(w, dim) for w, dim in zip(window, frame))
    covered = np.zeros(frame, dtype=bool)
    for y, x in origins:
        assert 0 <= y and y + wh <= frame[0] and 0 <= x and x + ww <= frame[1]
        covered[y:y + wh, x:x + ww] = True
    return covered


class TestTilePlan:
    def test_single_exact_tile(self):
        plan = tile_plan(10, 10, 10, 10)
        assert plan_origins(plan) == [(0, 0)] and plan.tile_count() == 1
        assert plan.frame == (10, 10) and plan.window == (10, 10)

    def test_border_clamp(self):
        plan = tile_plan(10, 18, 10, 8)
        assert plan_origins(plan) == [(0, 0), (0, 8)]
        assert plan.tile_count() == 2

    def test_stride_one_covers_everything(self):
        plan = tile_plan(12, 12, 4, 1)
        assert plan.tile_count() == 81
        assert coverage((12, 12), (4, 4), plan_origins(plan)).all()

    def test_oversized_window_clamps_to_image(self):
        plan = tile_plan(6, 6, 10, 3)
        assert plan.window == (6, 6)
        assert plan_origins(plan) == [(0, 0)] and plan.tile_count() == 1

    def test_zero_stride_rejected(self):
        with pytest.raises(LlrsegError):
            tile_plan(10, 10, 4, 0)

    def test_rule_matches_enumerated_tiles_on_small_frames(self):
        """Every frame up to 12x12 with every window and stride up to 14:
        a plan is legal exactly when its enumerated tiles cover the frame,
        then it counts them; otherwise the error names the first pixel
        (row-major) they leave uncovered."""
        accepted = 0
        for h, w, window, stride in itertools.product(range(1, 13), range(1, 13),
                                                      range(1, 15), range(1, 15)):
            origins = tile_origins((h, w), (window, window), (stride, stride))
            covered = coverage((h, w), (window, window), origins)
            if covered.all():
                assert tile_plan(h, w, window, stride).tile_count() == len(origins)
                accepted += 1
            else:
                y, x = np.argwhere(~covered)[0]
                with pytest.raises(LlrsegError,
                                   match=re.escape(f"leaves pixel ({y}, {x}) of")):
                    tile_plan(h, w, window, stride)
        assert 0 < accepted < 12 * 12 * 14 * 14

    def test_tile_count_is_the_product_of_the_axis_counts(self):
        # ceil((20 - 8) / 5) + 1 = 4 rows, ceil((20 - 6) / 4) + 1 = 5 columns
        assert tile_plan(20, 20, (8, 6), (5, 4)).tile_count() == 20

    @pytest.mark.parametrize("window", [0, -3, (4, 0), (0, 4)])
    def test_window_below_one_rejected(self, window):
        with pytest.raises(LlrsegError, match="window must be >= 1"):
            tile_plan(10, 10, window, 2)

    @pytest.mark.parametrize("window, stride", [(4, 6), ((10, 4), (1, 6)),
                                                ((4, 10), (6, 1))])
    def test_stride_past_window_rejected(self, window, stride):
        # origins 0 and 6 with a 4-wide window leave rows/columns 4-5 uncovered
        with pytest.raises(LlrsegError, match="uncovered"):
            tile_plan(10, 10, window, stride)

    def test_stride_past_window_that_still_covers_is_legal(self):
        # origins 0 and the clamped border tile 2 overlap
        plan = tile_plan(6, 6, 4, 5)
        assert plan_origins(plan) == [(0, 0), (0, 2), (2, 0), (2, 2)]
        assert plan.tile_count() == 4


def stitched_oracle(stage2, f, plan, scorer="llr"):
    """The reference: score every tile of the plan and average each pixel
    over the tiles that visit it. Returns (scores, most visits of a pixel)."""
    inlier_model = inlier_from_bundle(stage2)
    uem_model = uem_from_bundle(stage2)
    wh, ww = plan.window
    total = np.zeros((f.height, f.width))
    visits = np.zeros((f.height, f.width))
    for y, x in plan_origins(plan):
        tile = FeatureMap(f.data[:, y:y + wh, x:x + ww])
        total[y:y + wh, x:x + ww] += inference._score_tile(
            inlier_model, uem_model, tile, scorer)
        visits[y:y + wh, x:x + ww] += 1.0
    assert visits.min() >= 1
    return total / visits, visits.max()


@st.composite
def covering_plans(draw):
    """(h, w, window, stride) with a stride no larger than the window, so
    the plan covers the frame."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    if draw(st.booleans()):
        win = draw(st.integers(1, 40))
        return h, w, win, draw(st.integers(1, win))
    wh, ww = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    # strides only need to stay within the window as clamped to the frame
    sh = draw(st.integers(1, min(wh, h)))
    sw = draw(st.integers(1, min(ww, w)))
    return h, w, (wh, ww), (sh, sw)


@pytest.fixture(scope="module")
def eval_scene(small_dataset_dir):
    f, _, omap = load_split(small_dataset_dir, "eval")[0]
    return f, omap


class TestScoreImage:
    def test_single_tile_equals_whole_image(self, small_stage2, eval_scene):
        f, _ = eval_scene
        whole = tile_plan(f.height, f.width, (f.height, f.width),
                          (f.height, f.width))
        assert whole.tile_count() == 1
        a = score_image(small_stage2, f, whole)
        b = score_image(small_stage2, f, tile_plan(f.height, f.width,
                                                   f.height, f.height))
        assert np.array_equal(a.scores, b.scores)

    @pytest.mark.parametrize("stride", [1, 4, 8, 16])
    def test_stitching_equals_whole_image(self, small_stage2, eval_scene, stride):
        f, _ = eval_scene
        whole = score_image(small_stage2, f,
                            tile_plan(f.height, f.width, f.height, f.height))
        tiled = score_image(small_stage2, f,
                            tile_plan(f.height, f.width, 16, stride))
        # 256-pixel batches against one whole-frame batch
        assert np.abs(tiled.scores - whole.scores).max() < 1e-11

    @pytest.mark.parametrize("scorer", SCORERS)
    def test_all_scorers_produce_finite_maps(self, small_stage2, eval_scene,
                                             scorer):
        f, _ = eval_scene
        plan = tile_plan(f.height, f.width, 16, 8)
        smap = score_image(small_stage2, f, plan, scorer=scorer)
        assert smap.scores.shape == (f.height, f.width)
        assert np.isfinite(smap.scores).all()

    def test_unknown_scorer_rejected(self, small_stage2, eval_scene):
        f, _ = eval_scene
        with pytest.raises(LlrsegError):
            score_image(small_stage2, f, tile_plan(f.height, f.width, 16, 8),
                        scorer="entropy")

    @settings(max_examples=40, deadline=None)
    @given(geometry=covering_plans(), seed=st.integers(0, 2**32 - 1))
    def test_score_once_matches_single_tile_and_oracle(self, small_stage2,
                                                       geometry, seed):
        h, w, window, stride = geometry
        rng = np.random.default_rng(seed)
        f = FeatureMap(rng.normal(0, 2, (inlier_from_bundle(small_stage2).net.in_dim, h, w)))
        plan = tile_plan(h, w, window, stride)
        scores = score_image(small_stage2, f, plan).scores
        whole = score_image(small_stage2, f, tile_plan(h, w, (h, w), (h, w))).scores
        if plan.tile_count() == 1:
            assert np.array_equal(scores, whole)
        assert np.abs(scores - whole).max() <= 1e-12
        oracle, visits = stitched_oracle(small_stage2, f, plan)
        # averaging n equal contributions rounds by up to n ulps of the score
        eps = np.finfo(np.float64).eps
        assert np.all(np.abs(scores - oracle) <= 1e-12 + visits * eps * np.abs(oracle))

    @pytest.mark.parametrize("window, stride", [(16, 8), (24, 12), (5, 3),
                                                ((7, 32), (7, 1)), (32, 32),
                                                (1, 1), ((1, 3), (1, 3))])
    def test_each_pixel_scored_once(self, small_stage2, eval_scene, monkeypatch,
                                    window, stride):
        f, _ = eval_scene
        plan = tile_plan(f.height, f.width, window, stride)
        batches, rows = [], []
        score_tile = inference._score_tile

        def counting_score_tile(inlier_model, uem_model, tile, scorer):
            batches.append(tile.height * tile.width)
            return score_tile(inlier_model, uem_model, tile, scorer)

        def counting_forward(mlp, x, **kwargs):
            rows.append(x.shape[0])
            return mlp_forward(mlp, x, **kwargs)

        monkeypatch.setattr(inference, "_score_tile", counting_score_tile)
        monkeypatch.setattr("llrseg.inlier.mlp_forward", counting_forward)
        monkeypatch.setattr("llrseg.uem.mlp_forward", counting_forward)
        score_image(small_stage2, f, plan)
        batch = max(2, plan.window[0] * plan.window[1])
        assert sum(batches) == f.height * f.width
        # batches of the window area, never a single row: a one-pixel window
        # scores pairs and a one-row tail (1024 = 341 * 3 + 1) joins the
        # batch before it
        assert all(n == batch for n in batches[:-1])
        assert 2 <= batches[-1] <= batch + 1
        # the decoder and the UEM projection each see every pixel once
        assert sum(rows) == 2 * f.height * f.width

    @pytest.mark.parametrize("plan, error, message", [
        (lambda: TilePlan((32, 32), (10, 10), (10, 11)), LlrsegError, "uncovered"),
        (lambda: TilePlan((32, 32), (16, 16), (16, 0)), LlrsegError, "stride must be >= 1"),
        (lambda: TilePlan((32, 32), (0, 16), (16, 16)), LlrsegError, "window must be >= 1"),
        (lambda: TilePlan((32, 32), (16, 33), (16, 16)), LlrsegError,
         "does not fit the 32x32 frame"),
        (lambda: tile_plan(32, 31, 16, 16), DimMismatch, "tile plan of a 32x31 frame"),
        (lambda: tile_plan(16, 32, 16, 16), DimMismatch, "tile plan of a 16x32 frame"),
    ], ids=["gap", "stride-0", "window-0", "window-past-frame", "narrower-frame",
            "shorter-frame"])
    def test_bad_plan_rejected_before_scoring(self, small_stage2, eval_scene,
                                              monkeypatch, plan, error, message):
        """A plan with a bad window or stride cannot be built, and a plan of
        another frame size is rejected before any tile is scored."""
        f, _ = eval_scene
        assert (f.height, f.width) == (32, 32)

        def no_scoring(*args):
            raise AssertionError("scored a tile of a plan that cannot be scored")

        monkeypatch.setattr(inference, "_score_tile", no_scoring)
        with pytest.raises(error, match=message):
            score_image(small_stage2, f, plan())

    def test_deterministic(self, small_stage2, eval_scene):
        f, _ = eval_scene
        plan = tile_plan(f.height, f.width, 16, 8)
        a = score_image(small_stage2, f, plan)
        b = score_image(small_stage2, f, plan)
        assert np.array_equal(a.scores, b.scores)

    def test_scoring_keeps_no_state(self, small_stage2, eval_scene, monkeypatch):
        """Every call builds the models of its bundle, the UEM only for a
        scorer that reads it, and a copy of the bundle gives the same maps
        bit for bit."""
        f, _ = eval_scene
        plan = tile_plan(f.height, f.width, 16, 8)
        scorers = ("id", "id", "llr", "ood", "llr")
        built = []

        def counting(loader):
            def load(bundle):
                built.append((loader.__name__, bundle))
                return loader(bundle)
            return load

        monkeypatch.setattr(inference, "inlier_from_bundle", counting(inlier_from_bundle))
        monkeypatch.setattr(inference, "uem_from_bundle", counting(uem_from_bundle))
        first = [score_image(small_stage2, f, plan, scorer).scores for scorer in scorers]
        inlier, uem = ("inlier_from_bundle", small_stage2), ("uem_from_bundle", small_stage2)
        assert built == [inlier, inlier, inlier, uem, inlier, uem, inlier, uem]
        same = dataclasses.replace(small_stage2)
        again = [score_image(same, f, plan, scorer).scores for scorer in scorers]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))

    def test_default_size_frame_holds_no_hidden_layer_of_a_batch(self, tmp_path):
        """A default-size bundle scores a 128x128 frame in 4096-pixel
        batches, at a peak below one [4096, 1152] hidden layer of its
        decoder: the decoder runs in chunks of fewer rows."""
        make_dataset(DatasetConfig(height=16, width=16, splits=(2, 2, 1)), tmp_path)
        stage1 = train_inlier([(f, l) for f, l, _ in load_split(tmp_path, "train_inlier")],
                              5, InlierConfig(epochs=1))
        stage2 = train_uem(stage1.bundle,
                           [(f, o) for f, _, o in load_split(tmp_path, "train_uem")],
                           LlrConfig(epochs=1)).bundle
        assert [l.out_dim for l in inlier_from_bundle(stage2).net.layers] == [1152, 64]
        f = FeatureMap(np.random.default_rng(0).normal(0, 1, (16, 128, 128)))
        plan = tile_plan(128, 128, 64, 32)
        tracemalloc.start()
        try:
            score_image(stage2, f, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096 * 1152 * 8
