"""Tile planning and score-once batching, against a visit-averaging oracle."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import llrseg.inference as inference
from llrseg.anomalymix import load_split
from llrseg.datamodel import FeatureMap
from llrseg.errors import DimMismatch, LlrsegError
from llrseg.inference import SCORERS, TilePlan, score_image, tile_plan
from llrseg.inlier import inlier_from_bundle
from llrseg.neuralcore import mlp_forward
from llrseg.uem import uem_from_bundle


class TestTilePlan:
    def test_single_exact_tile(self):
        plan = tile_plan(10, 10, 10, 10)
        assert plan.origins == [(0, 0)]
        assert plan.window == (10, 10)

    def test_border_clamp(self):
        plan = tile_plan(10, 18, 10, 8)
        xs = sorted({x for _, x in plan.origins})
        assert xs == [0, 8]
        covered = np.zeros(18, dtype=bool)
        for x in xs:
            covered[x:x + 10] = True
        assert covered.all()

    def test_stride_one_covers_everything(self):
        plan = tile_plan(12, 12, 4, 1)
        assert len({y for y, _ in plan.origins}) == 9
        covered = np.zeros((12, 12), dtype=bool)
        for y, x in plan.origins:
            covered[y:y + 4, x:x + 4] = True
        assert covered.all()

    def test_oversized_window_clamps_to_image(self):
        plan = tile_plan(6, 6, 10, 3)
        assert plan.window == (6, 6)
        assert plan.origins == [(0, 0)]

    def test_zero_stride_rejected(self):
        with pytest.raises(LlrsegError):
            tile_plan(10, 10, 4, 0)

    def test_coverage_over_many_geometries(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            h, w = rng.integers(3, 30, 2)
            win = int(rng.integers(1, 12))
            stride = int(rng.integers(1, win + 1))  # coverage needs stride <= window
            plan = tile_plan(h, w, win, stride)
            wh, ww = plan.window
            covered = np.zeros((h, w), dtype=bool)
            for y, x in plan.origins:
                assert y + wh <= h and x + ww <= w
                covered[y:y + wh, x:x + ww] = True
            assert covered.all()

    def test_origins_row_major(self):
        plan = tile_plan(20, 20, 8, 4)
        assert plan.origins == sorted(plan.origins)

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
        assert plan.origins == [(0, 0), (0, 2), (2, 0), (2, 2)]


def stitched_oracle(stage2, f, plan, scorer="llr"):
    """The reference: score every tile of the plan and average each pixel
    over the tiles that visit it. Returns (scores, most visits of a pixel)."""
    inlier_model = inlier_from_bundle(stage2)
    inlier_model.frozen = True
    uem_model = uem_from_bundle(stage2)
    wh, ww = plan.window
    total = np.zeros((f.height, f.width))
    visits = np.zeros((f.height, f.width))
    for y, x in plan.origins:
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

    @pytest.mark.parametrize("origins, error", [
        ([(0, 0), (0, 16), (16, 0)], LlrsegError),            # quadrant missing
        ([(0, 0), (0, 16), (16, 0), (16, 17)], DimMismatch),  # past the border
        ([(-1, 0), (0, 16), (16, 0), (16, 16)], DimMismatch),  # before the border
    ])
    def test_bad_plan_rejected_before_scoring(self, small_stage2, eval_scene,
                                              monkeypatch, origins, error):
        f, _ = eval_scene
        assert (f.height, f.width) == (32, 32)

        def no_scoring(*args):
            raise AssertionError("scored a tile of a plan that cannot be scored")

        monkeypatch.setattr(inference, "_score_tile", no_scoring)
        with pytest.raises(error):
            score_image(small_stage2, f, TilePlan((16, 16), (16, 16), origins))

    def test_deterministic(self, small_stage2, eval_scene):
        f, _ = eval_scene
        plan = tile_plan(f.height, f.width, 16, 8)
        a = score_image(small_stage2, f, plan)
        b = score_image(small_stage2, f, plan)
        assert np.array_equal(a.scores, b.scores)

    def test_models_built_once_per_bundle(self, small_stage2, eval_scene, monkeypatch):
        """Frames scored with one bundle share its models; the UEM is built
        only for a scorer that reads it."""
        f, _ = eval_scene
        plan = tile_plan(f.height, f.width, 16, 8)
        built = []

        def counting(loader):
            def load(bundle):
                built.append((loader.__name__, bundle))
                return loader(bundle)
            return load

        monkeypatch.setattr(inference, "_built", {})
        monkeypatch.setattr(inference, "inlier_from_bundle", counting(inlier_from_bundle))
        monkeypatch.setattr(inference, "uem_from_bundle", counting(uem_from_bundle))
        first = [score_image(small_stage2, f, plan, scorer).scores
                 for scorer in ("id", "id", "llr", "ood", "llr")]
        assert built == [("inlier_from_bundle", small_stage2),
                         ("uem_from_bundle", small_stage2)]
        same = dataclasses.replace(small_stage2)
        again = [score_image(same, f, plan, scorer).scores
                 for scorer in ("id", "id", "llr", "ood", "llr")]
        assert built[2:] == [("inlier_from_bundle", same), ("uem_from_bundle", same)]
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
