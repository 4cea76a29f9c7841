"""Stage-1 segmentor: logits, predictions, scores, and training."""
import numpy as np
import pytest

from llrseg.anomalymix import random_spec, synth_scene
from llrseg.datamodel import FeatureMap, LabelMap, ModelBundle
from llrseg.errors import LlrsegError
from llrseg.gmm import VAR_FLOOR, GmmHead, component_log_densities
from llrseg.inlier import (
    DISCRIMINATIVE,
    GENERATIVE,
    InlierConfig,
    InlierModel,
    bundle_from_inlier,
    id_score,
    inlier_from_bundle,
    inlier_logits,
    inlier_predict,
    max_inlier_logit,
    train_inlier,
)
from llrseg.neuralcore import DenseLayer, Mlp, make_mlp, mlp_forward, xavier_dense


def make_disc_model(rng, c_e=4, c_d=6, k=3):
    decoder = make_mlp([c_e, 8, c_d], rng)
    head = xavier_dense(c_d, k, "identity", rng)
    return InlierModel(decoder=decoder, head=head, num_classes=k,
                       head_kind=DISCRIMINATIVE)


class TestLogits:
    def test_zero_discriminative_head(self):
        rng = np.random.default_rng(0)
        m = make_disc_model(rng)
        m.head.weight = np.zeros_like(m.head.weight)
        m.head.bias = np.zeros_like(m.head.bias)
        f = FeatureMap(rng.normal(0, 1, (4, 5, 5)))
        assert np.all(inlier_logits(m, f) == 0.0)

    def test_generative_single_class_single_component(self):
        rng = np.random.default_rng(1)
        decoder = make_mlp([4, 8, 3], rng)
        mu = rng.normal(0, 1, 3)
        var = rng.uniform(0.5, 2.0, 3)
        head = GmmHead(means=mu[None, None], variances=var[None, None])
        m = InlierModel(decoder=decoder, head=head, num_classes=1,
                        head_kind=GENERATIVE)
        f = FeatureMap(rng.normal(0, 1, (4, 2, 2)))
        logits = inlier_logits(m, f)
        decoded, _ = mlp_forward(decoder, f.pixels())
        for i in range(4):
            want = component_log_densities(decoded[i:i + 1], head, 0)[0, 0]
            assert logits[0].ravel()[i] == pytest.approx(want, abs=1e-12)

    def test_matches_composed_oracle(self):
        rng = np.random.default_rng(2)
        m = make_disc_model(rng)
        f = FeatureMap(rng.normal(0, 1, (4, 3, 3)))
        decoded, _ = mlp_forward(m.decoder, f.pixels())
        want = decoded @ m.head.weight.T + m.head.bias
        got = inlier_logits(m, f).reshape(3, -1).T
        assert np.allclose(got, want, atol=1e-10)


class TestPredict:
    def test_argmax(self):
        rng = np.random.default_rng(3)
        m = make_disc_model(rng)
        f = FeatureMap(rng.normal(0, 1, (4, 6, 6)))
        pred = inlier_predict(m, f)
        logits = inlier_logits(m, f)
        want = logits.argmax(axis=0)
        assert np.array_equal(pred.labels, want)

    def test_tie_breaks_toward_smaller_index(self):
        decoder = Mlp([DenseLayer(weight=np.eye(2), bias=np.zeros(2))])
        head = DenseLayer(weight=np.zeros((3, 2)), bias=np.zeros(3))
        m = InlierModel(decoder=decoder, head=head, num_classes=3,
                        head_kind=DISCRIMINATIVE)
        f = FeatureMap(np.ones((2, 2, 2)))
        assert np.all(inlier_predict(m, f).labels == 0)

    def test_matches_per_pixel_scan(self):
        rng = np.random.default_rng(4)
        m = make_disc_model(rng)
        f = FeatureMap(rng.normal(0, 1, (4, 4, 4)))
        logits = inlier_logits(m, f)
        pred = inlier_predict(m, f)
        for y in range(4):
            for x in range(4):
                best, best_k = -np.inf, 0
                for k in range(3):
                    if logits[k, y, x] > best:
                        best, best_k = logits[k, y, x], k
                assert pred.labels[y, x] == best_k


class TestMaxLogitAndIdScore:
    def test_single_class_equals_its_logit(self):
        rng = np.random.default_rng(5)
        decoder = make_mlp([4, 8, 6], rng)
        head = xavier_dense(6, 1, "identity", rng)
        m = InlierModel(decoder=decoder, head=head, num_classes=1,
                        head_kind=DISCRIMINATIVE)
        f = FeatureMap(rng.normal(0, 1, (4, 3, 3)))
        assert np.array_equal(max_inlier_logit(m, f), inlier_logits(m, f)[0])

    def test_constant_shift_equivariance(self):
        rng = np.random.default_rng(6)
        m = make_disc_model(rng)
        f = FeatureMap(rng.normal(0, 1, (4, 3, 3)))
        base = max_inlier_logit(m, f)
        m.head.bias = m.head.bias + 2.5
        assert np.allclose(max_inlier_logit(m, f), base + 2.5, atol=1e-12)

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(7)
        m = make_disc_model(rng)
        f = FeatureMap(rng.normal(0, 1, (4, 5, 5)))
        logits = inlier_logits(m, f)
        got = max_inlier_logit(m, f)
        for y in range(5):
            for x in range(5):
                assert got[y, x] == max(logits[k, y, x] for k in range(3))

    def test_id_score_reverses_ordering(self):
        rng = np.random.default_rng(8)
        m = make_disc_model(rng)
        f = FeatureMap(rng.normal(0, 1, (4, 6, 6)))
        mx = max_inlier_logit(m, f).ravel()
        sc = id_score(m, f).scores.ravel()
        assert np.array_equal(np.argsort(sc), np.argsort(-mx))


def separable_dataset(seed=0, scenes=3):
    rng = np.random.default_rng(seed)
    spec = random_spec(3, 8, 24, 24, rng)
    return [synth_scene(spec, rng) for _ in range(scenes)]


class TestTrainInlier:
    def test_separable_data_reaches_high_miou(self):
        dataset = separable_dataset()
        cfg = InlierConfig(head_kind=DISCRIMINATIVE, decoder_hidden=64,
                           decoder_dim=16, epochs=8, lr=1e-2, seed=0)
        result = train_inlier(dataset, 3, cfg)
        assert result.miou >= 0.99

    def test_generative_head_trains(self):
        dataset = separable_dataset(seed=1)
        cfg = InlierConfig(head_kind=GENERATIVE, decoder_hidden=64,
                           decoder_dim=16, epochs=3, gmm_components=3, seed=1)
        result = train_inlier(dataset, 3, cfg)
        assert result.miou >= 0.99

    def test_zero_epochs_digest_stable(self, tmp_path):
        dataset = separable_dataset(seed=2)
        cfg = InlierConfig(decoder_hidden=32, decoder_dim=8, epochs=0,
                           gmm_components=2, seed=5)
        a = train_inlier(dataset, 3, cfg).bundle
        b = train_inlier(dataset, 3, cfg).bundle
        assert a.digests() == b.digests()

    def test_same_seed_identical_bundles(self):
        dataset = separable_dataset(seed=3)
        cfg = InlierConfig(head_kind=DISCRIMINATIVE, decoder_hidden=32,
                           decoder_dim=8, epochs=2, seed=9)
        a = train_inlier(dataset, 3, cfg).bundle
        b = train_inlier(dataset, 3, cfg).bundle
        assert a.digests() == b.digests()

    def test_absent_class_warns(self):
        dataset = separable_dataset(seed=4)
        cfg = InlierConfig(head_kind=DISCRIMINATIVE, decoder_hidden=32,
                           decoder_dim=8, epochs=1, seed=0)
        result = train_inlier(dataset, 4, cfg)  # class 3 never occurs
        assert any("class 3" in w for w in result.warnings)

    def test_one_scene_heldout_warns(self):
        dataset = separable_dataset(seed=4, scenes=1)
        cfg = InlierConfig(head_kind=DISCRIMINATIVE, decoder_hidden=32,
                           decoder_dim=8, epochs=1, seed=0)
        result = train_inlier(dataset, 3, cfg)
        assert any("training-set mIoU" in w for w in result.warnings)

    def test_several_scenes_do_not_warn_about_heldout(self):
        cfg = InlierConfig(head_kind=DISCRIMINATIVE, decoder_hidden=32,
                           decoder_dim=8, epochs=1, seed=0)
        result = train_inlier(separable_dataset(seed=4), 3, cfg)
        assert not any("training-set mIoU" in w for w in result.warnings)

    def test_empty_dataset_rejected(self):
        with pytest.raises(LlrsegError):
            train_inlier([], 3, InlierConfig())

    def test_unknown_head_kind_rejected(self):
        with pytest.raises(LlrsegError, match="head kind"):
            train_inlier(separable_dataset(seed=4), 3, InlierConfig(head_kind="linear"))


class TestBundleRoundTrip:
    def test_reload_predicts_identically(self, tmp_path):
        dataset = separable_dataset(seed=5)
        cfg = InlierConfig(head_kind=DISCRIMINATIVE, decoder_hidden=32,
                           decoder_dim=8, epochs=2, seed=3)
        bundle = train_inlier(dataset, 3, cfg).bundle
        bundle.save(tmp_path / "b")
        reloaded = ModelBundle.load(tmp_path / "b")
        a = inlier_from_bundle(bundle)
        b = inlier_from_bundle(reloaded)
        f = dataset[0][0]
        assert np.array_equal(inlier_predict(a, f).labels,
                              inlier_predict(b, f).labels)
        assert np.array_equal(inlier_logits(a, f), inlier_logits(b, f))

    def test_generative_bundle_round_trip(self, tmp_path):
        dataset = separable_dataset(seed=6)
        cfg = InlierConfig(head_kind=GENERATIVE, decoder_hidden=32,
                           decoder_dim=8, epochs=1, gmm_components=2, seed=4)
        bundle = train_inlier(dataset, 3, cfg).bundle
        bundle.save(tmp_path / "b")
        reloaded = ModelBundle.load(tmp_path / "b")
        f = dataset[0][0]
        assert np.array_equal(
            inlier_logits(inlier_from_bundle(bundle), f),
            inlier_logits(inlier_from_bundle(reloaded), f))

    def test_variance_at_floor_survives_float32_round_trip(self):
        # float32(VAR_FLOOR) is just below VAR_FLOOR
        assert float(np.float32(VAR_FLOOR)) < VAR_FLOOR
        rng = np.random.default_rng(7)
        variances = rng.uniform(0.5, 2.0, (2, 2, 3))
        variances[1, 0, 2] = VAR_FLOOR
        head = GmmHead(means=rng.normal(0, 1, (2, 2, 3)), variances=variances)
        m = InlierModel(decoder=make_mlp([4, 8, 3], rng), head=head,
                        num_classes=2, head_kind=GENERATIVE)
        cfg = InlierConfig(decoder_dim=3, gmm_components=2)
        reloaded = inlier_from_bundle(bundle_from_inlier(m, cfg))
        assert reloaded.head.variances[1, 0, 2] == VAR_FLOOR
        assert np.all(reloaded.head.variances >= VAR_FLOOR)
