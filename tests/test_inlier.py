"""Stage-1 segmentor: logits, predictions, scores, and training."""
from dataclasses import replace

import numpy as np
import pytest

from llrseg import inlier
from llrseg.anomalymix import random_spec, synth_scene
from llrseg.datamodel import FeatureMap, LabelMap, ModelBundle, tensor_digest
from llrseg.errors import LlrsegError
from llrseg.gmm import VAR_FLOOR, GmmHead, component_log_densities, init_head, refresh
from llrseg.inlier import (
    DISCRIMINATIVE,
    GENERATIVE,
    InlierConfig,
    PixelModel,
    bundle_from_inlier,
    fit,
    holdout_split,
    id_score,
    inlier_from_bundle,
    inlier_logits,
    inlier_predict,
    max_inlier_logit,
    train_inlier,
)
from llrseg.neuralcore import (
    DenseLayer,
    Mlp,
    make_mlp,
    mlp_forward,
    softmax_cross_entropy,
    xavier_dense,
)


def make_disc_model(rng, c_e=4, c_d=6, k=3):
    decoder = make_mlp([c_e, 8, c_d], rng)
    head = xavier_dense(c_d, k, rng)
    return PixelModel(net=decoder, head=head)


class TestLogits:
    def test_zero_discriminative_head(self):
        rng = np.random.default_rng(0)
        m = make_disc_model(rng)
        m = replace(m, head=replace(m.head, weight=np.zeros_like(m.head.weight),
                                    bias=np.zeros_like(m.head.bias)))
        f = FeatureMap(rng.normal(0, 1, (4, 5, 5)))
        assert np.all(inlier_logits(m, f) == 0.0)

    def test_generative_single_class_single_component(self):
        rng = np.random.default_rng(1)
        decoder = make_mlp([4, 8, 3], rng)
        mu = rng.normal(0, 1, 3)
        var = rng.uniform(0.5, 2.0, 3)
        head = GmmHead(means=mu[None, None], variances=var[None, None])
        m = PixelModel(net=decoder, head=head)
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
        decoded, _ = mlp_forward(m.net, f.pixels())
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
        m = PixelModel(net=decoder, head=head)
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
        head = xavier_dense(6, 1, rng)
        m = PixelModel(net=decoder, head=head)
        f = FeatureMap(rng.normal(0, 1, (4, 3, 3)))
        assert np.array_equal(max_inlier_logit(m, f), inlier_logits(m, f)[0])

    def test_constant_shift_equivariance(self):
        rng = np.random.default_rng(6)
        m = make_disc_model(rng)
        f = FeatureMap(rng.normal(0, 1, (4, 3, 3)))
        base = max_inlier_logit(m, f)
        m = replace(m, head=replace(m.head, bias=m.head.bias + 2.5))
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


def make_gen_model(rng, c_e=4, c_d=6, k=3, c=2):
    decoder = make_mlp([c_e, 8, c_d], rng)
    head = GmmHead(means=rng.normal(0, 1, (k, c, c_d)),
                   variances=rng.uniform(0.5, 2.0, (k, c, c_d)))
    return PixelModel(net=decoder, head=head)


def make_wide_disc_model(rng, c_e=4, k=3):
    """The default decoder's widths, 1152 and 64, over c_e channels."""
    decoder = make_mlp([c_e, 1152, 64], rng)
    return PixelModel(net=decoder, head=xavier_dense(64, k, rng))


class TestTensors:
    @pytest.mark.parametrize("names", [("net", "head"), ("uem.proj", "uem.head")])
    @pytest.mark.parametrize("make", [make_disc_model, make_gen_model])
    def test_from_tensors_round_trip_is_bitwise(self, make, names):
        """The tensors alone give the model back: the head's kind by its
        tensor names, the MLP's depth by its layer names."""
        rng = np.random.default_rng(30)
        m = make(rng)
        rebuilt = PixelModel.from_tensors(m.tensors(names), names)
        assert type(rebuilt.head) is type(m.head)
        assert len(rebuilt.net.layers) == len(m.net.layers)
        assert rebuilt.tensors().keys() == m.tensors().keys()
        assert all(t.tobytes() == rebuilt.tensors()[name].tobytes()
                   for name, t in m.tensors().items())
        f = FeatureMap(rng.normal(0, 1, (4, 5, 3)))
        assert inlier_logits(rebuilt, f).tobytes() == inlier_logits(m, f).tobytes()

    def test_names(self):
        m = make_gen_model(np.random.default_rng(31))
        assert list(m.tensors()) == ["net.0.weight", "net.0.bias", "net.1.weight",
                                     "net.1.bias", "head.means", "head.vars"]
        named = m.tensors(("decoder", "head"))
        assert list(named) == ["decoder.0.weight", "decoder.0.bias", "decoder.1.weight",
                               "decoder.1.bias", "head.means", "head.vars"]
        assert m.parameter_count() == sum(t.size for t in m.tensors().values())


class TestFit:
    CFG = InlierConfig(epochs=2, batch_size=16, lr=1e-2, gmm_components=2,
                       gmm_max_pixels_per_class=64)

    @staticmethod
    def cross_entropy(y):
        def loss(head, z, idx):
            logits, head_backward = head.logits_with_grad(z)
            value, d_logits = softmax_cross_entropy(logits, y[idx])
            d_z, head_grads = head_backward(d_logits)
            return value, d_z, head_grads
        return loss

    @pytest.mark.parametrize("make", [make_disc_model, make_gen_model])
    def test_leaves_its_model_unchanged(self, make):
        rng = np.random.default_rng(32)
        m = make(rng)
        net, head = m.net, m.head
        before = {name: t.copy() for name, t in m.tensors().items()}
        x = rng.normal(0, 1, (40, 4))
        y = rng.integers(0, 3, 40)
        trained, losses, _ = fit(m, x, y, self.cross_entropy(y), rng, self.CFG)
        assert m.net is net and m.head is head
        for name, t in m.tensors().items():
            assert t.tobytes() == before[name].tobytes(), name
        assert len(losses) == 2
        assert all(not np.array_equal(t, before[name])
                   for name, t in trained.tensors().items())

    @pytest.mark.parametrize("make", [make_disc_model, make_gen_model,
                                      make_wide_disc_model])
    def test_reused_tape_equals_fresh_tapes(self, monkeypatch, make):
        """Each step's forward refills the tape the step before spent; a fit
        whose steps each take a fresh tape gives the same bits, with a tail
        batch (40 rows in batches of 16) in every epoch."""
        rng = np.random.default_rng(33)
        m = make(rng)
        x = rng.normal(0, 1, (40, 4))
        y = rng.integers(0, 3, 40)
        refilled = []

        def forward(net, rows, tape=True):
            refilled.append(not isinstance(tape, bool))
            return mlp_forward(net, rows, tape=tape)

        monkeypatch.setattr(inlier, "mlp_forward", forward)
        reused, losses, _ = fit(m, x, y, self.cross_entropy(y),
                                np.random.default_rng(34), self.CFG)
        assert sum(refilled) == 2 * 3 - 1  # every step but the first
        monkeypatch.setattr(inlier, "mlp_forward",
                            lambda net, rows, tape=True: mlp_forward(net, rows, tape=bool(tape)))
        fresh, fresh_losses, _ = fit(m, x, y, self.cross_entropy(y),
                                     np.random.default_rng(34), self.CFG)
        assert losses == fresh_losses
        for name, t in fresh.tensors().items():
            assert reused.tensors()[name].tobytes() == t.tobytes(), name


def digests(bundle: ModelBundle) -> dict:
    return {name: tensor_digest(t) for name, t in bundle.tensors.items()}


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
        assert digests(a) == digests(b)

    def test_same_seed_identical_bundles(self):
        dataset = separable_dataset(seed=3)
        cfg = InlierConfig(head_kind=DISCRIMINATIVE, decoder_hidden=32,
                           decoder_dim=8, epochs=2, seed=9)
        a = train_inlier(dataset, 3, cfg).bundle
        b = train_inlier(dataset, 3, cfg).bundle
        assert digests(a) == digests(b)

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
        with pytest.raises(ValueError, match="head_kind must be one of "
                           r"\('generative', 'discriminative'\), got 'linear'"):
            InlierConfig(head_kind="linear")


class TestGenerativeStage1:
    """A GMM head keeps the seeded decoder and is fitted by Sinkhorn EM
    alone, on decoder outputs computed once."""

    CFG = InlierConfig(decoder_hidden=32, decoder_dim=6, epochs=3, batch_size=100,
                       gmm_components=2, gmm_max_pixels_per_class=150, seed=3)

    @staticmethod
    def noisy_dataset(scenes=4, k=3):
        """Random features and labels: classes overlap, so the cross-entropy
        is far from 0 and a decoder that trained would move."""
        rng = np.random.default_rng(21)
        return [(FeatureMap(rng.normal(0, 1, (5, 12, 12))),
                 LabelMap(rng.integers(0, k, (12, 12)))) for _ in range(scenes)]

    @staticmethod
    def seeded_decoder(cfg, feature_dim):
        """The rng of `train_inlier` and the decoder it draws first."""
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x1]))
        return rng, make_mlp([feature_dim, cfg.decoder_hidden, cfg.decoder_dim], rng)

    @staticmethod
    def stored(tensors: dict, prefix: str) -> dict:
        """`tensors` as a bundle stores them, each named `{prefix}.{name}`."""
        return {f"{prefix}.{name}": np.float32(t).astype(np.float64)
                for name, t in tensors.items()}

    def test_decoder_is_the_seeded_one(self):
        dataset = self.noisy_dataset()
        bundle = train_inlier(dataset, 3, self.CFG).bundle
        _, decoder = self.seeded_decoder(self.CFG, 5)
        want = self.stored(decoder.tensors(), "decoder")
        for name, t in want.items():
            assert bundle.tensors[name].tobytes() == t.tobytes(), name
        for i in range(len(decoder.layers)):
            bias = bundle.tensors[f"decoder.{i}.bias"]
            assert np.all(bias == 0.0) and not np.signbit(bias).any()

    def test_no_backward_pass_or_optimizer_step(self, monkeypatch):
        calls = {"mlp_backward": 0, "optimizer_step": 0}

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        for name in calls:
            monkeypatch.setattr(inlier, name, counted(name, getattr(inlier, name)))
        train_inlier(self.noisy_dataset(), 3, self.CFG)
        assert calls == {"mlp_backward": 0, "optimizer_step": 0}
        cfg = replace(self.CFG, head_kind=DISCRIMINATIVE)
        train_inlier(self.noisy_dataset(), 3, cfg)  # the counters do count
        assert calls["mlp_backward"] == calls["optimizer_step"] > 0

    def test_head_and_losses_replay_from_library_calls(self):
        dataset, cfg = self.noisy_dataset(), self.CFG
        result = train_inlier(dataset, 3, cfg)
        rng, decoder = self.seeded_decoder(cfg, 5)
        train_idx, _ = holdout_split(len(dataset))
        x = np.concatenate([dataset[i][0].pixels() for i in train_idx])
        y = np.concatenate([dataset[i][1].labels.ravel() for i in train_idx]).astype(int)
        z, _ = mlp_forward(decoder, x)
        by_class = [z[y == k] for k in range(3)]
        head = init_head(by_class, cfg.gmm_components, rng)
        losses = []
        for _ in range(cfg.epochs):
            order = rng.permutation(len(x))
            batches = [order[s:s + cfg.batch_size] for s in range(0, len(x), cfg.batch_size)]
            batch_losses = [softmax_cross_entropy(head.logits(z[b]), y[b])[0]
                            for b in batches]
            losses.append(sum(batch_losses) / len(batch_losses))
            head = refresh(head, by_class, rng, cfg.gmm_epsilon, cfg.gmm_sinkhorn_iters,
                           cfg.gmm_momentum, cfg.gmm_max_pixels_per_class, {})
        want = self.stored(head.tensors(), "head")
        for name, t in want.items():
            assert result.bundle.tensors[name].tobytes() == t.tobytes(), name
        assert result.loss_history == losses
        assert min(losses) > 0.1

    def test_discriminative_decoder_still_trains(self):
        cfg = replace(self.CFG, head_kind=DISCRIMINATIVE)
        bundle = train_inlier(self.noisy_dataset(), 3, cfg).bundle
        _, decoder = self.seeded_decoder(cfg, 5)
        for name, t in self.stored(decoder.tensors(), "decoder").items():
            assert not np.array_equal(bundle.tensors[name], t), name


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
        m = PixelModel(net=make_mlp([4, 8, 3], rng), head=head)
        cfg = InlierConfig(decoder_dim=3, gmm_components=2)
        reloaded = inlier_from_bundle(bundle_from_inlier(m, cfg, None))
        assert reloaded.head.variances[1, 0, 2] == VAR_FLOOR
        assert np.all(reloaded.head.variances >= VAR_FLOOR)
