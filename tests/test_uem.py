"""UEM forward, the three-term ratio score, its loss, and stage-2 training."""
from dataclasses import replace

import numpy as np
import pytest

from llrseg.datamodel import (
    IGNORE,
    BinaryOutlierMap,
    FeatureMap,
    LabelMap,
    ModelBundle,
    tensor_digest,
)
from llrseg.errors import AllIgnored, DimMismatch, FreezeViolation, IllegalLabel, LlrsegError
from llrseg.gmm import GmmHead, component_log_densities, gmm_all_log_densities_with_grad
from llrseg.inlier import (
    DISCRIMINATIVE,
    GENERATIVE,
    InlierConfig,
    STAGE1_NAMES,
    PixelModel,
    stage1_tensor_names,
    train_inlier,
)
from llrseg.neuralcore import (
    make_mlp,
    mlp_forward,
    sigmoid_bce_with_logits,
    softmax_cross_entropy,
    xavier_dense,
)
from llrseg.uem import (
    INLIER_CLASS,
    OUTLIER_CLASS,
    UEM_NAMES,
    LlrConfig,
    _contrast_loss,
    _loss_and_grads,
    build_uem,
    llr_loss,
    llr_score,
    ood_score,
    train_uem,
    uem_forward,
    uem_from_bundle,
    verify_freeze,
)
from llrseg.selfcheck import llr_grad_error

from test_inlier import digests, separable_dataset


class TestUemForward:
    def test_zero_discriminative_head(self):
        rng = np.random.default_rng(2)
        u = build_uem(4, 6, 5, DISCRIMINATIVE, 2, rng)
        u = replace(u, head=replace(u.head, weight=np.zeros_like(u.head.weight),
                                    bias=np.zeros_like(u.head.bias)))
        f = FeatureMap(rng.normal(0, 1, (4, 3, 3)))
        log_in, log_out = uem_forward(u, f)
        assert np.all(log_in == 0.0) and np.all(log_out == 0.0)

    def test_symmetric_generative_heads_give_equal_maps(self):
        rng = np.random.default_rng(3)
        proj = make_mlp([4, 5, 5, 2], rng)
        # mirror-image class mixtures around the first axis
        mu = np.array([1.0, 0.5])
        head = GmmHead(means=np.stack([mu * [1, 1],
                                       mu * [-1, 1]])[:, None, :],
                       variances=np.ones((2, 1, 2)))
        u = PixelModel(net=proj, head=head)
        f = FeatureMap(rng.normal(0, 1, (4, 3, 3)))
        z, _ = mlp_forward(u.net, f.pixels())
        # project inputs onto the symmetry plane (first coordinate zero)
        z_sym = z.copy()
        z_sym[:, 0] = 0.0
        from llrseg.gmm import gmm_all_log_densities
        dens = gmm_all_log_densities(z_sym, head)
        assert np.allclose(dens[:, 0], dens[:, 1], atol=1e-12)

    def test_matches_composed_oracle(self):
        rng = np.random.default_rng(4)
        u = build_uem(4, 6, 5, DISCRIMINATIVE, 2, rng)
        f = FeatureMap(rng.normal(0, 1, (4, 3, 3)))
        z, _ = mlp_forward(u.net, f.pixels())
        want = z @ u.head.weight.T + u.head.bias
        log_in, log_out = uem_forward(u, f)
        assert np.allclose(log_in.ravel(), want[:, 0], atol=1e-10)
        assert np.allclose(log_out.ravel(), want[:, 1], atol=1e-10)

    def test_channel_mismatch(self):
        rng = np.random.default_rng(5)
        u = build_uem(4, 6, 5, DISCRIMINATIVE, 2, rng)
        with pytest.raises(DimMismatch):
            uem_forward(u, FeatureMap(rng.normal(0, 1, (3, 2, 2))))


class TestLlrScore:
    def test_balanced_evidence(self):
        s = llr_score(np.full((1, 1), -1.0), np.full((1, 1), -1.0),
                      np.zeros((1, 1)))
        assert s.scores[0, 0] == 0.0

    def test_arithmetic(self):
        s = llr_score(np.zeros((1, 1)), np.full((1, 1), -3.0),
                      np.full((1, 1), -2.0))
        assert s.scores[0, 0] == 5.0

    def test_monotone_in_outlier_evidence(self):
        rng = np.random.default_rng(7)
        out = rng.normal(0, 1, (4, 4))
        inl = rng.normal(0, 1, (4, 4))
        mx = rng.normal(0, 1, (4, 4))
        base = llr_score(out, inl, mx).scores
        bumped = out.copy()
        bumped[2, 2] += 0.5
        moved = llr_score(bumped, inl, mx).scores.copy()
        assert moved[2, 2] > base[2, 2]
        moved[2, 2] = base[2, 2]
        assert np.array_equal(moved, base)

    def test_shape_mismatch(self):
        with pytest.raises(DimMismatch):
            llr_score(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)))

    def test_ood_score_passthrough(self):
        x = np.random.default_rng(8).normal(0, 1, (3, 3))
        assert np.array_equal(ood_score(x).scores, x)
        assert np.array_equal(ood_score(x + 2.0).scores, x + 2.0)


def frozen_inlier(rng, c_e=5, k=3):
    decoder = make_mlp([c_e, 8, 6], rng)
    head = xavier_dense(6, k, rng)
    return PixelModel(net=decoder, head=head)


class TestLlrLoss:
    def test_all_ignored(self):
        rng = np.random.default_rng(9)
        inlier = frozen_inlier(rng)
        u = build_uem(5, 6, 5, DISCRIMINATIVE, 2, rng)
        f = FeatureMap(rng.normal(0, 1, (5, 4, 4)))
        omap = BinaryOutlierMap(np.full((4, 4), IGNORE, dtype=np.uint8))
        with pytest.raises(AllIgnored):
            llr_loss(u, inlier, f, omap, LlrConfig(head_kind=DISCRIMINATIVE))

    def test_indifferent_model_balanced_targets(self):
        rng = np.random.default_rng(10)
        inlier = frozen_inlier(rng)
        # zero head and zero inlier parameters make the ratio identically 0
        inlier = replace(inlier, head=replace(inlier.head,
                                              weight=np.zeros_like(inlier.head.weight),
                                              bias=np.zeros_like(inlier.head.bias)))
        u = build_uem(5, 6, 5, DISCRIMINATIVE, 2, rng)
        u = replace(u, head=replace(u.head, weight=np.zeros_like(u.head.weight),
                                    bias=np.zeros_like(u.head.bias)))
        f = FeatureMap(rng.normal(0, 1, (5, 4, 4)))
        targets = np.zeros((4, 4), dtype=np.uint8)
        targets[:2] = 1
        cfg = LlrConfig(alpha=0.0, head_kind=DISCRIMINATIVE)
        loss, _ = llr_loss(u, inlier, f, BinaryOutlierMap(targets), cfg)
        assert loss == pytest.approx(np.log(2), abs=1e-12)

    def test_a_label_past_two_classes_raises(self):
        """`validate_pair` owns the pair rule: dims and two classes."""
        rng = np.random.default_rng(9)
        u = build_uem(5, 6, 5, DISCRIMINATIVE, 2, rng)
        f = FeatureMap(rng.normal(0, 1, (5, 2, 2)))
        with pytest.raises(IllegalLabel) as exc:
            llr_loss(u, frozen_inlier(rng), f, LabelMap(np.array([[0, 1], [2, 0]])),
                     LlrConfig(head_kind=DISCRIMINATIVE))
        assert (exc.value.value, exc.value.position) == (2, 2)

    @pytest.mark.parametrize("kind", [DISCRIMINATIVE, GENERATIVE])
    def test_gradients_match_finite_differences(self, kind):
        assert llr_grad_error(kind, seed=0) < 1e-4

    @pytest.mark.parametrize("kind", [DISCRIMINATIVE, GENERATIVE])
    def test_no_gradient_for_frozen_tensors(self, kind):
        """The gradient record names the projection's tensors and a linear
        head's; EM alone fits a GMM head, so it gets none."""
        rng = np.random.default_rng(12)
        inlier = frozen_inlier(rng)
        u = build_uem(5, 6, 5, kind, 2, rng)
        f = FeatureMap(rng.normal(0, 1, (5, 4, 4)))
        omap = BinaryOutlierMap(rng.integers(0, 2, (4, 4)).astype(np.uint8))
        _, grads = llr_loss(u, inlier, f, omap,
                            LlrConfig(head_kind=kind, gmm_components=2))
        names = set(u.tensors(UEM_NAMES))
        if kind == GENERATIVE:
            names = {n for n in names if n.startswith("uem.proj.")}
        assert set(grads) == names
        assert not set(grads) & set(inlier.tensors(STAGE1_NAMES))

    def test_config_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            LlrConfig(alpha=-0.1)
        with pytest.raises(ValueError):
            LlrConfig(beta=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("gmm_epsilon", float("nan")), ("gmm_epsilon", float("inf")),
        ("gmm_epsilon", 0.0), ("gmm_momentum", 1.5), ("gmm_momentum", -0.1),
        ("gmm_momentum", float("nan"))])
    def test_config_rejects_em_values_no_fit_can_use(self, field, value):
        with pytest.raises(ValueError, match=field):
            LlrConfig(**{field: value})

    def test_config_accepts_momentum_bounds(self):
        for momentum in (0.0, 1.0):
            assert LlrConfig(gmm_momentum=momentum).gmm_momentum == momentum


def loop_component_backward(head, x, d_comp):
    """dx of the component log densities, one pass over the components for
    the upstream gradient d_comp [N, K, C]."""
    dx = np.zeros_like(x)
    for k in range(head.classes):
        for c in range(head.components):
            g = (x - head.means[k, c]) * (1.0 / head.variances[k, c])
            dx += d_comp[:, k, c][:, None] * (-g)
    return dx


def separate_loss_and_grads(head, z, max_logit, targets, cfg):
    """The GMM head's LLR loss with one backward pass per upstream gradient
    and a contrast loss that recomputes the component log densities."""
    logits2, backward = gmm_all_log_densities_with_grad(z, head)
    resp = backward.__closure__[backward.__code__.co_freevars.index("resp")].cell_contents
    llr = logits2[:, OUTLIER_CLASS] - logits2[:, INLIER_CLASS] - max_logit
    loss, d_llr = sigmoid_bce_with_logits(llr, targets)
    d_logits2 = np.zeros_like(logits2)
    d_logits2[:, OUTLIER_CLASS] += d_llr
    d_logits2[:, INLIER_CLASS] -= d_llr
    ce, d_ce = softmax_cross_entropy(logits2, targets)
    loss += cfg.alpha * ce
    d_logits2 += cfg.alpha * d_ce
    d_z = loop_component_backward(
        head, z, (d_logits2.T[:, None, :] * resp).transpose(2, 0, 1))
    comp_ll = np.concatenate([component_log_densities(z, head, k)
                              for k in range(head.classes)], axis=1)
    c_loss, d_comp = _contrast_loss(comp_ll, head.components, targets, cfg)
    loss += cfg.alpha * cfg.beta * c_loss
    d_z += loop_component_backward(
        head, z, (cfg.alpha * cfg.beta * d_comp).reshape(z.shape[0], 2, -1))
    return float(loss), d_z


class TestFusedGmmBackward:
    """The GMM head's loss takes one pass over the components for both
    upstream gradients, and its contrast loss reads the forward's component
    log densities; neither may change a bit."""

    @pytest.mark.parametrize("components", [1, 5, 8])
    def test_bitwise_equal_to_separate_passes(self, components):
        rng = np.random.default_rng(components)
        d, n = 6, 300
        head = GmmHead(means=rng.normal(0, 1, (2, components, d)),
                       variances=rng.uniform(0.3, 2.0, (2, components, d)))
        cfg = LlrConfig(gmm_components=components, beta=0.3)
        for trial in range(3):
            z = rng.normal(0, 1.5, (n, d))
            max_logit = rng.normal(0, 1, n)
            targets = rng.integers(0, 2, n).astype(np.int64)
            targets[rng.random(n) < 0.1] = IGNORE
            if trial == 2:  # fewer outlier rows than components: argmax assignment
                targets[np.nonzero(targets == 1)[0][components - 1:]] = 0
            loss, d_z, head_grads = _loss_and_grads(head, z, max_logit, targets, cfg)
            want_loss, want_d_z = separate_loss_and_grads(head, z, max_logit, targets, cfg)
            assert head_grads == {}
            assert loss == want_loss
            assert d_z.shape == want_d_z.shape
            assert np.array_equal(d_z.view(np.int64), want_d_z.view(np.int64))


def mixed_pairs(dataset, seed=0):
    """Turn clean scenes into (features, outlier-map) training pairs."""
    from llrseg.anomalymix import inject_outliers, random_bank, random_spec

    rng = np.random.default_rng(seed)
    spec = random_spec(3, 8, 24, 24, rng)
    bank = random_bank(spec, 2, rng)
    pairs = []
    for f, l in dataset:
        mixed, omap, _ = inject_outliers(f, l, bank, rng)
        pairs.append((mixed, omap))
    return pairs


class TestTrainUem:
    def stage1(self, seed=0):
        dataset = separable_dataset(seed=seed)
        cfg = InlierConfig(head_kind=DISCRIMINATIVE, decoder_hidden=32,
                           decoder_dim=8, epochs=2, seed=seed)
        return dataset, train_inlier(dataset, 3, cfg).bundle

    def ucfg(self, **kw):
        base = dict(epochs=1, projection_dim=8, proj_hidden=6,
                    gmm_components=2, head_kind=DISCRIMINATIVE, seed=0)
        base.update(kw)
        return LlrConfig(**base)

    def test_zero_epochs_leaves_stage1_untouched(self):
        dataset, stage1 = self.stage1()
        before = {n: tensor_digest(stage1.tensors[n])
                  for n in stage1_tensor_names(stage1)}
        stage2 = train_uem(stage1, mixed_pairs(dataset), self.ucfg(epochs=0)).bundle
        for name, digest in before.items():
            assert tensor_digest(stage2.tensors[name]) == digest
        assert verify_freeze(stage2)

    def test_a_scene_of_another_channel_count_raises(self):
        dataset, stage1 = self.stage1()
        pairs = mixed_pairs(dataset)
        pairs[1] = (FeatureMap(np.zeros((9, 24, 24))), pairs[1][1])
        with pytest.raises(DimMismatch, match="scene 1 has 9 channels, scene 0 has 8"):
            train_uem(stage1, pairs, self.ucfg())

    def test_unknown_head_kind_rejected(self):
        """A head's kind is its tensor names, so a config names one of the
        two kinds or is refused before any training."""
        with pytest.raises(ValueError, match="head_kind must be one of "
                           r"\('generative', 'discriminative'\), got 'linear'"):
            self.ucfg(head_kind="linear")

    def test_stage2_embeds_stage1_byte_identical(self, tmp_path):
        dataset, stage1 = self.stage1(seed=1)
        stage1.save(tmp_path / "s1")
        stage2 = train_uem(stage1, mixed_pairs(dataset, 1), self.ucfg()).bundle
        stage2.save(tmp_path / "s2")
        for name in stage1_tensor_names(stage1):
            a = (tmp_path / "s1" / f"{name}.fmap").read_bytes()
            b = (tmp_path / "s2" / f"{name}.fmap").read_bytes()
            assert a == b

    def test_tampered_stage1_rejected(self):
        dataset, stage1 = self.stage1(seed=2)
        # declared digests come from a save/load cycle
        import tempfile
        from llrseg.datamodel import ModelBundle
        with tempfile.TemporaryDirectory() as tmp:
            stage1.save(tmp)
            loaded = ModelBundle.load(tmp, verify=False)
        name = stage1_tensor_names(loaded)[0]
        t = loaded.tensors[name].copy()
        t.ravel()[0] += 1.0
        tampered = ModelBundle(manifest=loaded.manifest,
                               tensors={**loaded.tensors, name: t})
        with pytest.raises(FreezeViolation):
            train_uem(tampered, mixed_pairs(dataset, 2), self.ucfg())

    def test_verify_freeze_detects_mutation(self):
        dataset, stage1 = self.stage1(seed=3)
        stage2 = train_uem(stage1, mixed_pairs(dataset, 3), self.ucfg()).bundle
        name = stage1_tensor_names(stage2)[0]
        t = stage2.tensors[name].copy()
        t.ravel()[0] += 1.0
        mutated = ModelBundle(manifest=stage2.manifest,
                              tensors={**stage2.tensors, name: t})
        with pytest.raises(FreezeViolation):
            verify_freeze(mutated)

    def test_verify_freeze_needs_frozen_digests(self):
        bundle = ModelBundle(manifest={"stage": "uem"},
                             tensors={"decoder.0.weight": np.ones((2, 2))})
        with pytest.raises(FreezeViolation, match="no frozen_digests"):
            verify_freeze(bundle)

    @pytest.mark.parametrize("change", ["drop", "add"])
    def test_verify_freeze_needs_every_stage1_name(self, small_stage2, change):
        frozen = dict(small_stage2.manifest["frozen_digests"])
        if change == "drop":
            frozen.pop(stage1_tensor_names(small_stage2)[-1])
        else:
            frozen["decoder.9.weight"] = next(iter(frozen.values()))
        bundle = ModelBundle(manifest={**small_stage2.manifest, "frozen_digests": frozen},
                             tensors=small_stage2.tensors)
        with pytest.raises(FreezeViolation, match="do not name the stage-1 tensors"):
            verify_freeze(bundle)

    def test_loaded_manifest_is_read_only_to_every_depth(self, small_stage2, tmp_path):
        small_stage2.save(tmp_path / "s2")
        loaded = ModelBundle.load(tmp_path / "s2")
        name = stage1_tensor_names(loaded)[0]
        with pytest.raises(TypeError):
            loaded.manifest["frozen_digests"][name] = "0" * 64
        with pytest.raises(TypeError):
            loaded.manifest["tensors"][name]["digest"] = "0" * 64
        with pytest.raises(TypeError):
            loaded.manifest["config"]["lr"] = 1.0
        with pytest.raises(AttributeError):
            loaded.manifest["tensors"][name]["shape"].pop()
        assert verify_freeze(loaded)
        # and `save` writes back the manifest it read, byte for byte
        loaded.save(tmp_path / "again")
        assert ((tmp_path / "again" / "manifest.json").read_bytes()
                == (tmp_path / "s2" / "manifest.json").read_bytes())

    def test_verify_freeze_rejects_stage1_bundle(self, small_stage1):
        with pytest.raises(LlrsegError, match="not a stage-2 bundle"):
            verify_freeze(small_stage1.bundle)

    def test_deterministic_per_seed(self):
        dataset, stage1 = self.stage1(seed=4)
        pairs = mixed_pairs(dataset, 4)
        a = train_uem(stage1, pairs, self.ucfg(seed=5)).bundle
        b = train_uem(stage1, pairs, self.ucfg(seed=5)).bundle
        assert digests(a) == digests(b)

    def test_generative_head_round_trip(self, tmp_path):
        dataset, stage1 = self.stage1(seed=5)
        cfg = self.ucfg(head_kind=GENERATIVE, epochs=1)
        stage2 = train_uem(stage1, mixed_pairs(dataset, 5), cfg).bundle
        stage2.save(tmp_path / "b")
        from llrseg.datamodel import ModelBundle
        reloaded = ModelBundle.load(tmp_path / "b")
        f = dataset[0][0]
        a_in, a_out = uem_forward(uem_from_bundle(stage2), f)
        b_in, b_out = uem_forward(uem_from_bundle(reloaded), f)
        assert np.array_equal(a_in, b_in) and np.array_equal(a_out, b_out)

    def test_wrong_stage_rejected(self):
        dataset, stage1 = self.stage1(seed=6)
        stage2 = train_uem(stage1, mixed_pairs(dataset, 6), self.ucfg()).bundle
        with pytest.raises(LlrsegError):
            train_uem(stage2, mixed_pairs(dataset, 6), self.ucfg())


class TestParameterBudget:
    def test_default_dims_stay_under_budget(self):
        rng = np.random.default_rng(13)
        icfg = InlierConfig()
        ucfg = LlrConfig()
        k, c_e = 5, 16  # benchmark dims
        decoder = make_mlp([c_e, icfg.decoder_hidden, icfg.decoder_dim], rng)
        for head_kind in (GENERATIVE, DISCRIMINATIVE):
            if head_kind == DISCRIMINATIVE:
                head = xavier_dense(icfg.decoder_dim, k, rng)
            else:
                head = GmmHead(
                    means=rng.normal(0, 1, (k, icfg.gmm_components,
                                            icfg.decoder_dim)),
                    variances=np.ones((k, icfg.gmm_components,
                                       icfg.decoder_dim)))
            inlier = PixelModel(net=decoder, head=head)
            uem = build_uem(c_e, ucfg.projection_dim, ucfg.proj_hidden,
                            head_kind, ucfg.gmm_components, rng)
            ratio = uem.parameter_count() / inlier.parameter_count()
            assert ratio < 0.05
