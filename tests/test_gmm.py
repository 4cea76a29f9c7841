"""Gaussian densities, Sinkhorn assignment, and EM fitting."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

from llrseg import gmm, neuralcore
from llrseg.errors import DegenerateCovariance, InvalidCost
from llrseg.gmm import (
    DENSITY_ROWS,
    VAR_FLOOR,
    GmmHead,
    em_update,
    gmm_all_log_densities,
    gmm_all_log_densities_with_grad,
    component_log_densities,
    init_head,
    refresh,
    sinkhorn_assign,
)
from llrseg.gmm import _logsumexp


def gaussian_log_density(x, mu, var) -> float:
    """log N(x; mu, diag(var)) of one d-vector, via a one-component head."""
    head = GmmHead(means=np.asarray(mu, dtype=np.float64)[None, None],
                   variances=np.asarray(var, dtype=np.float64)[None, None])
    return float(component_log_densities(np.asarray(x, dtype=np.float64)[None],
                                         head, 0)[0, 0])


def gmm_log_density(x, head, k) -> float:
    """Class-k mixture log density of one d-vector."""
    return float(gmm_all_log_densities(np.asarray(x, dtype=np.float64)[None],
                                       head)[0, k])


def naive_log_mixture(x, means, variances, weights):
    """Extended-precision direct summation, no log-sum-exp."""
    total = np.longdouble(0.0)
    d = len(x)
    for mu, var, w in zip(means, variances, weights):
        q = np.longdouble(((np.asarray(x) - mu) ** 2 / var).sum())
        logdet = np.log(np.asarray(var, dtype=np.longdouble)).sum()
        logn = -0.5 * (d * np.log(np.longdouble(2 * np.pi)) + logdet + q)
        total += np.longdouble(w) * np.exp(logn)
    return float(np.log(total))


class TestGaussianLogDensity:
    def test_standard_normal_at_mean_1d(self):
        got = gaussian_log_density([0.0], [0.0], [1.0])
        assert got == pytest.approx(-0.5 * np.log(2 * np.pi), abs=1e-15)

    def test_identity_covariance_at_mean_2d(self):
        got = gaussian_log_density([1.5, -2.0], [1.5, -2.0], [1.0, 1.0])
        assert got == pytest.approx(-np.log(2 * np.pi), abs=1e-15)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(0, 2, 4)
            mu = rng.normal(0, 2, 4)
            var = rng.uniform(0.1, 3.0, 4)
            want = naive_log_mixture(x, [mu], [var], [1.0])
            assert gaussian_log_density(x, mu, var) == pytest.approx(want, abs=1e-12)

    def test_variance_below_floor(self):
        with pytest.raises(DegenerateCovariance):
            gaussian_log_density([0.0], [0.0], [1e-9])


class TestGmmLogDensity:
    def test_single_component_reduces_exactly(self):
        rng = np.random.default_rng(1)
        mu = rng.normal(0, 1, 3)
        var = rng.uniform(0.5, 2.0, 3)
        head = GmmHead(means=mu[None, None], variances=var[None, None])
        x = rng.normal(0, 1, 3)
        assert gmm_log_density(x, head, 0) == gaussian_log_density(x, mu, var)

    def test_duplicate_components_collapse(self):
        mu = np.array([0.3, -1.1])
        var = np.array([1.2, 0.8])
        head = GmmHead(means=np.stack([mu, mu])[None],
                       variances=np.stack([var, var])[None])
        x = np.array([0.5, 0.5])
        want = gaussian_log_density(x, mu, var)
        assert gmm_log_density(x, head, 0) == pytest.approx(want, abs=1e-14)

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            means = rng.normal(0, 2, (1, 3, 4))
            variances = rng.uniform(0.1, 3.0, (1, 3, 4))
            head = GmmHead(means=means, variances=variances)
            x = rng.normal(0, 2, 4)
            want = naive_log_mixture(x, means[0], variances[0], np.full(3, 1 / 3))
            assert gmm_log_density(x, head, 0) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("rows", [1, 7, 300])
    def test_component_log_densities_bitwise_equal_to_expression(self, rows):
        rng = np.random.default_rng(rows)
        head = GmmHead(means=rng.normal(0, 1, (2, 3, 16)),
                       variances=rng.uniform(0.1, 3.0, (2, 3, 16)))
        x = rng.normal(0, 2, (rows, 16))
        for batch in (x, np.asfortranarray(x), x[:, ::-1]):
            kept = batch.copy()
            for k in range(2):
                want = np.empty((rows, 3))
                for c in range(3):
                    var = head.variances[k, c]
                    z = ((batch - head.means[k, c]) ** 2 / var).sum(axis=1)
                    want[:, c] = -0.5 * (16 * np.log(2 * np.pi) + np.log(var).sum() + z)
                got = component_log_densities(batch, head, k)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert np.array_equal(batch, kept)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning",
                                "ignore:divide by zero:RuntimeWarning")
    def test_overflowing_distance_gives_nan(self):
        """Every component density of a row beyond ~1e154 is -inf, so its
        class densities are NaN, which scoring and Sinkhorn both reject;
        the other rows keep theirs."""
        head = GmmHead(means=np.zeros((2, 3, 2)), variances=np.ones((2, 3, 2)))
        x = np.array([[1e160, 0.0], [1.0, 0.0]])
        dens = gmm_all_log_densities(x, head)
        assert np.isnan(dens[0]).all()
        assert np.array_equal(dens[1], gmm_all_log_densities(x[1:], head)[0])

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        head = GmmHead(means=rng.normal(0, 1, (2, 3, 5)),
                       variances=rng.uniform(0.5, 2.0, (2, 3, 5)))
        x = rng.normal(0, 1, (7, 5))
        dens = gmm_all_log_densities(x, head)
        for i in range(7):
            for k in range(2):
                assert dens[i, k] == gmm_log_density(x[i], head, k)

    def test_grad_closure_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        head = GmmHead(means=rng.normal(0, 1, (2, 2, 3)),
                       variances=rng.uniform(0.5, 2.0, (2, 2, 3)))
        x = rng.normal(0, 1, (5, 3))
        d_out = rng.normal(0, 1, (5, 2))
        _, backward = gmm_all_log_densities_with_grad(x, head)
        dx = backward(d_out)
        h = 1e-6

        def loss_at(xp):
            dens = gmm_all_log_densities(xp, head)
            return (dens * d_out).sum()

        for i in (0, 2):
            for j in range(3):
                xp = x.copy(); xp[i, j] += h
                xm = x.copy(); xm[i, j] -= h
                numeric = (loss_at(xp) - loss_at(xm)) / (2 * h)
                assert dx[i, j] == pytest.approx(numeric, rel=1e-5, abs=1e-7)


def bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def layouts(x):
    """x in C order, in Fortran order and as a strided view."""
    wide = np.repeat(x, 2, axis=1)
    return {"C": np.ascontiguousarray(x), "F": np.asfortranarray(x),
            "strided": wide[:, ::2]}


class TestDensityBlocksOnWorkers:
    """The class densities run in row blocks on a worker per CPU; no result
    may depend on how many workers run them."""

    @staticmethod
    def density_results(x, head):
        comp_ll = np.empty((len(x), head.classes * head.components))
        logdens, backward = gmm_all_log_densities_with_grad(x, head, comp_ll)
        d_logdens = np.linspace(-1.0, 1.0, logdens.size).reshape(logdens.shape)
        d_comp = np.linspace(1.0, -1.0, comp_ll.size).reshape(comp_ll.shape)
        # the responsibilities the backward closure holds
        resp = backward.__closure__[backward.__code__.co_freevars.index("resp")]
        return [gmm_all_log_densities(x, head), logdens, resp.cell_contents,
                comp_ll, backward(d_logdens), backward(d_logdens, d_comp)]

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("rows", [1, 2, DENSITY_ROWS - 1, DENSITY_ROWS,
                                      DENSITY_ROWS + 1, 3 * DENSITY_ROWS + 1])
    def test_inline_equals_pooled(self, monkeypatch, workers, rows):
        rng = np.random.default_rng(rows)
        head = GmmHead(means=rng.normal(0, 1, (3, 4, 16)),
                       variances=rng.uniform(0.1, 3.0, (3, 4, 16)))
        for name, x in layouts(rng.normal(0, 2, (rows, 16))).items():
            kept = x.copy()
            monkeypatch.setattr(neuralcore, "_WORKERS", workers)
            pooled = self.density_results(x, head)
            monkeypatch.setattr(neuralcore, "_WORKERS", 1)
            inline = self.density_results(x, head)
            assert all(bitwise_equal(a, b) for a, b in zip(pooled, inline)), name
            assert bitwise_equal(x, kept), name

    @pytest.mark.parametrize("rows", [DENSITY_ROWS + 1, 2 * DENSITY_ROWS + 1,
                                      2 * DENSITY_ROWS + 2])
    def test_blocks_equal_the_whole_batch(self, rows):
        """Per class, the log-sum-exp of the whole batch's component
        densities; with a one-row tail block, a Fortran-order batch would
        sum that row's terms in another order."""
        rng = np.random.default_rng(rows)
        # NumPy sums fewer than 8 terms in order either way, and the
        # orders give equal sums often, so a tail row holds many sums
        head = GmmHead(means=rng.normal(0, 1, (6, 8, 64)),
                       variances=rng.uniform(0.1, 3.0, (6, 8, 64)))
        for name, x in layouts(rng.normal(0, 2, (rows, 64))).items():
            comps = [component_log_densities(x, head, k) for k in range(6)]
            want = np.stack([logsumexp(comp + head.log_weight, axis=1)
                             for comp in comps], axis=1)
            assert bitwise_equal(gmm_all_log_densities(x, head), want), name
            comp_ll = np.empty((rows, 6 * 8))
            gmm_all_log_densities_with_grad(x, head, comp_ll)
            assert bitwise_equal(comp_ll, np.concatenate(comps, axis=1)), name

    def test_exception_in_a_block_reaches_the_caller(self, monkeypatch):
        calls = []

        def failing_logsumexp(a, axis, sum_):
            calls.append(1)
            if len(calls) == 3:
                raise FloatingPointError("block 3")
            return _logsumexp(a, axis, sum_)

        rng = np.random.default_rng(5)
        head = GmmHead(means=rng.normal(0, 1, (1, 2, 4)),
                       variances=np.ones((1, 2, 4)))
        x = rng.normal(0, 1, (4 * DENSITY_ROWS, 4))
        kept = x.copy()
        monkeypatch.setattr(gmm, "_logsumexp", failing_logsumexp)
        with pytest.raises(FloatingPointError, match="block 3"):
            gmm_all_log_densities(x, head)
        assert bitwise_equal(x, kept)


# finite values; the few distinct magnitudes after rounding make ties at the
# maximum common, which the log-sum-exp takes out of the sum, and the wide
# ones put terms below -746, whose exps it skips
LSE_VALUES = st.one_of(st.floats(-1e4, 1e4).map(lambda v: round(v, 1)),
                       st.floats(-800.0, 800.0))


class TestLogSumExp:
    @settings(max_examples=300, deadline=None)
    @given(a=arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 6)),
                    elements=LSE_VALUES),
           axis=st.sampled_from([0, 1, (0, 1)]))
    def test_bitwise_equal_to_scipy(self, a, axis):
        got = _logsumexp(a.copy(), axis, lambda e: e.sum(axis=axis))
        assert bitwise_equal(np.asarray(got), np.asarray(logsumexp(a, axis=axis)))

    def test_ties_at_the_max(self):
        assert _logsumexp(np.zeros((1, 4)), 1, lambda e: e.sum(axis=1))[0] == np.log(4.0)


class TestSinkhorn:
    def test_constant_logliks_give_uniform_plan(self):
        plan = sinkhorn_assign(np.zeros((8, 4)), epsilon=0.5, iters=5)
        assert np.allclose(plan.matrix, 1.0 / 32, atol=1e-15)

    def test_small_epsilon_approaches_assignment(self):
        # one dominant log-likelihood per row; the optimal hard matching is
        # the identity permutation scaled to mass 1/N per row
        ll = np.full((4, 4), -10.0)
        np.fill_diagonal(ll, 0.0)
        plan = sinkhorn_assign(ll, epsilon=0.05, iters=200)
        assert np.allclose(plan.matrix, np.eye(4) / 4, atol=1e-3)

    def test_zero_iterations_is_a_defined_noop(self):
        rng = np.random.default_rng(5)
        plan = sinkhorn_assign(rng.normal(0, 1, (6, 3)), epsilon=0.5, iters=0)
        assert plan.matrix.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.isfinite(plan.marginal_residual())

    def test_marginals_converge(self):
        rng = np.random.default_rng(6)
        ll = rng.normal(0, 1, (64, 5))
        plan = sinkhorn_assign(ll, epsilon=0.5, iters=50)
        assert plan.marginal_residual() < 1e-4

    def test_residual_non_increasing(self):
        rng = np.random.default_rng(7)
        ll = rng.normal(0, 1, (32, 4))
        residuals = [sinkhorn_assign(ll, 0.5, it).marginal_residual()
                     for it in range(1, 20)]
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))

    def test_non_finite_cost_rejected(self):
        ll = np.zeros((4, 2))
        ll[0, 0] = np.inf
        with pytest.raises(InvalidCost):
            sinkhorn_assign(ll, epsilon=0.5, iters=5)

    @pytest.mark.parametrize("epsilon", [0.0, -0.5, np.nan, np.inf])
    def test_bad_epsilon_rejected(self, epsilon):
        with pytest.raises(InvalidCost, match="epsilon"):
            sinkhorn_assign(np.zeros((4, 2)), epsilon=epsilon, iters=5)

    def test_negative_iterations_rejected(self):
        with pytest.raises(InvalidCost, match="iters"):
            sinkhorn_assign(np.zeros((4, 2)), epsilon=0.5, iters=-1)


def reference_sinkhorn(ll, epsilon, iters):
    """The plan of the pixel-major [N, C] formula, with scipy's log-sum-exp."""
    n, c = ll.shape
    log_k = ll / epsilon
    u, v = np.zeros(n), np.zeros(c)
    for _ in range(iters):
        u = -np.log(n) - logsumexp(log_k + v[None, :], axis=1)
        v = -np.log(c) - logsumexp(log_k + u[:, None], axis=0)
    log_p = log_k + u[:, None] + v[None, :]
    log_p -= logsumexp(log_p)
    return np.exp(log_p)


class TestSinkhornBits:
    """sinkhorn_assign runs on a component-major copy of the costs and sums
    each axis in the order NumPy sums the pixel-major array: in order over
    fewer than 8 components, 8 ways at once over 8 or more, in order over
    the pixels except for C = 1 (pairwise). Any other order changes bits."""

    def test_terms_down_to_exps_underflow_count(self):
        """Next to a maximum of 0 the log-sum-exp is the other term's exp, so
        a term whose exp is subnormal changes the result; only those whose
        exp NumPy rounds to 0 may be left out."""
        t = np.linspace(-760.0, -700.0, 6001)
        a = np.stack([np.zeros_like(t), t])
        want = logsumexp(a, axis=0)
        got = _logsumexp(a.copy(), 0, lambda e: e.sum(axis=0))
        assert bitwise_equal(got, want)
        assert (want[t > -745.0] > 0).all() and (want[t < -746.0] == 0).all()

    @pytest.mark.parametrize("c", [1, 2, 5, 7, 8, 16])
    def test_bitwise_equal_to_the_pixel_major_formula(self, c):
        rng = np.random.default_rng(c)
        for n in sorted({c, c + 1, 7, 8, 9, 127, 128, 129, 1000, 3001}):
            if n < c:
                continue
            costs = {
                "normal": rng.normal(0, 30, (n, c)),
                # few distinct values: ties at every maximum
                "ties": np.round(rng.normal(0, 3, (n, c))),
                # shifted exponents around -746, where exp reaches 0
                "underflow": rng.uniform(-80.0, 0.0, (n, c)),
            }
            for name, ll in costs.items():
                for epsilon, iters in ((0.1, 10), (1.0, 1), (0.5, 0)):
                    got = sinkhorn_assign(ll, epsilon, iters).matrix
                    want = reference_sinkhorn(ll, epsilon, iters)
                    assert bitwise_equal(got, want), (n, name, epsilon, iters)


class TestEmUpdate:
    def setup_method(self):
        rng = np.random.default_rng(8)
        self.head = GmmHead(means=rng.normal(0, 1, (1, 2, 3)),
                            variances=rng.uniform(0.5, 2.0, (1, 2, 3)))
        self.x = rng.normal(0, 1, (10, 3))
        ll = component_log_densities(self.x, self.head, 0)
        self.plan = sinkhorn_assign(ll, epsilon=0.5, iters=30)

    def test_full_momentum_is_identity(self):
        new = em_update(self.head, 0, self.x, self.plan, momentum=1.0, counters={})
        assert np.array_equal(new.means, self.head.means)
        assert np.array_equal(new.variances, self.head.variances)

    def test_zero_momentum_gives_weighted_moments(self):
        new = em_update(self.head, 0, self.x, self.plan, momentum=0.0, counters={})
        for c in range(2):
            w = self.plan.matrix[:, c] / self.plan.matrix[:, c].sum()
            mu = w @ self.x
            var = w @ (self.x - mu) ** 2
            assert np.allclose(new.means[0, c], mu, atol=1e-10)
            assert np.allclose(new.variances[0, c],
                               np.maximum(var, VAR_FLOOR), atol=1e-10)

    def test_identical_features_hit_variance_floor(self):
        x = np.ones((6, 3))
        ll = component_log_densities(x, self.head, 0)
        plan = sinkhorn_assign(ll, epsilon=0.5, iters=10)
        new = em_update(self.head, 0, x, plan, momentum=0.0, counters={})
        assert np.all(new.variances == VAR_FLOOR)

    def test_empty_component_counter(self):
        from llrseg.gmm import SinkhornPlan
        matrix = np.zeros((10, 2))
        matrix[:, 0] = 0.1  # all mass on component 0
        plan = SinkhornPlan(matrix=matrix)
        counters = {}
        new = em_update(self.head, 0, self.x, plan, momentum=0.0,
                        counters=counters)
        assert counters["empty_components"] == 1
        assert np.array_equal(new.means[0, 1], self.head.means[0, 1])


class TestRefresh:
    """`init_head` then `refresh` rounds, as `inlier.fit` drives them."""

    def make_clusters(self, rng, centers, n=250):
        return np.vstack([c + 0.3 * rng.standard_normal((n, len(c)))
                          for c in centers])

    def fit(self, features_by_class, components, rounds, seed=0, epsilon=0.1,
            momentum=0.99, max_pixels=4096, counters=None):
        rng = np.random.default_rng(seed)
        head = init_head(features_by_class, components, rng)
        counters = {} if counters is None else counters
        for _ in range(rounds):
            head = refresh(head, features_by_class, rng, epsilon, 10, momentum,
                           max_pixels, counters)
        return head

    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(9)
        centers = [np.array([-4.0, 0.0]), np.array([4.0, 0.0])]
        feats = self.make_clusters(rng, centers)
        # moderate entropy lets the balanced assignment escape the symmetric
        # init where both sampled means land in the same cluster
        head = self.fit([feats], 2, rounds=40, epsilon=1.0, momentum=0.0)
        found = head.means[0]
        # each generating center must be matched by some component mean
        for c in centers:
            assert np.linalg.norm(found - c, axis=1).min() < 0.1

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(10)
        feats = [rng.normal(0, 1, (50, 3))]
        a = self.fit(feats, 2, rounds=20, seed=11)
        b = self.fit(feats, 2, rounds=20, seed=11)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.variances, b.variances)

    def test_single_component_closed_form(self):
        rng = np.random.default_rng(12)
        feats = rng.normal(0, 1, (200, 4))
        head = self.fit([feats], 1, rounds=1, momentum=0.0)
        assert np.allclose(head.means[0, 0], feats.mean(axis=0), atol=1e-10)
        assert np.allclose(head.variances[0, 0], feats.var(axis=0), atol=1e-10)

    def test_too_few_samples(self):
        rng = np.random.default_rng(14)
        feats = [rng.normal(0, 1, (40, 3)), np.zeros((2, 3))]
        head = init_head(feats, 5, rng)
        counters = {}
        new = refresh(head, feats, rng, 0.1, 10, 0.0, 4096, counters)
        # class 1 has fewer features than components: skipped and counted
        assert counters == {"absent_classes": 1}
        assert np.array_equal(new.means[1], head.means[1])
        assert np.array_equal(new.variances[1], head.variances[1])
        assert not np.array_equal(new.means[0], head.means[0])

    def test_rounds_raise_loglik(self):
        rng = np.random.default_rng(13)
        feats = [self.make_clusters(rng, [np.array([-3.0, 1.0]),
                                          np.array([3.0, -1.0])], n=40)]

        def avg_loglik(head):
            return gmm_all_log_densities(feats[0], head)[:, 0].mean()

        start = avg_loglik(self.fit(feats, 2, rounds=0))
        end = avg_loglik(self.fit(feats, 2, rounds=5, momentum=0.0))
        assert np.isfinite(end) and end > start

    def test_max_pixels_subsamples_with_the_shared_rng(self):
        rng = np.random.default_rng(15)
        feats = [rng.normal(0, 1, (60, 3))]
        head = init_head(feats, 2, np.random.default_rng(0))
        got = refresh(head, feats, np.random.default_rng(7), 0.1, 10, 0.0, 25, {})
        idx = np.random.default_rng(7).choice(60, 25, replace=False)
        want = refresh(head, [feats[0][idx]], np.random.default_rng(0), 0.1, 10,
                       0.0, 25, {})
        assert np.array_equal(got.means, want.means)
        assert np.array_equal(got.variances, want.variances)
