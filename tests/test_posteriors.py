"""Posterior-model tests: gradient oracles, truncated normals, Gibbs vs quadrature."""

import numpy as np
import pytest
from scipy import stats
from scipy.special import erfcx, log_ndtr, ndtr

from wcmc import aggregators, metrics, posteriors
from wcmc.matops import psd_factor
from wcmc.harness.data import toeplitz_covariance


def finite_difference(fun, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (fun(x + e) - fun(x - e)) / (2 * h)
    return grad


class TestGaussianGlobalCovariance:
    """The global covariance of Gaussian subposteriors, from the product rule in aggregators."""

    def test_single_worker_identity_map(self):
        a = toeplitz_covariance(0.4, 3)
        _, combined = aggregators.gaussian_product([a])
        np.testing.assert_allclose(combined, a, atol=1e-12)

    def test_two_identical_identities(self):
        precisions, combined = aggregators.gaussian_product([np.eye(2), np.eye(2)])
        np.testing.assert_allclose(precisions, np.stack([np.eye(2)] * 2))
        np.testing.assert_allclose(combined, np.eye(2) / 2)

    def test_toeplitz_family_against_inverse_sum(self):
        covs = [toeplitz_covariance((k - 1) / 10, 5) for k in range(1, 11)]
        oracle = np.linalg.inv(sum(np.linalg.inv(c) for c in covs))
        _, combined = aggregators.gaussian_product(covs)
        np.testing.assert_allclose(combined, oracle, atol=1e-10)

    def test_psd_order_against_inputs(self):
        # Information only accumulates: the combination precedes every input.
        covs = [toeplitz_covariance(0.2, 4), toeplitz_covariance(0.7, 4)]
        _, combined = aggregators.gaussian_product(covs)
        for c in covs:
            w = np.linalg.eigvalsh(c - combined)
            assert w.min() > -1e-10

    def test_singular_input_is_ridged(self):
        # diag(1, 0) gets the ridge lam = RIDGE_RTOL * trace / d before inversion.
        lam = aggregators.RIDGE_RTOL * 0.5
        precisions, combined = aggregators.gaussian_product([np.diag([1.0, 0.0]), np.eye(2)])
        expected = np.diag([1.0 / (1.0 + lam), 1.0 / lam])
        np.testing.assert_allclose(precisions[0], expected, rtol=1e-12)
        np.testing.assert_allclose(combined, np.linalg.inv(expected + np.eye(2)), rtol=1e-12)


def prior_grad(theta, sigma2):
    """The prior's gradient -theta / sigma^2: the log-joint gradient of one
    all-zero row, whose likelihood is flat."""
    return posteriors.probit_joint_grad_fn(np.zeros((1, len(theta))), [1], sigma2)(theta)


def label_score(margin, label):
    """The score s phi(s t) / Phi(s t) of margin t under label v, s = 2v - 1,
    from the kernel's score of the signed margin s t."""
    s = 2.0 * np.asarray(label, dtype=float) - 1.0
    return s * posteriors._probit_scores(np.array(s * margin, dtype=float))


def loglik_grad(theta, u, v):
    """Probit log-likelihood gradient of one observation (u, v).

    It is the one-row log-joint gradient minus the prior's.
    """
    return posteriors.probit_joint_grad_fn(u[None, :], [v], 1.0)(theta) - prior_grad(theta, 1.0)


class TestProbitGradients:
    def test_zero_margin_label_one(self):
        u = np.array([1.0, 0.0])
        grad = loglik_grad(np.zeros(2), u, 1)
        # phi(0) / Phi(0) = 0.7979 to four digits
        np.testing.assert_allclose(grad, 0.7979 * u, atol=5e-5)

    def test_label_symmetry_at_zero_margin(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(3)
        theta = np.zeros(3)
        g1 = loglik_grad(theta, u, 1)
        g0 = loglik_grad(theta, u, 0)
        np.testing.assert_allclose(g1, -g0, atol=1e-12)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            theta = rng.standard_normal(4)
            u = rng.standard_normal(4)
            v = int(rng.uniform() < 0.5)
            grad = loglik_grad(theta, u, v)
            fd = finite_difference(lambda t: log_ndtr((2 * v - 1) * (u @ t)), theta)
            np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-7)

    def test_stable_in_deep_tails(self):
        u = np.array([1.0])
        for margin in (-40.0, -10.0, 10.0, 40.0):
            grad = loglik_grad(np.array([margin]), u, 1)
            assert np.isfinite(grad).all()
        # Misclassified deep tail behaves like |margin|.
        g = loglik_grad(np.array([-30.0]), u, 1)
        assert g[0] == pytest.approx(30.0, rel=0.01)

    def test_matches_the_log_ratio_form(self):
        # s phi(s t) / Phi(s t) written as exp(log phi - log Phi) with scipy's log_ndtr
        margins = np.linspace(-35.0, 35.0, 7001)
        for label in (0, 1):
            s = 2.0 * label - 1.0
            log_ratio = -0.5 * margins**2 - 0.5 * np.log(2 * np.pi) - log_ndtr(s * margins)
            expected = s * np.exp(log_ratio)
            scores = s * posteriors._probit_scores(s * margins)
            np.testing.assert_allclose(scores, expected, rtol=1e-12, atol=0)

    def test_scores_overwrite_the_margins(self):
        margins = np.array([-3.0, 0.0, 2.5])
        expected = np.exp(-0.5 * margins**2 - 0.5 * np.log(2 * np.pi) - log_ndtr(margins))
        scores = posteriors._probit_scores(margins)
        assert scores is margins
        np.testing.assert_allclose(scores, expected, rtol=1e-12)


class TestPriorAndJointGrad:
    def test_prior_values(self):
        np.testing.assert_allclose(prior_grad(np.zeros(3), 2.0), np.zeros(3))
        np.testing.assert_allclose(prior_grad(np.array([1.0, 2.0]), 1.0), [-1.0, -2.0])

    def test_prior_matches_finite_difference(self):
        rng = np.random.default_rng(2)
        theta = rng.standard_normal(4)
        fd = finite_difference(lambda t: -0.5 * np.sum(t**2) / 3.0, theta)
        np.testing.assert_allclose(prior_grad(theta, 3.0), fd, rtol=1e-6)

    def test_full_batch_is_unscaled(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((10, 3))
        v = (rng.uniform(size=10) < 0.5).astype(int)
        thetas = rng.standard_normal((4, 3))
        grad = posteriors.probit_joint_grad_fn(u, v, 1.0)
        for theta, row in zip(thetas, grad(thetas)):
            manual = -theta + sum(label_score(u[i] @ theta, v[i]) * u[i] for i in range(10))
            np.testing.assert_allclose(row, manual, atol=1e-10)
            np.testing.assert_allclose(grad(theta), manual, atol=1e-10)

    def test_joint_grad_matches_finite_difference(self):
        rng = np.random.default_rng(4)
        sigma2 = 2.0
        for _ in range(10):
            u = rng.standard_normal((20, 3))
            v = (rng.uniform(size=20) < 0.5).astype(int)
            batch = rng.choice(20, size=5, replace=False)
            theta = rng.standard_normal(3)

            def objective(t):
                loglik = np.sum(log_ndtr((2 * v[batch] - 1) * (u[batch] @ t)))
                return -0.5 * np.sum(t**2) / sigma2 + (20 / 5) * loglik

            log_joint = posteriors.probit_log_joint_fn(u, v, sigma2)
            grad = posteriors.probit_joint_grad_fn(u, v, sigma2)(theta, batch)
            np.testing.assert_allclose(grad, finite_difference(objective, theta), rtol=1e-4)
            fd = finite_difference(lambda t: log_joint(t, batch)[0], theta)
            np.testing.assert_allclose(grad, fd, rtol=1e-4)

    def test_empty_minibatch_rejected(self):
        grad = posteriors.probit_joint_grad_fn(np.zeros((10, 2)), np.zeros(10), 1.0)
        with pytest.raises(ValueError, match="minibatch must be non-empty"):
            grad(np.zeros(2), np.array([], dtype=int))

    @pytest.mark.parametrize(
        "factory",
        [posteriors.probit_joint_grad_fn, posteriors.probit_log_joint_fn],
        ids=["grad", "log-joint"],
    )
    @pytest.mark.parametrize(
        "covariates, labels, sigma2, message",
        [
            (np.ones((3, 2)), [0, 2, 1], 1.0, "labels must be 0 or 1"),
            (np.ones((3, 2)), [0, 1], 1.0, "labels must be one per covariate row"),
            (np.ones(3), [0, 1, 1], 1.0, r"covariates must be \(n, d\)"),
            (np.ones((3, 2)), [0, 1, 1], -1.0, "prior variance must be positive"),
            (np.ones((3, 2)), [0, 1, 1], 0.0, "prior variance must be positive"),
        ],
        ids=["label-2", "label-count", "1-d-covariates", "negative-sigma2", "zero-sigma2"],
    )
    def test_data_checked_when_built(self, factory, covariates, labels, sigma2, message):
        with pytest.raises(ValueError, match=message):
            factory(covariates, labels, sigma2)

    def test_gaussian_toy_gradient(self):
        grad_fn = posteriors.gaussian_joint_grad_fn(np.eye(3))
        thetas = np.array([[1.0, -2.0, 0.5]])
        np.testing.assert_allclose(grad_fn(thetas), -thetas)


def label_form_scores(margins, labels):
    """The score as it was written on unsigned margins with a per-row label sign."""
    signs = 2.0 * np.asarray(labels, dtype=float) - 1.0
    st = signs * np.asarray(margins, dtype=float)
    return signs * np.sqrt(2.0 / np.pi) / erfcx(-np.sqrt(0.5) * st)


class TestSignedCovariatesKeepTheBits:
    """Every probit kernel on the signed covariates s_n u_n against the same
    kernel written on u_n with the label signs applied per call: a sign flip
    is exact and the matmul shapes are the same, so the bits must match."""

    @staticmethod
    def _data(n=2000, d=5, seed=40):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((n, d))
        truth = np.array([0.1103, -0.5832, 0.6417, 1.8279, 0.4968])[:d]
        v = (rng.uniform(size=n) < ndtr(u @ truth)).astype(int)
        return rng, u, v, truth

    def test_signed_covariates_are_the_label_signs_times_the_rows(self):
        _, u, v, _ = self._data(n=50)
        data = posteriors.LabeledDataset(u, v)
        np.testing.assert_array_equal(data.signed_covariates, np.where(v[:, None] == 1, u, -u))
        assert data.signed_covariates is data.signed_covariates

    def test_full_batch_and_minibatch_gradients(self):
        rng, u, v, truth = self._data()
        n, sigma2 = u.shape[0], 20.0
        grad = posteriors.probit_joint_grad_fn(u, v, sigma2)
        stack = truth + 0.3 * rng.standard_normal((50, 5))
        for idx in (None, rng.choice(n, size=500, replace=False)):
            ub, vb = (u, v) if idx is None else (u[idx], v[idx])
            for thetas in (stack, stack[:1], stack[0]):
                rows = np.atleast_2d(thetas)
                scores = label_form_scores(rows @ ub.T, vb)
                expected = -rows / sigma2 + (n / ub.shape[0]) * scores @ ub
                got = grad(thetas, idx)
                assert got.shape == np.shape(thetas)
                np.testing.assert_array_equal(np.atleast_2d(got), expected)

    def test_log_joint(self):
        rng, u, v, truth = self._data()
        n, sigma2 = u.shape[0], 20.0
        log_joint = posteriors.probit_log_joint_fn(u, v, sigma2)
        stack = truth + 0.3 * rng.standard_normal((64, 5))
        for idx in (None, rng.choice(n, size=500, replace=False)):
            ub, sb = (u, 2.0 * v - 1.0) if idx is None else (u[idx], 2.0 * v[idx] - 1.0)
            margins = stack @ ub.T
            margins *= sb
            expected = (
                -0.5 * 5 * np.log(2.0 * np.pi * sigma2)
                - 0.5 * np.sum(stack**2, axis=1) / sigma2
                + log_ndtr(margins).sum(axis=1) * (n / ub.shape[0])
            )
            np.testing.assert_array_equal(log_joint(stack, idx), expected)

    def test_newton_system(self):
        rng, u, v, truth = self._data()
        shard = posteriors.ProbitShard(u, v, 20.0)
        for theta in (np.zeros(5), truth, truth + rng.standard_normal(5)):
            margins = u @ theta
            scores = label_form_scores(margins, v)
            hess = (u.T * (scores * (scores + margins))) @ u + np.eye(5) / 20.0
            grad, got = posteriors._newton_system(shard, theta)
            np.testing.assert_array_equal(grad, scores @ u - theta / 20.0)
            np.testing.assert_array_equal(got, hess)

    def test_thirty_gibbs_sweeps(self):
        _, u, v, _ = self._data(n=425)
        shard = posteriors.ProbitShard(u, v, 20.0)
        draws = posteriors.gibbs_probit_sampler(shard, 30, np.random.default_rng(41), burn_in=0)
        cov = posteriors._gibbs_coefficient_cov(shard)
        factor = psd_factor(cov)
        rng = np.random.default_rng(41)
        theta = posteriors.probit_mode(shard)
        signs = 2.0 * v - 1.0
        expected = []
        for _ in range(30):
            # the latent of u_n: on the positive side for label 1, the negative for 0
            margins = u @ theta
            above = posteriors._truncated_std_normal_above(-signs * margins, rng.uniform(size=425))
            latents = signs * above + margins
            noise = factor @ rng.standard_normal(5)
            theta = cov @ (u.T @ latents) + noise
            expected.append(theta)
        np.testing.assert_array_equal(draws, expected)


class TestTruncatedNormal:
    def test_positive_side_half_normal_mean(self):
        u = np.random.default_rng(5).uniform(size=100_000)
        draws = posteriors.sample_truncated_normal(np.zeros(100_000), u)
        assert (draws > 0).all()
        # Half-normal mean sqrt(2/pi) = 0.7979
        assert draws.mean() == pytest.approx(np.sqrt(2 / np.pi), abs=0.01)

    def test_far_from_boundary_unaffected(self):
        u = np.random.default_rng(6).uniform(size=50_000)
        draws = posteriors.sample_truncated_normal(np.full(50_000, 5.0), u)
        assert draws.mean() == pytest.approx(5.0, abs=0.02)

    def test_deep_tail_terminates_and_is_exact(self):
        u = np.random.default_rng(7).uniform(size=50_000)
        draws = posteriors.sample_truncated_normal(np.full(50_000, -8.0), u)
        assert (draws > 0).all() and np.isfinite(draws).all()
        # Conditional mean of the tail: phi(8) / (1 - Phi(8)) centered at -8.
        alpha = 8.0
        tail_mean = -8.0 + np.exp(-0.5 * alpha**2 - 0.5 * np.log(2 * np.pi) - log_ndtr(-alpha))
        assert draws.mean() == pytest.approx(tail_mean, rel=0.01)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_raises_before_drawing(self, bad):
        # NaN and +inf fall past the cutoff, where no uniform maps to a draw
        with pytest.raises(ValueError, match="finite"):
            posteriors._truncated_std_normal_above(np.array([5.0, bad]), np.full(2, 0.5))

    def test_one_uniform_per_point_in_index_order(self):
        # Point i's draw is a function of alpha_i and the i-th uniform alone,
        # so appending tail points leaves the other draws unchanged.  (Each
        # Gibbs sweep's stream use is pinned in TestGibbsProbitChains.)
        alpha = np.random.default_rng(11).uniform(-4.0, posteriors._TAIL_CUTOFF, size=(3, 200))
        alpha[1, 7] = posteriors._TAIL_CUTOFF
        u = np.random.default_rng(12).uniform(size=alpha.size + 2)
        whole = posteriors._truncated_std_normal_above(alpha, u[:-2].reshape(alpha.shape))
        tails = np.array([6.0, 40.0])
        mixed = posteriors._truncated_std_normal_above(np.concatenate([alpha.ravel(), tails]), u)
        assert whole.shape == alpha.shape
        assert np.array_equal(mixed[:-2], whole.ravel())
        assert (mixed[-2:] > tails).all() and (whole > alpha).all()

    def test_draw_past_the_overflow_is_alpha(self):
        # alpha**2 / 2 overflows past about 1.9e154; the exact draw is alpha + O(1 / alpha)
        alpha = np.array([1e300, 1e200, 2e154])
        draws = posteriors._truncated_std_normal_above(alpha, np.random.default_rng(38).uniform(size=3))
        assert np.isfinite(draws).all() and (draws >= alpha).all()

    # 3.9 is drawn by the inverse CDF, 4.1 and beyond by its log-space form past _TAIL_CUTOFF
    @pytest.mark.parametrize(
        "alpha, seed",
        [(-2.0, 31), (0.0, 32), (3.9, 33), (4.1, 34), (10.0, 35), (40.0, 36), (1000.0, 37)],
    )
    def test_law_matches_scipy_truncnorm(self, alpha, seed):
        assert (alpha <= posteriors._TAIL_CUTOFF) == (alpha < 4.0)
        draws = posteriors._truncated_std_normal_above(
            np.full(20_000, alpha), np.random.default_rng(seed).uniform(size=20_000)
        )
        law = stats.truncnorm(alpha, np.inf)
        assert stats.kstest(draws, law.cdf).pvalue > 1e-3


def grid_posterior_mean(shard, half_width=6.0, nodes=400):
    """Quadrature oracle: probit posterior mean on a d=2 tensor grid."""
    grid = np.linspace(-half_width, half_width, nodes)
    t1, t2 = np.meshgrid(grid, grid, indexing="ij")
    thetas = np.stack([t1.ravel(), t2.ravel()], axis=1)
    margins = thetas @ shard.covariates.T
    signs = 2.0 * shard.labels - 1.0
    loglik = log_ndtr(signs[None, :] * margins).sum(axis=1)
    logprior = -0.5 * np.sum(thetas**2, axis=1) / shard.prior_variance
    logpost = loglik + logprior
    weights = np.exp(logpost - logpost.max())
    weights /= weights.sum()
    return weights @ thetas


class TestGibbsProbitSampler:
    def test_one_point_posterior_mostly_positive(self):
        # Near-flat prior, single positive observation: theta > 0 with
        # probability well above 0.9 (quadrature gives ~0.97 for sigma^2=1e6).
        shard = posteriors.ProbitShard(np.ones((1, 1)), np.ones(1), prior_variance=1e6)
        draws = posteriors.gibbs_probit_sampler(shard, 10_000, np.random.default_rng(10))
        assert (draws > 0).mean() > 0.9

    def test_fixed_seed_chains_identical(self):
        rng = np.random.default_rng(11)
        u = rng.standard_normal((30, 2))
        v = (rng.uniform(size=30) < 0.5).astype(int)
        shard = posteriors.ProbitShard(u, v, 2.0)
        a = posteriors.gibbs_probit_sampler(shard, 50, np.random.default_rng(123), burn_in=10)
        b = posteriors.gibbs_probit_sampler(shard, 50, np.random.default_rng(123), burn_in=10)
        np.testing.assert_array_equal(a, b)

    def test_matches_grid_quadrature(self):
        rng = np.random.default_rng(12)
        u = rng.standard_normal((20, 2))
        truth = np.array([0.8, -0.5])
        v = (rng.uniform(size=20) < ndtr(u @ truth)).astype(int)
        shard = posteriors.ProbitShard(u, v, prior_variance=1.0)
        oracle = grid_posterior_mean(shard)
        draws = posteriors.gibbs_probit_sampler(
            shard, 20_000, np.random.default_rng(13), burn_in=100
        )
        assert np.abs(draws.mean(axis=0) - oracle).max() < 0.05

    def test_negative_burn_in_raises_before_drawing(self):
        shard = posteriors.ProbitShard(np.ones((3, 1)), [1, 0, 1], 1.0)
        rng = np.random.default_rng(19)
        with pytest.raises(ValueError, match="burn_in must be non-negative, got -5"):
            posteriors.gibbs_probit_sampler(shard, 10, rng, burn_in=-5)
        assert rng.uniform() == np.random.default_rng(19).uniform()

    def test_latent_signs_match_labels(self):
        rng = np.random.default_rng(14)
        u = rng.standard_normal((25, 2))
        v = (rng.uniform(size=25) < 0.5).astype(int)
        shard = posteriors.ProbitShard(u, v, 1.0)
        # the sweep's latents sit on the positive side of the signed margins,
        # so the latents of u_n, s_n times them, take the sign of their labels
        theta = posteriors.probit_mode(shard)
        latents = posteriors.sample_truncated_normal(
            shard.signed_covariates @ theta, np.random.default_rng(15).uniform(size=25)
        )
        assert (((2 * v - 1) * latents > 0) == (v == 1)).all()



def chain_shards(sizes, seed):
    """Probit shards of the given sizes on a 5-covariate set at the probit
    workloads' theta*, under the underweighted prior K * 20."""
    rng = np.random.default_rng(seed)
    truth = np.array([0.1103, -0.5832, 0.6417, 1.8279, 0.4968])
    u = rng.standard_normal((sum(sizes), 5))
    v = (rng.uniform(size=u.shape[0]) < ndtr(u @ truth)).astype(int)
    ends = np.cumsum(sizes)
    return [
        posteriors.ProbitShard(u[end - n : end], v[end - n : end], 20.0 * len(sizes))
        for n, end in zip(sizes, ends)
    ]


def worker_streams(k, seed=0):
    return [np.random.default_rng([seed, j]) for j in range(k)]


class TestGibbsProbitChains:
    def heterogeneous_shards(self):
        """A zeta = 0.6 partition of 2 000 rows over 6 workers, plus a shard
        with one row far on the wrong side of its label, whose latent takes
        the log-space tail branch."""
        from wcmc.harness.data import LabeledDataset, partition

        (whole,) = chain_shards([2000], 21)
        data = LabeledDataset(whole.covariates, whole.labels)
        idx = partition(data, 6, np.random.default_rng(22), rule="heterogeneous", zeta=0.6)
        shards = [posteriors.ProbitShard(data.covariates[i], data.labels[i], 140.0) for i in idx]
        (tail,) = chain_shards([150], 23)
        u = np.vstack([tail.covariates, [[0.0, 0.0, 0.0, 4.0, 0.0]]])  # margin near 7 at theta*
        shards.append(posteriors.ProbitShard(u, np.append(tail.labels, 0), 140.0))
        return shards

    def test_each_chain_is_its_one_shard_run_bit_for_bit(self):
        equal = chain_shards([425] * 4, 20)
        unequal = self.heterogeneous_shards()
        assert len({shard.size for shard in unequal}) == len(unequal)
        tail = unequal[-1]
        signed = tail.signed_covariates @ posteriors.probit_mode(tail)
        assert -signed.min() > posteriors._TAIL_CUTOFF  # the tail branch runs
        for shards in (equal, unequal):
            stacked = posteriors.gibbs_probit_chains(shards, 40, worker_streams(len(shards)), 15)
            assert stacked.shape == (40, len(shards), 5)
            for j, (shard, rng) in enumerate(zip(shards, worker_streams(len(shards)))):
                alone = posteriors.gibbs_probit_sampler(shard, 40, rng, burn_in=15)
                assert np.array_equal(stacked[:, j], alone)

    def test_a_longer_run_repeats_the_shorter_runs_draws(self):
        shards = self.heterogeneous_shards()
        short = posteriors.gibbs_probit_chains(shards, 30, worker_streams(len(shards)))
        longer = posteriors.gibbs_probit_chains(shards, 30 + 7, worker_streams(len(shards)))
        assert np.array_equal(longer[:30], short)

    def test_each_sweep_takes_n_k_uniforms_then_d_normals_from_stream_k(self):
        shards = chain_shards([30, 50, 20], 24)
        rngs = worker_streams(3, seed=5)
        posteriors.gibbs_probit_chains(shards, 6, rngs, burn_in=2)
        for shard, rng, fresh in zip(shards, rngs, worker_streams(3, seed=5)):
            for _ in range(8):
                fresh.uniform(size=shard.size)
                fresh.standard_normal(5)
            assert rng.uniform() == fresh.uniform()

    def test_one_generator_per_shard(self):
        shards = chain_shards([30, 50], 25)
        with pytest.raises(ValueError, match="one generator per shard, got 1 for 2 shards"):
            posteriors.gibbs_probit_chains(shards, 5, worker_streams(1))
        with pytest.raises(ValueError, match="got 0 for 0 shards"):
            posteriors.gibbs_probit_chains([], 5, [])


def mode_shards():
    """Random, separable, one-class and one-point shards as (covariates, labels)."""
    rng = np.random.default_rng(16)
    truth = np.array([0.1103, -0.5832, 0.6417, 1.8279, 0.4968])
    u = rng.standard_normal((400, 5))
    return {
        "random": (u, (rng.uniform(size=400) < ndtr(u @ truth)).astype(int)),
        "separable": (u, (u @ truth > 0).astype(int)),
        "one-class": (u, np.ones(400)),
        "one-point": (np.ones((1, 2)), np.ones(1)),
    }


class TestProbitMode:
    @pytest.mark.parametrize("sigma2", [1.0, 20.0, 1e6])
    @pytest.mark.parametrize("name", list(mode_shards()))
    def test_gradient_vanishes_at_the_mode(self, name, sigma2):
        u, v = mode_shards()[name]
        mode = posteriors.probit_mode(posteriors.ProbitShard(u, v, sigma2))
        grad = posteriors.probit_joint_grad_fn(u, v, sigma2)(mode)
        assert np.abs(grad).max() < 1e-10 * len(v)

    def test_separable_mode_is_finite_and_below_the_prior_scale(self):
        # no finite likelihood maximum exists; the prior holds the mode
        u, v = mode_shards()["separable"]
        mode = posteriors.probit_mode(posteriors.ProbitShard(u, v, 20.0))
        assert 1.0 < np.abs(mode).max() < 20.0

    def test_balanced_symmetric_data_at_zero(self):
        u = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        shard = posteriors.ProbitShard(u, np.ones(4), 1.0)
        assert np.array_equal(posteriors.probit_mode(shard), np.zeros(2))

    def test_recovers_truth_at_scale(self):
        rng = np.random.default_rng(16)
        truth = np.array([0.1103, -0.5832, 0.6417, 1.8279, 0.4968])
        u = rng.standard_normal((20_000, 5))
        v = (rng.uniform(size=20_000) < ndtr(u @ truth)).astype(int)
        mode = posteriors.probit_mode(posteriors.ProbitShard(u, v, 1.0))
        assert np.abs(mode - truth).max() < 0.1

    def test_singular_newton_system_raises(self):
        # |u|^2 = 2e6 swamps the 1e-12 prior precision: the first Hessian is rank one
        shard = posteriors.ProbitShard(np.full((1, 2), 1000.0), np.ones(1), 1e12)
        with pytest.raises(ValueError, match="[Ss]ingular"):
            posteriors.probit_mode(shard)

    def test_non_finite_iterate_raises(self):
        shard = posteriors.ProbitShard(np.full((1, 2), 1e200), np.ones(1), 1.0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="not finite"
        ):
            posteriors.probit_mode(shard)


def quadrature_shard(n=50):
    """A 2-d probit shard whose posterior the tests integrate on grids."""
    rng = np.random.default_rng(12)
    u = rng.standard_normal((n, 2))
    v = (rng.uniform(size=n) < ndtr(u @ np.array([0.8, -0.5]))).astype(int)
    return posteriors.ProbitShard(u, v, prior_variance=1.0)


def dense_grid_moments(shard, nodes=201, width=10.0):
    """Plain-numpy oracle: the 2-d posterior's mean and second moment on a
    uniform tensor grid of ``nodes`` points per axis, ``width`` standard
    deviations either side of the mean that a coarse first grid finds."""
    signs = 2.0 * shard.labels - 1.0

    def weighted(axes):
        t1, t2 = np.meshgrid(*axes, indexing="ij")
        thetas = np.stack([t1.ravel(), t2.ravel()], axis=1)
        logpost = log_ndtr(signs * (thetas @ shard.covariates.T)).sum(axis=1)
        logpost -= 0.5 * np.sum(thetas**2, axis=1) / shard.prior_variance
        weights = np.exp(logpost - logpost.max())
        return thetas, weights / weights.sum()

    thetas, weights = weighted([np.linspace(-6.0, 6.0, 121)] * 2)
    mean = weights @ thetas
    sd = np.sqrt(weights @ (thetas - mean) ** 2)
    thetas, weights = weighted([np.linspace(m - width * s, m + width * s, nodes) for m, s in zip(mean, sd)])
    return weights @ thetas, (thetas.T * weights) @ thetas


class TestProbitQuadrature:
    def test_matches_a_dense_grid(self):
        # the 201 x 201 grid agrees with a 301 x 301 one to about 1e-14.  The
        # quadrature stops at a 49-node step difference of 7.1e-6, below
        # _QUAD_RTOL, and sits 1.2e-6 from the grid
        shard = quadrature_shard()
        nodes, weights, error = posteriors.probit_quadrature(shard)
        assert (weights >= 0).all() and weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= error < posteriors._QUAD_RTOL
        mean, moment = dense_grid_moments(shard)
        assert metrics.moment_error(metrics.second_moment(nodes, weights), moment) < error
        np.testing.assert_allclose(weights @ nodes, mean, rtol=0, atol=1e-5)

    def test_a_long_gibbs_chain_agrees_within_its_monte_carlo_error(self):
        shard = quadrature_shard()
        nodes, weights, _ = posteriors.probit_quadrature(shard)
        draws = posteriors.gibbs_probit_sampler(shard, 20_000, np.random.default_rng(31))
        # batch means: 50 batches of 400 draws carry the chain's autocorrelation
        products = np.einsum("si,sj->sij", draws, draws).reshape(50, 400, 4).mean(axis=1)
        stderr = products.std(axis=0, ddof=1) / np.sqrt(50)
        gap = metrics.second_moment(draws) - metrics.second_moment(nodes, weights)
        assert (np.abs(gap.ravel()) < 4.0 * stderr).all()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gives_up_on_a_near_separable_shard(self, seed):
        # N = 100 rows at theta* = 3 1: no grid of at most 4096 nodes (p = 5)
        # settles, so the caller falls back to a Gibbs chain
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((100, 5))
        v = (rng.uniform(size=100) < ndtr(u @ np.full(5, 3.0))).astype(int)
        assert posteriors.probit_quadrature(posteriors.ProbitShard(u, v, 1.0)) is None

    @pytest.mark.parametrize("dim, evaluated", [(8, 2**8), (13, 0)])
    def test_gives_up_before_a_grid_past_the_node_cap(self, monkeypatch, dim, evaluated):
        # the nodes whose log joint is evaluated.  d = 8: the p = 2 grid has
        # 256 and the p = 3 one would have 6561; d = 13: the p = 2 grid itself
        # would have 8192
        sizes = []
        factory = posteriors.probit_log_joint_fn

        def recording(*args):
            value = factory(*args)

            def counted(thetas):
                sizes.append(len(thetas))
                return value(thetas)

            return counted

        monkeypatch.setattr(posteriors, "probit_log_joint_fn", recording)
        rng = np.random.default_rng(3)
        u = rng.standard_normal((500, dim))
        v = (rng.uniform(size=500) < ndtr(u @ np.full(dim, 0.1))).astype(int)
        assert posteriors.probit_quadrature(posteriors.ProbitShard(u, v, 1.0)) is None
        assert sum(sizes) == evaluated


class TestLabeledDataset:
    """The data checks live on the base class; a probit shard adds its prior's."""

    @pytest.mark.parametrize(
        "covariates, labels, message",
        [
            (np.ones((3, 2)), [0, 2, 1], "labels must be 0 or 1"),
            (np.ones((3, 2)), [0, 1], "labels must be one per covariate row"),
            (np.ones(3), [0, 1, 1], r"covariates must be \(n, d\) with n >= 1"),
            (np.ones((0, 2)), [], r"covariates must be \(n, d\) with n >= 1"),
        ],
        ids=["label-2", "label-count", "1-d-covariates", "no-rows"],
    )
    def test_bad_data_rejected(self, covariates, labels, message):
        with pytest.raises(ValueError, match=message):
            posteriors.LabeledDataset(covariates, labels)

    def test_shard_is_the_dataset_plus_its_prior(self):
        # the shard's data went through the base class: converted, and size and dim read from it
        shard = posteriors.ProbitShard([[1, 2], [3, 4], [5, 6]], [True, False, True], prior_variance=2)
        assert isinstance(shard, posteriors.LabeledDataset)
        assert (shard.size, shard.dim, shard.prior_variance) == (3, 2, 2)
        assert shard.covariates.dtype == float and shard.labels.tolist() == [1, 0, 1]
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="prior variance must be positive"):
                posteriors.ProbitShard(np.ones((2, 1)), [0, 1], bad)


class TestGaussianSubposterior:
    def test_entropy_closed_form(self):
        sub = posteriors.GaussianSubposterior(np.eye(2))
        assert sub.entropy() == pytest.approx(np.log(2 * np.pi * np.e))

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            posteriors.GaussianSubposterior(np.zeros((2, 2)))

    def test_sample_covariance_converges(self):
        cov = np.array([[1.0, 0.4], [0.4, 2.0]])
        draws = posteriors.GaussianSubposterior(cov).sample(np.random.default_rng(7), size=100_000)
        assert draws.shape == (100_000, 2)
        assert np.abs(draws.T @ draws / draws.shape[0] - cov).max() < 0.05

    def test_fixed_seed_reproducible(self):
        sub = posteriors.GaussianSubposterior(toeplitz_covariance(0.6, 3))
        a = sub.sample(np.random.default_rng(99), size=10)
        b = sub.sample(np.random.default_rng(99), size=10)
        np.testing.assert_array_equal(a, b)
