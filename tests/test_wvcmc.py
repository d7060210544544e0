"""Weight-optimizer tests: entropy bounds, gradient oracles, SGD loop behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from wcmc import aggregators, channel, posteriors, wvcmc
from wcmc.aggregators import apply_weights
from wcmc.harness import config, runner


def random_pd(rng, d, floor=0.3):
    b = rng.standard_normal((d, d))
    return b @ b.T / d + floor * np.eye(d)


def gaussian_config(rng, k, d, reps=1):
    """Random well-conditioned weights, encoders, and Gaussian subposteriors."""
    m_r = reps * d
    encs = [channel.RepetitionEncoding(d, reps, float(rng.uniform(0.5, 2.0))) for _ in range(k)]
    weights = np.stack(
        [np.tile(np.eye(d), reps)[:, :m_r] / reps + 0.15 * rng.standard_normal((d, m_r)) for _ in range(k)]
    )
    covs = [random_pd(rng, d) for _ in range(k)]
    return weights, encs, covs


def output_entropy_oma(weights, encs, covs, n0):
    """Closed-form entropy of the Gaussian OMA aggregate."""
    d = weights.shape[1]
    cov = np.zeros((d, d))
    for w, enc, c in zip(weights, encs, covs):
        e = enc.matrix()
        cov += w @ (e @ c @ e.T + n0 * np.eye(e.shape[0])) @ w.T
    return 0.5 * np.linalg.slogdet(2 * np.pi * np.e * cov)[1]


def output_entropy_noma(weight, enc, covs, n0):
    e = enc.matrix()
    inner = e @ sum(covs) @ e.T + n0 * np.eye(e.shape[0])
    cov = weight @ inner @ weight.T
    return 0.5 * np.linalg.slogdet(2 * np.pi * np.e * cov)[1]


class TestEntropyBounds:
    def test_single_worker_scalar_case(self):
        # d=1, W=E=1, N0=1: bound is log(2 sqrt(2 pi e)) / 2 + (1/2) H[p],
        # and the true output entropy log(2 pi e * 2) / 2 dominates it.
        h_sub = 0.5 * np.log(2 * np.pi * np.e)
        bound = wvcmc.entropy_lb_oma(
            np.ones((1, 1, 1)), [np.ones((1, 1))], 1.0, [h_sub]
        )
        expected = 0.5 * np.log(2 * np.sqrt(2 * np.pi * np.e)) + 0.5 * (0.0 + h_sub + 0.0)
        assert bound == pytest.approx(expected)
        truth = 0.5 * np.log(2 * np.pi * np.e * 2.0)
        assert truth >= bound
        # Equal signal and noise power make the bound tight.
        assert truth == pytest.approx(bound)

    def test_scaling_identity(self):
        # Scaling every W_k by c shifts the bound by d log(c), via the
        # log|det W E| and (1/2) log det W W^T terms.
        rng = np.random.default_rng(0)
        weights, encs, covs = gaussian_config(rng, 3, 2)
        ents = [posteriors.GaussianSubposterior(c).entropy() for c in covs]
        mats = [e.matrix() for e in encs]
        base = wvcmc.entropy_lb_oma(weights, mats, 0.5, ents)
        c = 1.7
        scaled = wvcmc.entropy_lb_oma(c * weights, mats, 0.5, ents)
        assert scaled - base == pytest.approx(2 * np.log(c), rel=1e-9)

    def test_oma_bound_below_gaussian_entropy(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            k = int(rng.integers(1, 5))
            d = int(rng.integers(1, 4))
            weights, encs, covs = gaussian_config(rng, k, d)
            ents = [posteriors.GaussianSubposterior(c).entropy() for c in covs]
            n0 = float(rng.uniform(0.05, 1.0))
            bound = wvcmc.entropy_lb_oma(weights, [e.matrix() for e in encs], n0, ents)
            truth = output_entropy_oma(weights, encs, covs, n0)
            assert truth >= bound - 1e-9

    def test_noma_bound_below_gaussian_entropy(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            k = int(rng.integers(1, 5))
            d = int(rng.integers(1, 4))
            enc = channel.RepetitionEncoding(d, 1, float(rng.uniform(0.5, 2.0)))
            weight = np.eye(d) / k + 0.1 * rng.standard_normal((d, d))
            covs = [random_pd(rng, d) for _ in range(k)]
            ents = [posteriors.GaussianSubposterior(c).entropy() for c in covs]
            n0 = float(rng.uniform(0.05, 1.0))
            bound = wvcmc.entropy_lb_noma(weight, enc.matrix(), n0, k, ents)
            truth = output_entropy_noma(weight, enc, covs, n0)
            assert truth >= bound - 1e-9

    def test_noma_k1_scalar_reduction(self):
        h_sub = 0.5 * np.log(2 * np.pi * np.e)
        bound = wvcmc.entropy_lb_noma(np.ones((1, 1)), np.ones((1, 1)), 1.0, 1, [h_sub])
        oma = wvcmc.entropy_lb_oma(np.ones((1, 1, 1)), [np.ones((1, 1))], 1.0, [h_sub])
        assert bound == pytest.approx(oma)

    def test_singular_weight_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            wvcmc.entropy_lb_oma(np.zeros((1, 2, 2)), [np.eye(2)], 1.0, [0.0])


class TestGradients:
    def test_oma_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        d, k, s = 3, 3, 5
        for _ in range(20):
            weights, encs, _ = gaussian_config(rng, k, d)
            mats = [e.matrix() for e in encs]
            ys = rng.standard_normal((s, k, d))
            n0 = 0.4
            ents = rng.uniform(0.5, 2.0, size=k)
            u = rng.standard_normal((15, d))
            v = (rng.uniform(size=15) < 0.5).astype(int)
            idx = rng.choice(15, size=5, replace=False)
            grad_fn = posteriors.probit_joint_grad_fn(u, v, 1.5)
            val_fn = posteriors.probit_log_joint_fn(u, v, 1.5)
            analytic = wvcmc.grad_oma(weights, ys, mats, grad_fn, idx)
            h = 1e-6
            for j in (0, k - 1):
                for a in range(d):
                    for b in range(d):
                        wp = weights.copy()
                        wp[j, a, b] += h
                        wm = weights.copy()
                        wm[j, a, b] -= h
                        fd = (
                            wvcmc.free_energy_oma(wp, ys, mats, n0, ents, val_fn, idx)
                            - wvcmc.free_energy_oma(wm, ys, mats, n0, ents, val_fn, idx)
                        ) / (2 * h)
                        assert analytic[j, a, b] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_noma_matches_finite_difference(self):
        rng = np.random.default_rng(4)
        d, k, s = 3, 3, 5
        for _ in range(20):
            enc = channel.RepetitionEncoding(d, 1, float(rng.uniform(0.5, 2.0)))
            weight = np.eye(d) / k + 0.1 * rng.standard_normal((d, d))
            ys = rng.standard_normal((s, d))
            n0 = 0.4
            ents = rng.uniform(0.5, 2.0, size=k)
            u = rng.standard_normal((15, d))
            v = (rng.uniform(size=15) < 0.5).astype(int)
            grad_fn = posteriors.probit_joint_grad_fn(u, v, 1.5)
            val_fn = posteriors.probit_log_joint_fn(u, v, 1.5)
            analytic = wvcmc.grad_noma(weight, ys, enc.matrix(), k, grad_fn, None)
            h = 1e-6
            for a in range(d):
                for b in range(d):
                    wp = weight.copy()
                    wp[a, b] += h
                    wm = weight.copy()
                    wm[a, b] -= h
                    fd = (
                        wvcmc.free_energy_noma(wp, ys, enc.matrix(), n0, k, ents, val_fn, None)
                        - wvcmc.free_energy_noma(wm, ys, enc.matrix(), n0, k, ents, val_fn, None)
                    ) / (2 * h)
                    assert analytic[a, b] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_entropy_only_identity_case(self):
        # Zero data gradient, K=1, W=E=I: the gradient is -(1/2)(I + I) = -I.
        d = 3
        zero_grad = lambda thetas, idx=None: np.zeros_like(thetas)
        ys = np.zeros((4, 1, d))
        grad = wvcmc.grad_oma(np.eye(d)[None], ys, [np.eye(d)], zero_grad, None)
        np.testing.assert_allclose(grad[0], -np.eye(d), atol=1e-12)

    @pytest.mark.parametrize("cond", [1.0, 1e2, 1e3, 1e4])
    @pytest.mark.parametrize("receivers", [1, 3])
    def test_gram_term_is_the_transposed_pseudo_inverse(self, receivers, cond):
        # (W W^T)^{-1} W = (W^+)^T for a full-row-rank W.  The Gram's condition
        # number is cond(W)^2, so a solve on it is accurate to about
        # cond(W)^2 eps: below 1e-10 relative up to cond(W) = 1e3, and about
        # 1e-9 at cond(W) = 1e4.  The wvcmc runs measured stay below cond 12.
        rng = np.random.default_rng([receivers, int(cond)])
        k, d, m_r = 3, 3, 6
        sv = np.geomspace(1.0, 1.0 / cond, d)
        w = np.stack(
            [
                np.linalg.qr(rng.standard_normal((d, d)))[0] * sv
                @ np.linalg.qr(rng.standard_normal((m_r, d)))[0].T
                for _ in range(receivers)
            ]
        )
        e = np.stack([np.linalg.pinv(wj) + 0.1 * rng.standard_normal((m_r, d)) for wj in w])
        # no data term: the gradient less its W E term is the Gram term
        zero_grad = lambda thetas, idx=None: np.zeros_like(thetas)
        full = wvcmc.grad(w, np.zeros((2, receivers, m_r)), e, k, zero_grad)
        product_term = np.linalg.inv(w @ e).transpose(0, 2, 1) @ e.transpose(0, 2, 1)
        gram_term = -(k + receivers) * full - (k / receivers) * product_term
        tol = max(cond, 10.0) ** 2 * np.finfo(float).eps
        for j in range(receivers):
            assert np.linalg.cond(w[j]) == pytest.approx(cond, rel=1e-6)
            expected = np.linalg.pinv(w[j]).T
            assert np.linalg.norm(gram_term[j] - expected) <= tol * np.linalg.norm(expected)

    def test_duplicated_blocks_leave_gradient_unchanged(self):
        rng = np.random.default_rng(5)
        d, k = 2, 2
        weights, encs, _ = gaussian_config(rng, k, d)
        mats = [e.matrix() for e in encs]
        ys = rng.standard_normal((3, k, d))
        grad_fn = posteriors.gaussian_joint_grad_fn(np.eye(d))
        g1 = wvcmc.grad_oma(weights, ys, mats, grad_fn, None)
        g2 = wvcmc.grad_oma(weights, np.concatenate([ys, ys]), mats, grad_fn, None)
        np.testing.assert_allclose(g1, g2, atol=1e-12)


def receiver_config(rng, k, receivers, d, reps=2):
    """Weights, encoders, blocks and subposteriors for K workers over R receivers."""
    weights, encs, covs = gaussian_config(rng, receivers, d, reps)
    ys = rng.standard_normal((5, receivers, reps * d))
    return weights, [e.matrix() for e in encs], ys, [random_pd(rng, d) for _ in range(k)]


class TestSharedBound:
    """One bound and one gradient over (R, K): R = K is OMA, R = 1 is NOMA."""

    def test_noma_closed_form(self):
        # (d/2) log[(K+1) (2 pi e N0)^{1/(K+1)}] + [K log|det W E| + (1/2) log det W W^T
        # + sum_k H_k] / (K+1), with a (d, 2d) weight and encoder
        rng = np.random.default_rng(20)
        k, d, n0 = 3, 2, 0.3
        w, e, _, _ = receiver_config(rng, k, 1, d)
        ents = rng.uniform(0.5, 2.0, size=k)
        expected = 0.5 * d * np.log((k + 1) * (2 * np.pi * np.e * n0) ** (1 / (k + 1))) + (
            k * np.linalg.slogdet(w[0] @ e[0])[1]
            + 0.5 * np.linalg.slogdet(w[0] @ w[0].T)[1]
            + ents.sum()
        ) / (k + 1)
        assert wvcmc.entropy_lb(w, e, n0, k, ents) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("receivers", [1, 3])
    def test_bound_below_gaussian_entropy_with_repetition(self, receivers):
        rng = np.random.default_rng(21 + receivers)
        k, d, n0 = 3, 2, 0.4
        for _ in range(50):
            w, e, _, covs = receiver_config(rng, k, receivers, d)
            ents = [posteriors.GaussianSubposterior(c).entropy() for c in covs]
            # worker k sits at receiver k under OMA, every worker at receiver 0 under NOMA
            at = [min(j, receivers - 1) for j in range(k)]
            cov = sum(w[r] @ w[r].T * n0 for r in range(receivers))
            cov = cov + sum(w[at[j]] @ e[at[j]] @ covs[j] @ (w[at[j]] @ e[at[j]]).T for j in range(k))
            truth = 0.5 * np.linalg.slogdet(2 * np.pi * np.e * cov)[1]
            assert truth >= wvcmc.entropy_lb(w, e, n0, k, ents) - 1e-9

    @pytest.mark.parametrize("receivers", [1, 3])
    def test_gradient_matches_finite_difference(self, receivers):
        rng = np.random.default_rng(23 + receivers)
        k, d, n0, h = 3, 2, 0.4, 1e-6
        w, e, ys, _ = receiver_config(rng, k, receivers, d)
        ents = rng.uniform(0.5, 2.0, size=k)
        u = rng.standard_normal((15, d))
        v = (rng.uniform(size=15) < 0.5).astype(int)
        grad_fn = posteriors.probit_joint_grad_fn(u, v, 1.5)
        val_fn = posteriors.probit_log_joint_fn(u, v, 1.5)
        analytic = wvcmc.grad(w, ys, e, k, grad_fn)
        fd = np.zeros_like(w)
        for index in np.ndindex(*w.shape):
            wp, wm = w.copy(), w.copy()
            wp[index] += h
            wm[index] -= h
            fd[index] = (
                wvcmc.free_energy(wp, ys, e, n0, k, ents, val_fn)
                - wvcmc.free_energy(wm, ys, e, n0, k, ents, val_fn)
            ) / (2 * h)
        np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-7)

    def test_one_receiver_run(self):
        rng = np.random.default_rng(25)
        k, d, s = 3, 2, 60
        thetas = rng.standard_normal((s, k, d))
        enc = channel.RepetitionEncoding(d, 2, 0.8)
        ys = channel.transmit(thetas, [enc], 0.2, rng)
        init = np.linalg.pinv(enc.matrix())[None] / k
        result = wvcmc.run_wvcmc(
            ys, init, [enc.matrix()], k, posteriors.gaussian_joint_grad_fn(np.eye(d) / k),
            step_size=1e-3, n_iterations=10, rng=np.random.default_rng(3),
        )
        assert result.weights.shape == (1, d, 2 * d)
        assert not np.array_equal(result.weights, init)
        np.testing.assert_array_equal(result.samples, apply_weights(result.weights, ys))


def loop_grad(w, ys, e, k, joint_grad, idx=None):
    """The gradient written as two solves per receiver."""
    s, r = ys.shape[0], w.shape[0]
    g = joint_grad(apply_weights(w, ys), idx)
    out = np.empty_like(w)
    for j in range(r):
        data = -(g.T @ ys[:, j, :]) / s
        ent = np.linalg.solve((w[j] @ e[j]).T, (k / r) * e[j].T)
        ent = ent + np.linalg.solve(w[j] @ w[j].T, w[j])
        out[j] = data - ent / (k + r)
    return out


def loop_entropy_lb(w, e, n0, k, ents):
    """The entropy bound written as two slogdet calls per receiver."""
    r, d, _ = w.shape
    n = k + r
    acc = float(np.sum(ents))
    for j in range(r):
        for mat, factor in ((w[j] @ e[j], k / r), (w[j] @ w[j].T, 0.5)):
            sign, logdet = np.linalg.slogdet(mat)
            if sign == 0 or not np.isfinite(logdet):
                raise np.linalg.LinAlgError(f"receiver {j} is singular")
            acc += factor * logdet
    return 0.5 * d * (np.log(n) + (r / n) * np.log(2.0 * np.pi * np.e * n0)) + acc / n


class TestStackedMatchesLoop:
    """The stacked bound and gradient against the per-receiver loop they replaced."""

    @pytest.mark.parametrize("receivers, reps", [(4, 1), (4, 2), (1, 1), (1, 2)])
    def test_same_numbers(self, receivers, reps):
        rng = np.random.default_rng(40 + 10 * receivers + reps)
        k, d, n0 = 4, 3, 0.3
        u = rng.standard_normal((30, d))
        v = (rng.uniform(size=30) < 0.5).astype(int)
        grad_fn = posteriors.probit_joint_grad_fn(u, v, 1.5)
        for _ in range(20):
            w, e, ys, _ = receiver_config(rng, k, receivers, d, reps)
            ents = rng.uniform(0.5, 2.0, size=k)
            idx = rng.choice(30, size=10, replace=False)
            for i in (None, idx):
                expected = loop_grad(w, ys, np.stack(e), k, grad_fn, i)
                assert np.array_equal(wvcmc.grad(w, ys, e, k, grad_fn, i), expected)
            expected = loop_entropy_lb(w, np.stack(e), n0, k, ents)
            assert wvcmc.entropy_lb(w, e, n0, k, ents) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("j", [0, 2])
    def test_one_singular_receiver_raises(self, j):
        rng = np.random.default_rng(50)
        k, d = 3, 2
        w, e, ys, _ = receiver_config(rng, k, k, d)
        w[j] = 0.0
        grad_fn = posteriors.gaussian_joint_grad_fn(np.eye(d))
        with pytest.raises(np.linalg.LinAlgError):
            loop_entropy_lb(w, np.stack(e), 0.3, k, np.zeros(k))
        with pytest.raises(np.linalg.LinAlgError):
            wvcmc.entropy_lb(w, e, 0.3, k, np.zeros(k))
        with pytest.raises(np.linalg.LinAlgError):
            wvcmc.grad(w, ys, e, k, grad_fn)


class TestRunWvcmc:
    def _setup(self, rng, k=3, d=2, s=40):
        covs = [random_pd(rng, d) for _ in range(k)]
        thetas = np.stack(
            [rng.multivariate_normal(np.zeros(d), c, size=s) for c in covs], axis=1
        )
        encs = channel.oma_encodings([1.0] * k, d, 1)
        n0 = 0.2
        ys = channel.transmit(thetas, encs, n0, rng)
        _, global_cov = aggregators.gaussian_product(covs)
        return covs, encs, n0, ys, global_cov

    def test_zero_step_size_keeps_init(self):
        rng = np.random.default_rng(6)
        covs, encs, n0, ys, global_cov = self._setup(rng)
        init = np.stack([np.eye(2) / 3] * 3)
        result = wvcmc.run_wvcmc(
            ys,
            init,
            [e.matrix() for e in encs],
            3,
            posteriors.gaussian_joint_grad_fn(global_cov),
            step_size=0.0,
            n_iterations=5,
            rng=np.random.default_rng(0),
        )
        np.testing.assert_array_equal(result.weights, init)
        np.testing.assert_allclose(result.samples, apply_weights(init, ys))
        assert result.halvings == 0

    def test_fixed_seed_trajectory_identical(self):
        rng = np.random.default_rng(7)
        covs, encs, n0, ys, global_cov = self._setup(rng)
        init = np.stack([np.eye(2) / 3] * 3)
        kwargs = dict(
            encodings=[e.matrix() for e in encs],
            n_workers=3,
            joint_grad=posteriors.gaussian_joint_grad_fn(global_cov),
            step_size=1e-3,
            n_iterations=20,
        )
        a = wvcmc.run_wvcmc(ys, init, rng=np.random.default_rng(1), **kwargs)
        b = wvcmc.run_wvcmc(ys, init, rng=np.random.default_rng(1), **kwargs)
        assert not np.array_equal(a.weights, init)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_objective_decreases_on_toy(self):
        rng = np.random.default_rng(8)
        covs, encs, n0, ys, global_cov = self._setup(rng, s=400)
        init = np.stack([np.eye(2) / 3] * 3)
        mats = [e.matrix() for e in encs]
        result = wvcmc.run_wvcmc(
            ys,
            init,
            mats,
            3,
            posteriors.gaussian_joint_grad_fn(global_cov),
            step_size=2e-3,
            n_iterations=150,
            rng=np.random.default_rng(2),
        )
        ents = [posteriors.GaussianSubposterior(c).entropy() for c in covs]
        log_joint = lambda thetas, idx=None: multivariate_normal(cov=global_cov).logpdf(thetas)
        objective = lambda ws: wvcmc.free_energy_oma(ws, ys, mats, n0, ents, log_joint)
        assert objective(result.weights) < objective(init)

    def test_all_halvings_rejected_raises(self):
        rng = np.random.default_rng(10)
        covs, encs, n0, ys, global_cov = self._setup(rng)
        init = np.stack([np.eye(2) / 3] * 3)
        infinite_grad = lambda thetas, idx=None: np.full_like(thetas, np.inf)
        with pytest.raises(RuntimeError, match=r"iteration 1\b"), np.errstate(invalid="ignore"):
            wvcmc.run_wvcmc(
                ys,
                init,
                [e.matrix() for e in encs],
                3,
                infinite_grad,
                step_size=1e-3,
                n_iterations=3,
                rng=np.random.default_rng(0),
            )

    @pytest.mark.parametrize("bad", ["zero weight", "singular product", "nan", "inf"])
    def test_init_that_fails_the_step_check_raises_before_any_gradient(self, bad):
        rng = np.random.default_rng(12)
        covs, encs, n0, ys, global_cov = self._setup(rng)
        mats = [e.matrix() for e in encs]
        init = np.stack([np.eye(2) / 3] * 3)
        if bad == "zero weight":
            init[1] = 0.0
        elif bad == "singular product":
            init[2, :, 0] = init[2, :, 1] = 0.5  # both columns equal: rank 1
        else:
            init[0, 1, 1] = float(bad)
        no_gradient = lambda thetas, idx=None: pytest.fail("a gradient was taken")
        with pytest.raises(ValueError, match="init leaves some"), np.errstate(invalid="ignore"):
            wvcmc.run_wvcmc(
                ys, init, mats, 3, no_gradient, step_size=1e-3, n_iterations=3,
                rng=np.random.default_rng(0),
            )

    def test_singular_candidate_is_retried_at_half_length(self):
        # K = R = d = 1, W = E = y = 1 and a constant log-joint gradient of -3:
        # the step direction is 3 - (1 + 1) / 2 = 2, so the full step of 0.5
        # lands on W = 0 and the halved step on W = 0.5.
        const_grad = lambda thetas, idx=None: np.full_like(thetas, -3.0)
        result = wvcmc.run_wvcmc(
            np.ones((1, 1, 1)), np.ones((1, 1, 1)), [np.ones((1, 1))], 1, const_grad,
            step_size=0.5, n_iterations=1, rng=np.random.default_rng(0),
        )
        np.testing.assert_array_equal(result.weights, [[[0.5]]])
        assert result.halvings == 1

    def test_halvings_are_summed_over_the_iterations(self):
        # The same set-up over two iterations: the first step is halved once
        # to W = 0.5; from there the direction is 3 - (2 + 2) / 2 = 1 and the
        # full step of 0.5 lands on W = 0 again, so it is halved once more.
        const_grad = lambda thetas, idx=None: np.full_like(thetas, -3.0)
        result = wvcmc.run_wvcmc(
            np.ones((1, 1, 1)), np.ones((1, 1, 1)), [np.ones((1, 1))], 1, const_grad,
            step_size=0.5, n_iterations=2, rng=np.random.default_rng(0),
        )
        np.testing.assert_array_equal(result.weights, [[[0.25]]])
        assert result.halvings == 2

    def test_stationarity_with_entropy_term_disabled(self):
        # Without the log-det barrier the Gaussian-toy objective is a smooth
        # quadratic, so full-batch descent reaches a first-order stationary
        # point of the data term.
        rng = np.random.default_rng(9)
        covs, encs, n0, ys, global_cov = self._setup(rng, s=500)
        grad_fn = posteriors.gaussian_joint_grad_fn(global_cov)
        weights = np.stack([np.eye(2) / 3] * 3)
        s = ys.shape[0]
        for _ in range(4000):
            thetas = apply_weights(weights, ys)
            g = grad_fn(thetas)
            data_grad = np.stack([-(g.T @ ys[:, k, :]) / s for k in range(3)])
            weights = weights - 5e-3 * data_grad
        assert np.linalg.norm(data_grad) < 1e-3


class TestStepCheck:
    """The validity check every candidate wvcmc step must pass."""

    @staticmethod
    def _stacks(k, d=3, reps=2, seed=11):
        rng = np.random.default_rng(seed)
        weights, encs, _ = gaussian_config(rng, k, d, reps)
        return weights, np.stack([e.matrix() for e in encs])

    def test_regular_stack_accepted(self):
        w, e = self._stacks(4)
        assert wvcmc._regular(w, e) is True

    @pytest.mark.parametrize("j", [0, 2, 3])
    def test_one_singular_product_rejected(self, j):
        # W_j stays full rank, but W_j E_j maps E_j's first input direction to 0
        w, e = self._stacks(4)
        u = e[j][:, 0]
        w[j] -= np.outer(w[j] @ u, u) / (u @ u)
        assert np.linalg.matrix_rank(w[j]) == w.shape[1]
        assert wvcmc._regular(w, e) is False

    @pytest.mark.parametrize("j", [0, 2, 3])
    def test_one_singular_weight_rejected(self, j):
        # W_j E_j stays regular, but a huge component of W_j outside E_j's
        # range puts W_j past the singularity margin
        w, e = self._stacks(4)
        outside = np.linalg.svd(e[j])[0][:, -1]
        w[j] += 1e13 * np.outer(np.ones(w.shape[1]), outside)
        assert np.linalg.cond(w[j] @ e[j]) < 1e6
        assert wvcmc._regular(w, e) is False

    def test_non_finite_member_rejected(self):
        w, e = self._stacks(4)
        w[1, 0, 0] = np.inf
        with np.errstate(invalid="ignore"):
            assert wvcmc._regular(w, e) is False

    def test_noma_stack_of_one(self):
        w, e = self._stacks(1)
        assert wvcmc._regular(w, e) is True
        w[0, -1] = 2 * w[0, 0]
        assert wvcmc._regular(w, e) is False


PROBIT = {"data": {"n": 200, "n_test": 0}, "reference": {"n_samples": 1000, "burn_in": 10}}


def svd_regular(w, e):
    """The step check as one SVD per matrix: every W_r E_r and every W_r is
    finite, with sigma_min > 1e-12 sigma_max."""
    for mat in [*(w @ e), *w]:
        if not np.all(np.isfinite(mat)):
            return False
        sv = np.linalg.svd(mat, compute_uv=False)
        if sv[-1] <= 1e-12 * sv[0]:
            return False
    return True


def with_ratio(rng, rows, cols, ratio):
    """A random (rows, cols) matrix, rows <= cols, whose largest singular value
    is 0.8-1 and whose smallest is ``ratio``."""
    u = np.linalg.qr(rng.standard_normal((rows, rows)))[0]
    v = np.linalg.qr(rng.standard_normal((cols, rows)))[0]
    return (u * np.append(rng.uniform(0.8, 1.0, rows - 1), ratio)) @ v.T


class TestStepCheckBound:
    """The determinant bound only spares the SVD: every decision is the SVD's."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        layout=st.sampled_from([("oma", 1), ("oma", 2), ("noma", 1), ("noma", 2)]),
        d=st.integers(2, 6),
        member=st.sampled_from(["product", "weight", None]),
        ratio=st.sampled_from([5e-13, 2e-12, 0.5 * wvcmc._CLEARANCE, 2 * wvcmc._CLEARANCE]),
    )
    def test_decides_as_the_svd_reference(self, seed, layout, d, member, ratio):
        # one member of a random stack with sigma_min / sigma_max on either
        # side of 1e-12 and of the clearance; the others well conditioned
        rng = np.random.default_rng(seed)
        mode, reps = layout
        receivers = int(rng.integers(1, 6)) if mode == "oma" else 1
        w = np.stack([with_ratio(rng, d, reps * d, 0.5) for _ in range(receivers)])
        e = np.stack([np.linalg.pinv(wr) @ with_ratio(rng, d, d, 0.5) for wr in w])
        j = int(rng.integers(receivers))
        if member == "product":
            e[j] = np.linalg.pinv(w[j]) @ with_ratio(rng, d, d, ratio)
        elif member == "weight":
            w[j] = with_ratio(rng, d, reps * d, ratio)
        scales = 10.0 ** rng.uniform(-3, 3, (2, receivers, 1, 1))
        w, e = scales[0] * w, scales[1] * e
        assert wvcmc._regular(w, e) is svd_regular(w, e)

    def test_inconclusive_bound_falls_back_to_the_svd(self, monkeypatch):
        # W_2 E_2 has sigma_min / sigma_max = 1e-8: regular, but its bound is
        # below the clearance, so only the SVD accepts it
        rng = np.random.default_rng(5)
        w, encs, _ = gaussian_config(rng, 4, 3, reps=2)
        e = np.stack([enc.matrix() for enc in encs])
        e[2] = np.linalg.pinv(w[2]) @ with_ratio(rng, 3, 3, 1e-8)
        assert svd_regular(w, e)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(a.shape) or svd(a, **kw))
        assert wvcmc._regular(w[:2], e[:2]) is True
        assert calls == []  # cleared by the bound
        assert wvcmc._regular(w, e) is True
        assert calls == [(4, 3, 3), (4, 3, 6)]  # the products' SVD, then the weights'

    @pytest.mark.parametrize("scenario", ["gaussian-toy", "probit-synthetic"])
    def test_one_step_is_init_minus_eta_times_the_gradient(self, scenario):
        # the toy's OMA weights (m_r = d) and a probit NOMA weight (m_r = 2d)
        mode, probit = ("oma", {}) if scenario == "gaussian-toy" else ("noma", PROBIT)
        link, cfg = start_link(scenario=scenario, **probit)
        encs = [enc.matrix() for enc in link.encs[mode]]
        assert encs[0].shape[0] == (1 if mode == "oma" else 2) * cfg.dim
        init = link.oma_start if mode == "oma" else link.noma_start
        ys, k, joint_grad = link.ys[mode], cfg.n_workers, link.world.joint_grad
        eta = 1e-3 if mode == "oma" else 1e-5
        result = wvcmc.run_wvcmc(
            ys, init, encs, k, joint_grad, eta, 1, np.random.default_rng(0),
            n_data=link.world.n_data,
        )
        assert result.halvings == 0
        expected = init - eta * wvcmc.grad(init, ys, encs, k, joint_grad)
        np.testing.assert_array_equal(result.weights, expected)


def start_link(**overrides):
    """A one-trial link over its world, built up to its received blocks, for a small config."""
    doc = {
        "scenario": "gaussian-toy",
        "n_workers": 3,
        "t_blocks": 60,
        "snr_db": 5.0,
        "trials": 1,
        "seed": 4,
        "schemes": {
            "gcmc": {},
            "wvcmc-oma": {"eta": 1e-3, "t_m": 0},
            "wvcmc-noma": {"eta": 1e-3, "t_m": 0},
        },
    }
    doc.update(overrides)
    cfg = config.parse_config(doc)
    return runner.Link(runner.build_world(cfg, 0), cfg, 0), cfg


class TestInitWeights:
    """Starting weights of the optimizer, which the experiment runner builds."""

    def test_toy_noma_identity_over_k(self):
        link, _ = start_link(n_workers=8, t_blocks=80)
        np.testing.assert_array_equal(link.noma_start, np.eye(5)[None] / 8)

    def test_probit_noma_scaled_pseudoinverse(self):
        link, _ = start_link(
            scenario="probit-synthetic",
            data={"n": 200, "n_test": 0},
            reference={"n_samples": 1000, "burn_in": 10},
        )
        (enc,) = link.encs["noma"]
        assert enc.reps == 2
        pinv = np.linalg.pinv(enc.matrix())
        np.testing.assert_allclose(link.noma_start, pinv[None] / 3)

    def test_oma_composes_decoders(self):
        link, _ = start_link(
            scenario="probit-synthetic",
            data={"n": 200, "n_test": 0},
            reference={"n_samples": 1000, "burn_in": 10},
            schemes={"gcmc": {}},
        )
        # the product rule on the decoded signals, composed with the decoders
        precisions, combined = aggregators.gaussian_product(
            aggregators.empirical_covariance(link.decoded)
        )
        start = link.oma_start
        for k, enc in enumerate(link.encs["oma"]):
            assert enc.reps == 2
            expected = combined @ precisions[k] @ enc.decode_matrix()
            assert np.abs(start[k] - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_zero_iterations_reproduce_gcmc_exactly(self):
        link, cfg = start_link()
        params = cfg.schemes["wvcmc-oma"]
        gcmc = link.run_gcmc("oma", None).samples
        np.testing.assert_array_equal(link.run_wvcmc("oma", params).samples, gcmc)
        rows = {row["scheme"]: row for row in runner.run_experiment(cfg)}
        assert rows["wvcmc-oma"]["err2"] == rows["gcmc"]["err2"]
