"""Baseline tests: SGLD schedule and dynamics, best-single-worker selection."""

import numpy as np
import pytest
from scipy.special import ndtr

from wcmc import baselines, metrics, posteriors


class TestSgldSchedule:
    def test_strictly_decreasing(self):
        sched = baselines.SgldSchedule(0.01, 1.0, 0.7, n_iterations=100, burn_in=10)
        steps = [sched.step_size(t) for t in range(1, 101)]
        assert all(a > b for a, b in zip(steps, steps[1:]))

    def test_gamma_range_enforced(self):
        with pytest.raises(ValueError):
            baselines.SgldSchedule(0.01, 1.0, 0.4, n_iterations=10, burn_in=1)
        with pytest.raises(ValueError):
            baselines.SgldSchedule(0.01, -1.0, 0.7, n_iterations=10, burn_in=1)

    @pytest.mark.parametrize("size", [0, -3])
    def test_minibatch_size_below_one_rejected(self, size):
        with pytest.raises(ValueError, match=f"n_b must be positive, got {size}"):
            baselines.SgldSchedule(0.01, 1.0, 0.7, n_iterations=10, burn_in=1, minibatch_size=size)


class TestSgldRun:
    def test_zero_gradient_is_random_walk(self):
        # With no drift the increments are pure injected noise with variance
        # equal to the step size at every iteration.
        zero = lambda thetas, idx=None: np.zeros_like(thetas)
        sched = baselines.SgldSchedule(
            0.5, 1.0, 1.0, n_iterations=20_000, burn_in=0
        )
        kept = baselines.sgld_run(zero, sched, np.zeros(1), np.random.default_rng(0))
        increments = np.diff(np.concatenate([[0.0], kept[:, 0]]))
        etas = np.array([sched.step_size(t) for t in range(1, sched.n_iterations + 1)])
        standardized = increments / np.sqrt(etas)
        assert standardized.var() == pytest.approx(1.0, rel=0.05)
        assert abs(standardized.mean()) < 0.02

    def test_recovers_small_gaussian_posterior(self):
        # The decaying schedule integrates only ~1 unit of diffusion time over
        # 1e5 steps, so the target scale is chosen small enough for the chain
        # to decorrelate many times; mean and covariance then come back within
        # tight tolerances.
        mean = np.array([0.3, -0.2])
        cov = 1e-4 * np.array([[1.0, 0.3], [0.3, 1.0]])
        prec = np.linalg.inv(cov)
        grad = lambda thetas, idx=None: -(thetas - mean) @ prec
        sched = baselines.SgldSchedule(
            0.01, 1.0, 0.7, n_iterations=100_000, burn_in=10_000
        )
        kept = baselines.sgld_run(grad, sched, np.zeros(2), np.random.default_rng(0))
        assert np.abs(kept.mean(axis=0) - mean).max() < 0.02
        centered = kept - kept.mean(axis=0)
        sample_cov = centered.T @ centered / (kept.shape[0] - 1)
        assert np.linalg.norm(sample_cov - cov) / np.linalg.norm(cov) < 0.05

    def test_fixed_seed_deterministic(self):
        grad = lambda thetas, idx=None: -thetas
        sched = baselines.SgldSchedule(0.1, 1.0, 0.7, n_iterations=500, burn_in=100)
        a = baselines.sgld_run(grad, sched, np.ones(2), np.random.default_rng(42))
        b = baselines.sgld_run(grad, sched, np.ones(2), np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_divergence_aborts_with_diagnostic(self):
        # An explosive gradient field drives the iterate to overflow.  The
        # message names the first non-finite iterate, 122 for this seed, found
        # here by replaying the recursion with its own finiteness check.
        grad = lambda thetas, idx=None: thetas * 1e4
        sched = baselines.SgldSchedule(1.0, 1.0, 0.7, n_iterations=2000, burn_in=10)
        rng, theta, first = np.random.default_rng(1), np.ones(1), None
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(1, sched.n_iterations + 1):
                eta = sched.step_size(t)
                theta = theta + 0.5 * eta * grad(theta) + np.sqrt(eta) * rng.standard_normal(1)
                if not np.all(np.isfinite(theta)):
                    first = t
                    break
        assert first == 122
        step = f"{sched.step_size(first):.3e}"
        with np.errstate(over="ignore"), pytest.raises(
            RuntimeError, match=rf"diverged at iteration {first} \(step size {step}\)"
        ):
            baselines.sgld_run(grad, sched, np.ones(1), np.random.default_rng(1))

    def test_minibatch_run_keeps_the_bits_of_the_per_iteration_loop(self):
        # The loop as it was written, with the step size, its np.sqrt and the
        # np.all(np.isfinite) check taken per iteration, on a probit minibatch
        # gradient: the precomputed schedule must give the same chain.
        rng = np.random.default_rng(5)
        n, nb = 1000, 100
        u = rng.standard_normal((n, 3))
        v = (rng.uniform(size=n) < ndtr(u @ np.array([0.5, -1.0, 1.5]))).astype(int)
        grad = posteriors.probit_joint_grad_fn(u, v, 20.0)
        sched = baselines.SgldSchedule(
            1e-3, 10.0, 0.55, n_iterations=600, burn_in=100, minibatch_size=nb
        )
        kept = baselines.sgld_run(grad, sched, np.zeros(3), np.random.default_rng(6), n_data=n)

        rng, theta, expected = np.random.default_rng(6), np.zeros(3), []
        for t in range(1, sched.n_iterations + 1):
            idx = rng.choice(n, size=nb, replace=False)
            eta = sched.step_size(t)
            g = np.asarray(grad(theta[None, :], idx), dtype=float)[0]
            theta = theta + 0.5 * eta * g + np.sqrt(eta) * rng.standard_normal(3)
            assert np.all(np.isfinite(theta))
            if t > sched.burn_in:
                expected.append(theta)
        np.testing.assert_array_equal(kept, expected)

    def test_burn_in_discarded(self):
        grad = lambda thetas, idx=None: -thetas
        sched = baselines.SgldSchedule(0.1, 1.0, 0.7, n_iterations=300, burn_in=120)
        kept = baselines.sgld_run(grad, sched, np.zeros(1), np.random.default_rng(2))
        assert kept.shape == (180, 1)


class TestBestSingleWorker:
    def test_single_worker_returned(self):
        samples = [np.ones((5, 2))]
        idx, chosen = baselines.best_single_worker(samples, lambda s: 1.0)
        assert idx == 0
        np.testing.assert_array_equal(chosen, samples[0])

    def test_full_data_worker_dominates(self):
        # Worker 0 matches the reference moment exactly; the others are far off.
        reference = np.eye(2)
        rng = np.random.default_rng(3)
        good = rng.multivariate_normal(np.zeros(2), np.eye(2), size=4000)
        bad = [5.0 * rng.standard_normal((4000, 2)) for _ in range(2)]
        metric = lambda s: metrics.second_order_error(s, reference)
        idx, _ = baselines.best_single_worker([good] + bad, metric)
        assert idx == 0

    def test_metric_evaluated_per_worker(self):
        scores = {0: 3.0, 1: 1.0, 2: 2.0}
        sets = [np.full((2, 1), float(k)) for k in range(3)]
        idx, chosen = baselines.best_single_worker(sets, lambda s: scores[int(s[0, 0])])
        assert idx == 1
        np.testing.assert_array_equal(chosen, sets[1])
