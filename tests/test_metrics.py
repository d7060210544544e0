"""Metric tests against hand-computed and direct-arithmetic oracles."""

import numpy as np
import pytest
from scipy.special import ndtr

from wcmc import metrics
from wcmc.posteriors import GaussianSubposterior


class TestSecondOrderError:
    def test_identical_samples_zero_error(self):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((50, 3))
        ref = metrics.second_moment(samples)
        assert metrics.second_order_error(samples, ref) == 0.0

    def test_scalar_case_direct_formula(self):
        # One dimension, estimated second moment 2 against reference 1: error 1.
        samples = np.array([[np.sqrt(2.0)], [-np.sqrt(2.0)]])
        assert metrics.second_order_error(samples, np.array([[1.0]])) == pytest.approx(1.0)

    def test_exact_sampler_converges(self):
        rng = np.random.default_rng(1)
        cov = np.array([[1.0, 0.4], [0.4, 2.0]])
        draws = GaussianSubposterior(cov).sample(rng, size=100_000)
        assert metrics.second_order_error(draws, cov) < 0.02

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        samples = rng.standard_normal((30, 2))
        ref = np.eye(2)
        shuffled = samples[rng.permutation(30)]
        assert metrics.second_order_error(samples, ref) == pytest.approx(
            metrics.second_order_error(shuffled, ref)
        )

    def test_zero_reference_entries_excluded_and_counted(self):
        # second moment [[1, 1], [1, 2]] against diag(2, 0.5): the two
        # off-diagonal entries, whose reference is zero, drop out of the mean
        # (they would divide by zero), so it runs over the diagonal only
        samples = np.array([[1.0, 2.0], [1.0, 0.0]])
        ref = np.diag([2.0, 0.5])
        nonzero = ref != 0
        expected = np.mean(np.abs(metrics.second_moment(samples) - ref)[nonzero] / ref[nonzero])
        assert nonzero.sum() == 2
        assert metrics.second_order_error(samples, ref) == pytest.approx(expected)
        assert expected == pytest.approx((0.5 + 3.0) / 2)

    def test_all_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            metrics.second_order_error(np.ones((3, 1)), np.zeros((1, 1)))


class TestEnsemblePredict:
    def test_single_sample_zero_margin(self):
        out = metrics.ensemble_predict(np.zeros((1, 2)), np.array([[1.0, 1.0]]))
        np.testing.assert_array_equal(out, [0.5])

    def test_degenerate_ensemble(self):
        theta = np.array([0.5, -1.0])
        samples = np.tile(theta, (7, 1))
        us = np.array([[2.0, 0.3], [-1.0, 0.4]])
        np.testing.assert_allclose(metrics.ensemble_predict(samples, us), ndtr(us @ theta), rtol=1e-15)

    def test_matches_direct_average(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal((40, 3))
        us = rng.standard_normal((11, 3))
        out = metrics.ensemble_predict(samples, us)
        oracle = np.array([np.mean(ndtr(samples @ u)) for u in us])
        np.testing.assert_allclose(out, oracle, atol=1e-12)


class TestWeightedSummaries:
    """Weighted nodes, such as a quadrature's, summarised like samples."""

    def test_integer_weights_repeat_their_sample(self):
        rng = np.random.default_rng(4)
        nodes = rng.standard_normal((5, 3))
        counts = np.array([1, 3, 0, 2, 4])
        repeated = np.repeat(nodes, counts, axis=0)
        weights = counts / counts.sum()
        us = rng.standard_normal((6, 3))
        np.testing.assert_allclose(
            metrics.second_moment(nodes, weights), metrics.second_moment(repeated), atol=1e-14
        )
        np.testing.assert_allclose(
            metrics.ensemble_predict(nodes, us, weights),
            metrics.ensemble_predict(repeated, us),
            atol=1e-14,
        )

    def test_one_weight_per_node(self):
        nodes = np.ones((4, 2))
        for weights in (np.full(3, 1 / 3), np.full((4, 1), 0.25), np.ones(1)):
            with pytest.raises(ValueError, match="one weight per sample"):
                metrics.second_moment(nodes, weights)
            with pytest.raises(ValueError, match="one weight per sample"):
                metrics.ensemble_predict(nodes, np.ones((2, 2)), weights)

    def test_moment_error_is_the_samples_err2(self):
        rng = np.random.default_rng(5)
        samples = rng.standard_normal((30, 3))
        reference = np.eye(3) + 0.1
        assert metrics.moment_error(metrics.second_moment(samples), reference) == (
            metrics.second_order_error(samples, reference)
        )


class TestKlEnsemble:
    def test_identical_sample_sets_zero(self):
        rng = np.random.default_rng(4)
        samples = rng.standard_normal((2000, 2))
        us = rng.standard_normal((20, 2))
        assert metrics.kl_ensemble(samples, metrics.ensemble_predict(samples, us), us) == 0.0

    def test_equals_kl_of_the_two_predictions(self):
        rng = np.random.default_rng(6)
        samples = rng.standard_normal((50, 3))
        reference = 0.5 * rng.standard_normal((3000, 3))
        us = rng.standard_normal((25, 3))
        p = np.array([np.mean(ndtr(samples @ u)) for u in us])
        q = np.array([np.mean(ndtr(reference @ u)) for u in us])
        value = metrics.kl_ensemble(samples, metrics.ensemble_predict(reference, us), us)
        assert value == pytest.approx(float(np.mean(metrics.bernoulli_kl(p, q))), rel=1e-12)
        with pytest.raises(ValueError, match="one reference prediction per test row"):
            metrics.kl_ensemble(samples, q[:-1], us)

    def test_hand_value(self):
        # KL(Bern(0.9) || Bern(0.5)) = 0.9 ln 1.8 + 0.1 ln 0.2 = 0.3681.
        value = float(metrics.bernoulli_kl(0.9, 0.5))
        assert value == pytest.approx(0.9 * np.log(1.8) + 0.1 * np.log(0.2))
        assert value == pytest.approx(0.3681, abs=1e-4)

    def test_nonnegative_and_clamped(self):
        assert metrics.bernoulli_kl(0.0, 1.0) > 0
        assert np.isfinite(metrics.bernoulli_kl(0.0, 1.0))
        rng = np.random.default_rng(5)
        p = rng.uniform(size=100)
        q = rng.uniform(size=100)
        assert (metrics.bernoulli_kl(p, q) >= 0).all()
