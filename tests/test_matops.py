"""Matrix primitive tests: trivial cases, independent oracles, and invariants."""

import numpy as np
import pytest

from wcmc import matops
from wcmc.harness.data import toeplitz_covariance


def random_psd(rng, d, min_eig=0.0):
    b = rng.standard_normal((d, d))
    return b @ b.T + min_eig * np.eye(d)


class TestPositivePart:
    def test_identity(self):
        np.testing.assert_allclose(matops.positive_part(np.eye(3)), np.eye(3))

    def test_diagonal_clamp(self):
        np.testing.assert_allclose(
            matops.positive_part(np.diag([2.0, -1.0])), np.diag([2.0, 0.0])
        )

    def test_matches_eigen_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = matops.symmetrize(rng.standard_normal((5, 5)))
            w, v = np.linalg.eigh(a)
            oracle = (v * np.clip(w, 0, None)) @ v.T
            np.testing.assert_allclose(matops.positive_part(a), oracle, atol=1e-10)

    def test_idempotent_and_fixed_on_psd(self):
        rng = np.random.default_rng(5)
        a = matops.symmetrize(rng.standard_normal((4, 4)))
        once = matops.positive_part(a)
        np.testing.assert_allclose(matops.positive_part(once), once, atol=1e-10)
        psd = random_psd(rng, 4, min_eig=0.01)
        np.testing.assert_allclose(matops.positive_part(psd), psd, atol=1e-10)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            matops.positive_part(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_stack_is_projected_one_matrix_at_a_time(self):
        rng = np.random.default_rng(3)
        stack = matops.symmetrize(rng.standard_normal((4, 3, 3)))
        got = matops.positive_part(stack)
        for a, g in zip(stack, got):
            np.testing.assert_array_equal(g, matops.positive_part(a))
        stack[2, 0, 1] += 1.0
        with pytest.raises(ValueError, match="symmetric"):
            matops.positive_part(stack)


class TestToeplitzCovariance:
    def test_zero_rho_is_identity(self):
        np.testing.assert_allclose(toeplitz_covariance(0.0, 5), np.eye(5))

    def test_direct_formula(self):
        expected = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
        np.testing.assert_allclose(toeplitz_covariance(0.5, 3), expected)

    def test_eigenvalues_nonnegative(self):
        for rho in (-0.95, -0.5, 0.3, 0.9, 0.99):
            w = np.linalg.eigvalsh(toeplitz_covariance(rho, 5))
            assert w.min() > -1e-12

    def test_rho_out_of_range(self):
        with pytest.raises(ValueError):
            toeplitz_covariance(1.5, 3)


class TestSampleMvn:
    def test_zero_covariance_returns_mean(self):
        rng = np.random.default_rng(6)
        mean = np.array([1.0, -2.0])
        draw = matops.sample_mvn(mean, np.zeros((2, 2)), rng)
        np.testing.assert_array_equal(draw, mean)

    def test_sample_covariance_converges(self):
        rng = np.random.default_rng(7)
        draws = matops.sample_mvn(np.zeros(2), np.eye(2), rng, size=100_000)
        sample_cov = draws.T @ draws / draws.shape[0]
        assert np.abs(sample_cov - np.eye(2)).max() < 0.05

    def test_fixed_seed_reproducible(self):
        cov = random_psd(np.random.default_rng(8), 3, min_eig=0.1)
        a = matops.sample_mvn(np.zeros(3), cov, np.random.default_rng(99), size=10)
        b = matops.sample_mvn(np.zeros(3), cov, np.random.default_rng(99), size=10)
        np.testing.assert_array_equal(a, b)

    def test_semidefinite_covariance_supported(self):
        # Rank-1 covariance forces the eigen fallback.
        cov = np.outer([1.0, 2.0], [1.0, 2.0])
        rng = np.random.default_rng(9)
        draws = matops.sample_mvn(np.zeros(2), cov, rng, size=1000)
        # Every draw stays on the rank-1 line.
        ratio = draws[:, 1] / np.where(np.abs(draws[:, 0]) > 1e-12, draws[:, 0], 1.0)
        assert np.allclose(ratio[np.abs(draws[:, 0]) > 1e-12], 2.0, atol=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matops.sample_mvn(np.zeros(3), np.eye(2), np.random.default_rng(0))
