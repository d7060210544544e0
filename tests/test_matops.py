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


class TestPsdFactor:
    def test_cholesky_factor_of_a_positive_definite_covariance(self):
        cov = random_psd(np.random.default_rng(8), 3, min_eig=0.1)
        factor = matops.psd_factor(cov)
        np.testing.assert_array_equal(factor, np.tril(factor))
        np.testing.assert_allclose(factor @ factor.T, cov, rtol=1e-12, atol=1e-12)

    def test_rank_one_covariance_raises(self):
        # every caller passes a positive definite covariance
        with pytest.raises(np.linalg.LinAlgError):
            matops.psd_factor(np.outer([1.0, 2.0], [1.0, 2.0]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            matops.psd_factor(np.array([[1.0, 0.5], [0.0, 1.0]]))
