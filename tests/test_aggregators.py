"""Aggregation-rule tests: trivial reductions, algebraic identities, estimates."""

import numpy as np
import pytest

from wcmc import aggregators, channel
from wcmc.matops import sample_mvn, toeplitz_covariance


def random_pd(rng, d, floor=0.2):
    b = rng.standard_normal((d, d))
    return b @ b.T / d + floor * np.eye(d)


class TestApplyWeights:
    def test_equal_weights_average_noiseless(self):
        k, d, s = 4, 3, 6
        rng = np.random.default_rng(0)
        thetas = rng.standard_normal((s, k, d))
        out = aggregators.apply_weights(np.stack([np.eye(d) / k] * k), thetas)
        np.testing.assert_allclose(out, thetas.mean(axis=1))

    def test_zero_weight_zero_output(self):
        out = aggregators.apply_weights(np.zeros((1, 2, 4)), np.ones((5, 1, 4)))
        np.testing.assert_array_equal(out, np.zeros((5, 2)))

    def test_matches_direct_arithmetic(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((3, 2, 5))
        ys = rng.standard_normal((7, 3, 5))
        out = aggregators.apply_weights(w, ys)
        oracle = np.stack([sum(w[k] @ ys[s, k] for k in range(3)) for s in range(7)])
        np.testing.assert_allclose(out, oracle, atol=1e-12)

    def test_shape_mismatch(self):
        w = np.zeros((2, 3, 4))
        with pytest.raises(ValueError):
            aggregators.apply_weights(w, np.zeros((5, 3)))
        with pytest.raises(ValueError, match="R=2"):
            aggregators.apply_weights(w, np.zeros((5, 1, 4)))
        with pytest.raises(ValueError, match="m_r=4"):
            aggregators.apply_weights(w, np.zeros((5, 2, 3)))
        with pytest.raises(ValueError, match="stack"):
            aggregators.apply_weights(np.zeros((3, 4)), np.zeros((5, 1, 4)))

    def test_non_finite_weights_rejected(self):
        w = np.zeros((1, 2, 2))
        w[0, 1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            aggregators.apply_weights(w, np.zeros((3, 1, 2)))

    def test_one_receiver_is_a_matrix_product(self):
        # NOMA: one receiver, so the aggregate is W y[s] for every block
        rng = np.random.default_rng(12)
        w = rng.standard_normal((1, 3, 6))
        ys = rng.standard_normal((9, 1, 6))
        np.testing.assert_allclose(aggregators.apply_weights(w, ys), ys[:, 0] @ w[0].T, atol=1e-12)


class TestGcmcWeights:
    def test_single_worker_identity(self):
        rng = np.random.default_rng(2)
        decoded = rng.standard_normal((40, 1, 3))
        ws = aggregators.gcmc_weights(decoded)
        np.testing.assert_allclose(ws[0], np.eye(3), atol=1e-9)

    def test_equal_covariances_split_evenly(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((200, 2))
        decoded = np.stack([base, base.copy()], axis=1)
        ws = aggregators.gcmc_weights(decoded)
        np.testing.assert_allclose(ws[0], np.eye(2) / 2, atol=1e-9)
        np.testing.assert_allclose(ws[1], np.eye(2) / 2, atol=1e-9)

    def test_diagonal_family_matches_hand_oracle(self):
        # Build exact-covariance samples via linear maps of a fixed cloud so
        # the empirical covariances are known in closed form.
        rng = np.random.default_rng(4)
        base = rng.standard_normal((500, 2))
        base = (base - base.mean(0)) @ np.linalg.inv(np.linalg.cholesky(
            np.cov(base.T, bias=False))).T  # exactly whitened
        diags = [np.diag([1.0, 2.0]), np.diag([2.0, 1.0]), np.diag([1.0, 1.0])]
        decoded = np.stack([base @ np.sqrt(d) for d in diags], axis=1)
        ws = aggregators.gcmc_weights(decoded)
        precisions = [np.linalg.inv(d) for d in diags]
        combined = np.linalg.inv(sum(precisions))
        for k, p in enumerate(precisions):
            np.testing.assert_allclose(ws[k], combined @ p, atol=1e-8)

    def test_weights_sum_to_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            decoded = rng.standard_normal((30, 4, 3))
            ws = aggregators.gcmc_weights(decoded)
            np.testing.assert_allclose(ws.sum(axis=0), np.eye(3), atol=1e-9)


class TestWgcmcExactIdentities:
    def test_oma_distribution_match(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            d = int(rng.integers(1, 6))
            covs = [random_pd(rng, d) for _ in range(k)]
            p = rng.uniform(0.2, 3.0, size=k)
            n0 = float(rng.choice([0.1, 1.0]))
            w = aggregators.wgcmc_oma_weights_exact(covs, p, n0)
            lhs = sum(w[j] @ (p[j] * covs[j] + n0 * np.eye(d)) @ w[j].T for j in range(k))
            rhs = np.linalg.inv(sum(np.linalg.inv(c) for c in covs))
            assert np.abs(lhs - rhs).max() < 1e-8

    def test_noma_distribution_match(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            d = int(rng.integers(1, 6))
            cov0 = random_pd(rng, d)
            min_p = float(rng.uniform(0.2, 3.0))
            n0 = float(rng.choice([0.1, 1.0]))
            w = aggregators.wgcmc_noma_weight_exact(cov0, k, min_p, n0)
            lhs = w @ (k * min_p * cov0 + n0 * np.eye(d)) @ w.T
            assert np.abs(lhs - cov0 / k).max() < 1e-8

    def test_noma_hand_case(self):
        # K=1, C=I, P=1, N0=1: W = I/sqrt(2) and the output covariance is C.
        w = aggregators.wgcmc_noma_weight_exact(np.eye(2), 1, 1.0, 1.0)
        np.testing.assert_allclose(w, np.eye(2) / np.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(w @ (np.eye(2) + np.eye(2)) @ w.T, np.eye(2), atol=1e-12)


class TestWgcmcEstimated:
    def test_noiseless_unit_power_reduces_to_gcmc(self):
        rng = np.random.default_rng(8)
        ys = rng.standard_normal((60, 3, 4))
        ws_wgcmc = aggregators.wgcmc_oma(ys, [1.0, 1.0, 1.0], n0=0.0)
        ws_gcmc = aggregators.gcmc_weights(ys)
        np.testing.assert_allclose(ws_wgcmc, ws_gcmc, atol=1e-8)

    def test_covariance_estimates_are_psd(self):
        # Strong noise subtraction forces the PSD projection to engage.
        rng = np.random.default_rng(9)
        ys = 0.1 * rng.standard_normal((30, 2, 3))
        ws = aggregators.wgcmc_oma(ys, [1.0, 1.0], n0=1.0)
        assert np.isfinite(ws).all()

    def test_noma_sample_covariance_converges(self):
        # Homogeneous Gaussian simulation: the aggregated samples' covariance
        # approaches C0 / K as the block count grows.
        rng = np.random.default_rng(10)
        k, d, s = 4, 3, 20_000
        cov0 = toeplitz_covariance(0.5, d)
        min_p = 0.8
        thetas = np.stack(
            [sample_mvn(np.zeros(d), cov0, rng, size=s) for _ in range(k)], axis=1
        )
        enc = channel.RepetitionEncoding(d, 1, min_p)
        n0 = 0.3
        ys = channel.transmit(thetas, [enc], n0, rng)
        ws = aggregators.wgcmc_noma(ys, k, min_p, n0)
        assert ws.shape == (1, d, d)
        out = aggregators.apply_weights(ws, ys)
        target = cov0 / k
        sample_cov = out.T @ out / s
        assert np.abs(sample_cov - target).max() / np.abs(target).max() < 0.05

    def test_repetition_fold_matches_square_set_up(self):
        # Two repetitions with noise: folding halves the effective noise, so
        # the fitted weights match a square fit on pre-averaged blocks.
        rng = np.random.default_rng(11)
        d, s = 3, 5000
        thetas = rng.standard_normal((s, 1, d))
        enc = channel.oma_encodings([1.3], d, reps=2)
        n0 = 0.5
        ys = channel.transmit(thetas, enc, n0, rng)
        ws_full = aggregators.wgcmc_oma(ys, [1.3], n0, reps=2)
        folded = 0.5 * (ys[:, :, :d] + ys[:, :, d:])
        ws_sq = aggregators.wgcmc_oma(folded, [1.3], n0 / 2, reps=1)
        out_full = aggregators.apply_weights(ws_full, ys)
        out_sq = aggregators.apply_weights(ws_sq, folded)
        np.testing.assert_allclose(out_full, out_sq, atol=1e-10)

    def test_one_worker_rules_agree(self):
        # K = 1 on one receiver: the OMA product of one subposterior and the
        # NOMA rescaling of it are the same weight, C^{1/2} (P C + N0 I)^{-1/2}
        rng = np.random.default_rng(13)
        ys = rng.standard_normal((400, 1, 6)) @ np.diag([1.0, 0.5, 2.0, 1.0, 0.5, 2.0])
        oma = aggregators.wgcmc_oma(ys, [0.6], 0.2, reps=2)
        noma = aggregators.wgcmc_noma(ys, 1, 0.6, 0.2, reps=2)
        np.testing.assert_allclose(oma, noma, rtol=1e-9, atol=1e-12)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            aggregators.wgcmc_oma(np.zeros((1, 2, 3)), [1.0, 1.0], 0.1)

    def test_noma_needs_one_receiver(self):
        with pytest.raises(ValueError, match="1, m_r"):
            aggregators.wgcmc_noma(np.ones((10, 3)), 2, 1.0, 0.1)
        with pytest.raises(ValueError, match="1, m_r"):
            aggregators.wgcmc_noma(np.ones((10, 2, 3)), 2, 1.0, 0.1)
