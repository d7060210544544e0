"""Aggregation-rule tests: trivial reductions, algebraic identities, estimates."""

import numpy as np
import pytest
from scipy.linalg import sqrtm

from wcmc import aggregators, channel, matops
from wcmc.harness.data import toeplitz_covariance
from wcmc.matops import positive_part, symmetrize
from wcmc.posteriors import GaussianSubposterior


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


def unit_power_fit(decoded):
    """The rule told N0 = 0 on K unit-power receivers of unrepeated signals:
    the classical consensus weights on those signals."""
    k = decoded.shape[1]
    return aggregators.gcmc_weights(decoded, [1.0] * k, k, 0.0)


class TestGcmcWeights:
    def test_single_worker_identity(self):
        rng = np.random.default_rng(2)
        decoded = rng.standard_normal((40, 1, 3))
        ws = unit_power_fit(decoded)
        np.testing.assert_allclose(ws[0], np.eye(3), atol=1e-9)

    def test_equal_covariances_split_evenly(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((200, 2))
        decoded = np.stack([base, base.copy()], axis=1)
        ws = unit_power_fit(decoded)
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
        ws = unit_power_fit(decoded)
        precisions = [np.linalg.inv(d) for d in diags]
        combined = np.linalg.inv(sum(precisions))
        for k, p in enumerate(precisions):
            np.testing.assert_allclose(ws[k], combined @ p, atol=1e-8)

    def test_weights_sum_to_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            decoded = rng.standard_normal((30, 4, 3))
            ws = unit_power_fit(decoded)
            np.testing.assert_allclose(ws.sum(axis=0), np.eye(3), atol=1e-9)

    def test_noiseless_rule_is_the_decoded_product_rule(self):
        # Told N0 = 0, the rule on received blocks is the product rule fitted
        # on the decoded signals E_k^+ y_k, composed with the decoders.
        rng = np.random.default_rng(8)
        k, d, reps, s = 3, 4, 2, 60
        scales = [0.4, 1.0, 2.3]
        encs = channel.oma_encodings(scales, d, reps)
        thetas = rng.standard_normal((s, k, d)) @ np.diag([1.0, 0.5, 2.0, 1.5])
        ys = channel.transmit(thetas, encs, 0.2, rng)
        decoded = np.stack([e.decode(ys[:, j]) for j, e in enumerate(encs)], axis=1)
        precisions, combined = aggregators.gaussian_product(
            aggregators.empirical_covariance(decoded)
        )
        expected = np.stack([combined @ c @ e.decode_matrix() for c, e in zip(precisions, encs)])
        ws = aggregators.gcmc_weights(ys, scales, k, 0.0, reps=2)
        assert np.abs(ws - expected).max() <= 1e-12 * np.abs(expected).max()


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

    def test_shared_receivers_distribution_match(self):
        # m = K/R workers per receiver, neither OMA nor NOMA: the output law
        # sum_r W_r (m P_r C_r + N0 I) W_r^T is (m sum_r C_r^{-1})^{-1}
        rng = np.random.default_rng(14)
        for m, r in ((2, 3), (3, 2), (4, 1)):
            d = 3
            covs = np.stack([random_pd(rng, d) for _ in range(r)])
            p = rng.uniform(0.2, 3.0, size=r)
            w = aggregators.gcmc_weights_exact(covs, p, 0.4, m * r)
            lhs = sum(w[j] @ (m * p[j] * covs[j] + 0.4 * np.eye(d)) @ w[j].T for j in range(r))
            rhs = np.linalg.inv(m * sum(np.linalg.inv(c) for c in covs))
            assert np.abs(lhs - rhs).max() < 1e-8

    def test_one_receiver_is_the_noma_closed_form(self):
        # R = 1: W = K^{-1/2} C_0^{1/2} (K P C_0 + N0 I)^{-1/2}
        rng = np.random.default_rng(15)
        k, d, p, n0 = 5, 4, 0.7, 0.3
        cov0 = random_pd(rng, d)
        root = sqrtm(cov0).real @ np.linalg.inv(sqrtm(k * p * cov0 + n0 * np.eye(d)).real)
        w = aggregators.gcmc_weights_exact(cov0[None], [p], n0, k)
        np.testing.assert_allclose(w[0], root / np.sqrt(k), rtol=1e-10, atol=1e-12)

    def test_receivers_must_share_the_workers_evenly(self):
        covs = np.stack([np.eye(2)] * 2)
        with pytest.raises(ValueError, match="evenly"):
            aggregators.gcmc_weights_exact(covs, [1.0, 1.0], 0.1, 3)
        with pytest.raises(ValueError, match="one power scale per receiver"):
            aggregators.gcmc_weights_exact(covs, [1.0], 0.1, 2)

    def test_noma_hand_case(self):
        # K=1, C=I, P=1, N0=1: W = I/sqrt(2) and the output covariance is C.
        w = aggregators.wgcmc_noma_weight_exact(np.eye(2), 1, 1.0, 1.0)
        np.testing.assert_allclose(w, np.eye(2) / np.sqrt(2), atol=1e-12)
        np.testing.assert_allclose(w @ (np.eye(2) + np.eye(2)) @ w.T, np.eye(2), atol=1e-12)


class TestWgcmcEstimated:
    def test_covariance_estimates_are_psd(self):
        # Strong noise subtraction forces the PSD projection to engage.
        rng = np.random.default_rng(9)
        ys = 0.1 * rng.standard_normal((30, 2, 3))
        ws = aggregators.gcmc_weights(ys, [1.0, 1.0], 2, n0=1.0)
        assert np.isfinite(ws).all()

    def test_noma_sample_covariance_converges(self):
        # Homogeneous Gaussian simulation: the aggregated samples' covariance
        # approaches C0 / K as the block count grows.
        rng = np.random.default_rng(10)
        k, d, s = 4, 3, 20_000
        cov0 = toeplitz_covariance(0.5, d)
        min_p = 0.8
        thetas = np.stack(
            [GaussianSubposterior(cov0).sample(rng, size=s) for _ in range(k)], axis=1
        )
        enc = channel.RepetitionEncoding(d, 1, min_p)
        n0 = 0.3
        ys = channel.transmit(thetas, [enc], n0, rng)
        ws = aggregators.gcmc_weights(ys, [min_p], k, n0)
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
        ws_full = aggregators.gcmc_weights(ys, [1.3], 1, n0, reps=2)
        folded = 0.5 * (ys[:, :, :d] + ys[:, :, d:])
        ws_sq = aggregators.gcmc_weights(folded, [1.3], 1, n0 / 2, reps=1)
        out_full = aggregators.apply_weights(ws_full, ys)
        out_sq = aggregators.apply_weights(ws_sq, folded)
        np.testing.assert_allclose(out_full, out_sq, atol=1e-10)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            aggregators.gcmc_weights(np.zeros((1, 2, 3)), [1.0, 1.0], 2, 0.1)

    def test_noma_needs_one_receiver(self):
        # one power scale: the blocks must be one receiver's
        with pytest.raises(ValueError, match="R=1, m_r"):
            aggregators.gcmc_weights(np.ones((10, 3)), [1.0], 2, 0.1)
        with pytest.raises(ValueError, match="R=1, m_r"):
            aggregators.gcmc_weights(np.ones((10, 2, 3)), [1.0], 2, 0.1)


def ridge_one(a):
    """The ridge policy on one matrix."""
    a = symmetrize(a)
    lam = matops.RIDGE_RTOL * np.trace(a) / a.shape[0]
    if np.linalg.eigvalsh(a)[0] <= lam or lam <= 0.0:
        return a + (lam if lam > 0 else matops.RIDGE_RTOL) * np.eye(a.shape[0])
    return a


class TestStackedMatchesLoop:
    """The stacked product rule and spectral map against per-matrix loops."""

    @pytest.mark.parametrize("r, d", [(1, 3), (6, 5), (20, 2)])
    def test_same_bits(self, r, d):
        rng = np.random.default_rng(60 + r)
        for n0 in (0.0, 0.5):
            # estimated covariances, some with directions clipped to 0
            signal = aggregators.empirical_covariance(rng.standard_normal((40, r, d)))
            covs = positive_part(signal - n0 * np.eye(d))
            precisions, combined = aggregators.gaussian_product(covs)
            loop = np.stack([symmetrize(np.linalg.inv(ridge_one(c))) for c in covs])
            np.testing.assert_array_equal(precisions, loop)
            np.testing.assert_array_equal(
                combined, symmetrize(np.linalg.inv(ridge_one(loop.sum(axis=0))))
            )
            p = rng.uniform(0.2, 2.0, size=r)

            def root(w, p):  # gcmc_weights_exact's map, its eigenvalue floor included
                w = np.clip(w, np.finfo(float).tiny, None)
                return 1.0 / np.sqrt(w * (p * w + n0))

            spectral = matops.spectral(matops.ridged(covs), lambda w: root(w, p[:, None]))
            for c, pj, got in zip(covs, p, spectral):
                w, v = np.linalg.eigh(ridge_one(c))
                np.testing.assert_array_equal(got, (v * root(w, pj)) @ v.T)
