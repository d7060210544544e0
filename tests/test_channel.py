"""Transmission-layer tests: power scaling, zero-forcing power model, noise statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wcmc import channel
from wcmc.harness import config, runner


def monte_carlo_inverse_gram(m_r: int, m_t: int, n: int, rng) -> np.ndarray:
    """Sample mean of (H H^T)^{-1} over n i.i.d. standard Gaussian (m_r, m_t) channels."""
    acc = np.zeros((m_r, m_r))
    for _ in range(n):
        h = rng.standard_normal((m_r, m_t))
        acc += np.linalg.inv(h @ h.T)
    return acc / n


class TestChannelModel:
    """The i.i.d. standard Gaussian channel law: E[(H H^T)^{-1}] =
    I / (m_t - m_r - 1), the identity the runner passes at m_t = m_r + 2."""

    def test_mean_inverse_gram_iid(self):
        # The probit link sends each block over an i.i.d. Gaussian (m_r, m_r + 2)
        # channel; its power scales use the closed form, which is the identity.
        cfg = config.parse_config(
            {
                "scenario": "probit-synthetic",
                "n_workers": 3,
                "t_blocks": 60,
                "snr_db": 5.0,
                "trials": 1,
                "seed": 4,
                "data": {"n": 200, "n_test": 0},
                "reference": {"n_samples": 1000, "burn_in": 10},
                "schemes": {"gcmc": {}},
            }
        )
        link = runner.Link(runner.build_world(cfg, 0), cfg, 0)
        m_r = 2 * cfg.dim
        m_t = m_r + 2
        gram = np.eye(m_r) / (m_t - m_r - 1)
        np.testing.assert_array_equal(gram, np.eye(m_r))
        thetas = link.world.worker_samples[: cfg.blocks["oma"]]
        for k, enc in enumerate(link.encs["oma"]):
            assert enc.scale == pytest.approx(channel.power_scale(thetas[:, k], gram, 2, 1.0))

    def test_mean_inverse_gram_monte_carlo(self):
        # At m_t = m_r + 2 the inverse gram has infinite entry variance, so
        # only averaged functionals converge at this sample size: check the
        # mean diagonal against 1 within 5%.
        mean = monte_carlo_inverse_gram(10, 12, 10_000, np.random.default_rng(3))
        assert abs(np.trace(mean) / 10 - 1.0) < 0.05
        assert np.abs(mean - np.diag(np.diag(mean))).max() < 0.15

    def test_mean_inverse_gram_monte_carlo_stable_shape(self):
        # With more excess dimensions the estimator has finite variance and
        # the full matrix converges to I / (16 - 10 - 1).
        mean = monte_carlo_inverse_gram(10, 16, 10_000, np.random.default_rng(1))
        np.testing.assert_allclose(mean, np.eye(10) / 5, atol=0.01)


class TestNoiseVariance:
    def test_snr_definition(self):
        # SNR = P / (m_r N0) at P = 1
        assert channel.noise_variance(5.0, m_r=5) == pytest.approx(1.0 / (5 * 10**0.5))
        assert channel.noise_variance(float("inf"), m_r=5) == 0.0  # a noiseless link


class TestPowerScale:
    def test_formula_reduction(self):
        # Two repetitions, identity gram, sum of squared norms equal to S
        # collapses the general trace expression to P / 2.
        s, d = 10, 3
        samples = np.zeros((s, d))
        samples[:, 0] = 1.0  # each norm^2 = 1, so the sum is S
        scale = channel.power_scale(samples, np.eye(2 * d), reps=2, p_budget=1.0)
        assert scale == pytest.approx(0.5)

    def test_two_rep_closed_form(self):
        # With identity mean gram and l = 2, the scale is P S / (2 sum ||theta||^2).
        rng = np.random.default_rng(2)
        samples = rng.standard_normal((25, 5))
        scale = channel.power_scale(samples, np.eye(10), reps=2, p_budget=3.0)
        expected = 3.0 * 25 / (2 * np.sum(samples**2))
        assert scale == pytest.approx(expected)

    def test_matches_trace_oracle(self):
        rng = np.random.default_rng(3)
        d, reps = 3, 2
        gram = np.eye(reps * d) * 0.7 + 0.05
        samples = rng.standard_normal((8, d))
        rep = np.tile(np.eye(d), (reps, 1))
        denom = sum(
            np.trace(gram @ rep @ np.outer(th, th) @ rep.T) for th in samples
        )
        expected = 2.0 * 8 / denom
        assert channel.power_scale(samples, gram, reps, 2.0) == pytest.approx(expected)

    def test_all_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            channel.power_scale(np.zeros((4, 2)), np.eye(2), 1, 1.0)


class TestTransmission:
    def test_oma_noiseless(self):
        rng = np.random.default_rng(5)
        thetas = rng.standard_normal((4, 2, 3))
        encs = channel.oma_encodings([1.0, 2.0], dim=3, reps=2)
        ys = channel.transmit(thetas, encs, 0.0, np.random.default_rng(0))
        assert ys.shape == (4, 2, 6)
        for k, enc in enumerate(encs):
            np.testing.assert_allclose(ys[:, k, :], thetas[:, k, :] @ enc.matrix().T, rtol=1e-14)

    def test_oma_noise_variance(self):
        n0 = 0.5
        thetas = np.zeros((50_000, 1, 2))  # 1e5 noise entries
        encs = channel.oma_encodings([1.0], dim=2, reps=1)
        ys = channel.transmit(thetas, encs, n0, np.random.default_rng(6))
        assert np.var(ys) == pytest.approx(n0, rel=0.05)

    def test_oma_noise_independent_across_workers(self):
        thetas = np.zeros((50_000, 2, 1))
        encs = channel.oma_encodings([1.0, 1.0], dim=1, reps=1)
        ys = channel.transmit(thetas, encs, 1.0, np.random.default_rng(7))
        corr = np.corrcoef(ys[:, 0, 0], ys[:, 1, 0])[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(ys.shape[0])

    def test_noma_superposition(self):
        rng = np.random.default_rng(8)
        thetas = rng.standard_normal((6, 3, 2))
        enc = channel.noma_encoding([1.0, 4.0, 2.0], dim=2, reps=1)
        assert enc.scale == 1.0  # min of the worker scales
        ys = channel.transmit(thetas, [enc], 0.0, np.random.default_rng(0))
        assert ys.shape == (6, 1, 2)  # one receiver
        np.testing.assert_allclose(ys[:, 0], thetas.sum(axis=1))

    def test_noma_matches_single_worker_oma_in_law(self):
        thetas = np.zeros((20_000, 1, 2))
        enc = channel.noma_encoding([1.0], dim=2, reps=1)
        ys = channel.transmit(thetas, [enc], 0.25, np.random.default_rng(9))
        assert np.var(ys) == pytest.approx(0.25, rel=0.05)

    def test_one_receiver_is_superpose_then_encode(self):
        # R = 1 is the NOMA link: superpose the K samples, repeat, scale,
        # add noise, bit for bit on the same stream
        thetas = np.random.default_rng(14).standard_normal((9, 3, 2))
        enc = channel.RepetitionEncoding(2, 2, 0.37)
        summed = thetas.sum(axis=1, keepdims=True)
        oracle = np.sqrt(enc.scale) * np.concatenate([summed] * enc.reps, axis=-1)
        oracle = oracle + np.sqrt(0.3) * np.random.default_rng(15).standard_normal(oracle.shape)
        ys = channel.transmit(thetas, [enc], 0.3, np.random.default_rng(15))
        np.testing.assert_array_equal(ys, oracle)

    def test_oma_matches_per_worker_encode_loop(self):
        # K receivers reproduce a per-worker loop over the encoder matrices
        # bit for bit; mixed repetition counts are rejected
        thetas = np.random.default_rng(12).standard_normal((7, 3, 2))
        encs = channel.oma_encodings([0.7, 1.9, 3.1], dim=2, reps=2)
        looped = np.stack([thetas[:, k] @ enc.matrix().T for k, enc in enumerate(encs)], axis=1)
        looped = looped + np.sqrt(0.3) * np.random.default_rng(13).standard_normal(looped.shape)
        ys = channel.transmit(thetas, encs, 0.3, np.random.default_rng(13))
        np.testing.assert_array_equal(ys, looped)
        mixed = [encs[0], channel.RepetitionEncoding(2, 1, 1.0), encs[2]]
        with pytest.raises(ValueError, match="reps"):
            channel.transmit(thetas, mixed, 0.3, np.random.default_rng(13))

    def test_receivers_must_share_workers_evenly(self):
        thetas = np.zeros((4, 3, 2))
        encs = channel.oma_encodings([1.0, 1.0], dim=2)
        with pytest.raises(ValueError, match="evenly"):
            channel.transmit(thetas, encs, 0.1, np.random.default_rng(0))

    def test_fixed_seed_reproducible(self):
        thetas = np.random.default_rng(10).standard_normal((5, 2, 3))
        encs = channel.oma_encodings([1.0, 1.0], dim=3, reps=1)
        a = channel.transmit(thetas, encs, 0.3, np.random.default_rng(11))
        b = channel.transmit(thetas, encs, 0.3, np.random.default_rng(11))
        np.testing.assert_array_equal(a, b)


class TestVerifyPower:
    def test_oma_budget_attained_exactly(self):
        rng = np.random.default_rng(12)
        samples = rng.standard_normal((1000, 4))
        gram = np.eye(8)
        scale = channel.power_scale(samples, gram, reps=2, p_budget=2.0)
        enc = channel.RepetitionEncoding(4, 2, scale)
        powers = channel.expected_block_powers(samples, gram, enc)
        ok, measured = channel.verify_power(powers, 2.0)
        assert ok
        assert measured == pytest.approx(2.0, rel=1e-9)

    def test_noma_under_budget(self):
        rng = np.random.default_rng(13)
        worker_samples = [rng.standard_normal((500, 3)) * (1 + k) for k in range(3)]
        gram = np.eye(3)
        scales = [channel.power_scale(s, gram, 1, 1.0) for s in worker_samples]
        enc = channel.noma_encoding(scales, dim=3, reps=1)
        for s in worker_samples:
            ok, measured = channel.verify_power(
                channel.expected_block_powers(s, gram, enc), 1.0
            )
            assert ok
            assert measured <= 1.0 + 1e-9

    def test_zero_samples_trivially_ok(self):
        enc = channel.RepetitionEncoding(2, 1, 1.0)
        powers = channel.expected_block_powers(np.zeros((5, 2)), np.eye(2), enc)
        ok, measured = channel.verify_power(powers, 1.0)
        assert ok and measured == 0.0

    def test_realized_power_tracks_expectation(self):
        # the model transmits x = H^+ E theta with a fresh H per block; the
        # budget uses only the channel law's mean inverse gram
        rng = np.random.default_rng(14)
        enc = channel.RepetitionEncoding(3, 2, 0.7)
        samples = rng.standard_normal((4000, 3))
        realized = np.array(
            [
                np.sum((np.linalg.pinv(rng.standard_normal((6, 8))) @ enc.matrix() @ th) ** 2)
                for th in samples
            ]
        )
        # E[(H H^T)^{-1}] = I / (8 - 6 - 1) = I for these (6, 8) channels
        expected = channel.expected_block_powers(samples, np.eye(6), enc)
        assert realized.mean() == pytest.approx(expected.mean(), rel=0.1)


class TestRepetitionFold:
    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 6),
        reps=st.integers(1, 4),
        scale=st.floats(1e-3, 1e3),
        data=st.data(),
    )
    def test_fold_inverts_encode(self, dim, reps, scale, data):
        thetas = data.draw(
            hnp.arrays(np.float64, (3, dim), elements=st.floats(-1e3, 1e3, allow_subnormal=False))
        )
        enc = channel.RepetitionEncoding(dim, reps, scale)
        fold = channel.fold_matrix(dim, reps)
        encoded = channel.transmit(thetas[:, None], [enc], 0.0, np.random.default_rng(0))[:, 0]
        np.testing.assert_allclose(encoded @ fold.T, np.sqrt(scale) * thetas, rtol=1e-12, atol=1e-9)
        np.testing.assert_allclose(enc.decode(encoded), thetas, rtol=1e-12, atol=1e-9)
        np.testing.assert_allclose(thetas @ enc.matrix().T, encoded, rtol=1e-14, atol=0)
