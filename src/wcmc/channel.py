"""Simulated uncoded transmission of posterior samples.

One communication block carries one model sample per scheduled worker.  The
model's transmitted vector is x = H^+ E theta (zero-forcing times a
repetition encoder), so the receive side sees y = E theta + n exactly.  The
channel matrix H therefore never enters the simulation: the power budget
needs only its mean inverse gram E[(H H^T)^{-1}], which callers pass in: I
for H = I, and I / (m_t - m_r - 1) for i.i.d. standard Gaussian entries
(H H^T is Wishart), which is I again at m_t = m_r + 2.

Received blocks have shape (S, R, m_r): S blocks, R receive vectors per
block, receiver r carrying K/R consecutive workers.  Orthogonal access (OMA)
gives each worker its own receiver, R = K; non-orthogonal access (NOMA)
superimposes all workers on one, R = 1.  Either way the server sees K signal
terms and R independent noise terms, the K + R summands of the entropy bound
in ``wvcmc``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

POWER_RTOL = 1e-6


def noise_variance(snr_db: float, m_r: int) -> float:
    """N0 at SNR = P / (m_r N0) in dB with a unit power budget P = 1."""
    return 1.0 / (m_r * 10.0 ** (snr_db / 10.0))


def fold_matrix(dim: int, reps: int) -> np.ndarray:
    """(dim, reps * dim) map averaging the ``reps`` repetition blocks of a received vector."""
    return np.tile(np.eye(dim), (1, reps)) / reps


@dataclass(frozen=True)
class RepetitionEncoding:
    """Repetition encoder E = sqrt(scale) (1_reps (x) I_dim), an m_r x dim matrix."""

    dim: int
    reps: int
    scale: float

    def __post_init__(self):
        if self.dim < 1 or self.reps < 1:
            raise ValueError("dim and reps must be positive")
        if self.scale <= 0:
            raise ValueError(f"power scale must be positive, got {self.scale}")

    def matrix(self) -> np.ndarray:
        return np.sqrt(self.scale) * np.tile(np.eye(self.dim), (self.reps, 1))

    def decode_matrix(self) -> np.ndarray:
        """Pseudoinverse of the encoder, (dim, m_r); removes the power scale."""
        return fold_matrix(self.dim, self.reps) / np.sqrt(self.scale)

    def decode(self, ys: np.ndarray) -> np.ndarray:
        return np.asarray(ys, dtype=float) @ self.decode_matrix().T


def repetition_power_map(dim: int, reps: int, mean_inverse_gram: np.ndarray) -> np.ndarray:
    """Quadratic form M with theta^T M theta = tr(G (1 (x) I) theta theta^T (1 (x) I)^T)."""
    rep = np.tile(np.eye(dim), (reps, 1))
    g = np.asarray(mean_inverse_gram, dtype=float)
    if g.shape != (reps * dim, reps * dim):
        raise ValueError(f"mean inverse gram shape {g.shape} does not match m_r={reps * dim}")
    return rep.T @ g @ rep


def power_scale(
    samples: np.ndarray,
    mean_inverse_gram: np.ndarray,
    reps: int,
    p_budget: float,
) -> float:
    """Power scale making the long-term average transmit power equal the budget.

    P_k = P S / sum_s theta_s^T M theta_s with M the repetition-folded mean
    inverse channel gram, so encoding the S samples with sqrt(P_k) spends
    exactly P per block on average.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 1:
        raise ValueError(f"expected (S, d) samples, got shape {samples.shape}")
    m = repetition_power_map(samples.shape[1], reps, mean_inverse_gram)
    denom = float(np.einsum("sd,de,se->", samples, m, samples))
    if denom <= 0.0:
        raise ValueError("cannot scale power: samples are all zero")
    return p_budget * samples.shape[0] / denom


def oma_encodings(p_scales, dim: int, reps: int = 1) -> list[RepetitionEncoding]:
    return [RepetitionEncoding(dim=dim, reps=reps, scale=float(p)) for p in p_scales]


def noma_encoding(p_scales, dim: int, reps: int = 1) -> RepetitionEncoding:
    """Shared encoder scaled by the smallest per-worker power scale."""
    return RepetitionEncoding(dim=dim, reps=reps, scale=float(min(p_scales)))


def transmit(
    thetas: np.ndarray,
    encodings: list[RepetitionEncoding],
    n0: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Received blocks y[s, r] = E_r sum_{k at r} theta[s, k] + noise, shape (S, R, m_r).

    R = len(encodings) receivers share the K workers, K/R consecutive ones
    each: one encoding per worker is OMA, a single shared one is NOMA.  Noise
    entries are i.i.d. N(0, n0), independent across receivers and blocks.
    """
    thetas = np.asarray(thetas, dtype=float)
    s, k, d = thetas.shape
    r = len(encodings)
    if r < 1 or k % r:
        raise ValueError(f"{k} workers cannot share {r} receivers evenly")
    reps = encodings[0].reps
    if any((e.dim, e.reps) != (d, reps) for e in encodings):
        raise ValueError(f"every encoding must map dim={d} with reps={reps}")
    scales = np.sqrt([e.scale for e in encodings])
    ys = scales[:, None] * np.tile(thetas.reshape(s, r, k // r, d).sum(axis=2), reps)
    return ys + np.sqrt(n0) * rng.standard_normal(ys.shape)


def expected_block_powers(
    samples: np.ndarray,
    mean_inverse_gram: np.ndarray,
    encoding: RepetitionEncoding,
) -> np.ndarray:
    """Per-block transmit power averaged over the channel law, shape (S,)."""
    samples = np.asarray(samples, dtype=float)
    m = repetition_power_map(encoding.dim, encoding.reps, mean_inverse_gram)
    return encoding.scale * np.einsum("sd,de,se->s", samples, m, samples)


def verify_power(block_powers: np.ndarray, p_budget: float) -> tuple[bool, float]:
    """Check the average per-block power against the budget.

    Returns (ok, measured_average); ok is true when the average does not
    exceed the budget by more than ``POWER_RTOL`` relative.
    """
    block_powers = np.asarray(block_powers, dtype=float)
    if block_powers.size < 1:
        raise ValueError("need at least one block")
    measured = float(block_powers.mean())
    return measured <= p_budget * (1.0 + POWER_RTOL), measured
