"""One-shot linear aggregation rules at the server.

Every closed-form rule here is the consensus product rule (Scott et al.
2016) with the known channel noise subtracted, fitted by one estimator over
the receiver stack: fold the repetitions, subtract the known noise, project
PSD and divide by power to estimate each receiver's subposterior covariance
C_r, then apply ``gcmc_weights_exact``.  Told the noise, that is wgcmc,
whose aggregated sample's law matches the product posterior as the sample
count grows; told N0 = 0 it is gcmc, the classical inverse-covariance rule
on decoded signals, as if communication were noiseless.

Weights are plain (R, d, m_r) stacks, one matrix per receiver, applied to
(S, R, m_r) received blocks: R = K under orthogonal access, where each
worker has its own receiver, and R = 1 under non-orthogonal access, where
the workers superimpose on one.  Receiver r carries m = K/R workers, whose
subposteriors share C_r.  Weight matrices are kept dense; diagonal
approximations for large models are out of scope.
"""

from __future__ import annotations

import numpy as np

from .channel import fold_matrix
from .matops import _require_symmetric, positive_part, symmetrize

# Relative ridge added to an estimated covariance before inversion when it is
# numerically singular (possible after the PSD projection).
RIDGE_RTOL = 1e-8


def apply_weights(weights: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Aggregate received blocks into global samples, one per block:
    theta[s] = sum_r W_r y[s, r] for (R, d, m_r) weights and (S, R, m_r) blocks.

    The sum over receivers is one matmul: the (S, R m_r) flattened blocks
    times the (R m_r, d) stack of the W_r^T.
    """
    w = np.asarray(weights, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if w.ndim != 3:
        raise ValueError(f"weights must be an (R, d, m_r) stack, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    r, d, m_r = w.shape
    if ys.ndim != 3 or ys.shape[1:] != (r, m_r):
        raise ValueError(f"expected (S, R={r}, m_r={m_r}) blocks, got {ys.shape}")
    return ys.reshape(ys.shape[0], r * m_r) @ np.swapaxes(w, 1, 2).reshape(r * m_r, d)


def empirical_covariance(x: np.ndarray) -> np.ndarray:
    """Unbiased mean-centered sample covariances of (S, R, m) blocks, one per
    receiver, shape (R, m, m)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[0] < 2:
        raise ValueError(f"need (S >= 2, R, m) blocks, got shape {x.shape}")
    centered = np.swapaxes(x - x.mean(axis=0), 0, 1)
    return symmetrize(np.swapaxes(centered, 1, 2) @ centered / (x.shape[0] - 1))


def _ridged(a: np.ndarray) -> np.ndarray:
    """Add the relative ridge to each matrix of a stack (or to one matrix)
    whose smallest eigenvalue sits at or below it."""
    a = symmetrize(a)
    lam = RIDGE_RTOL * np.trace(a, axis1=-2, axis2=-1) / a.shape[-1]
    low = (np.linalg.eigvalsh(a)[..., 0] <= lam) | (lam <= 0.0)
    floor = np.where(lam > 0, lam, RIDGE_RTOL)[..., None, None]
    return np.where(low[..., None, None], a + floor * np.eye(a.shape[-1]), a)


def gaussian_product(covs) -> tuple[np.ndarray, np.ndarray]:
    """Product-of-Gaussians rule for zero-mean inputs with covariances C_k.

    Returns the precisions C_k^{-1}, shape (K, d, d), and the product's
    covariance (sum_k C_k^{-1})^{-1}.  A numerically singular matrix (an
    estimated covariance after the PSD projection can be one) gets the
    relative ridge ``RIDGE_RTOL`` before it is inverted.
    """
    precisions = symmetrize(np.linalg.inv(_ridged(np.asarray(covs, dtype=float))))
    combined = symmetrize(np.linalg.inv(_ridged(precisions.sum(axis=0))))
    return precisions, combined


def _spectral(covs: np.ndarray, f) -> np.ndarray:
    """V f(w) V^T from the eigenpairs (w, V) of each ridged covariance of an
    (R, d, d) stack; f maps the (R, d) eigenvalues.

    Taking matrix functions from one eigendecomposition keeps them exactly
    symmetric.  Eigenvalues are clipped at the smallest normal float, so f
    never sees a zero.
    """
    w, v = np.linalg.eigh(_ridged(covs))
    w = np.clip(w, np.finfo(float).tiny, None)
    return (v * f(w)[..., None, :]) @ np.swapaxes(v, -1, -2)


def gcmc_weights_exact(covs, p_scales, n0: float, n_workers: int) -> np.ndarray:
    """Consensus weights from known subposterior covariances C_r, one per
    receiver, each receiver carrying m = K/R workers at power scale P_r.

    W_r = (sum_r C_r^{-1})^{-1} (m C_r (m P_r C_r + N0 I))^{-1/2}; with these
    weights sum_r W_r (m P_r C_r + N0 I) W_r^T equals the product-posterior
    covariance (m sum_r C_r^{-1})^{-1} identically.  At R = 1 this is
    K^{-1/2} C_0^{1/2} (K P C_0 + N0 I)^{-1/2}.
    """
    covs = _require_symmetric(covs, "covariances", stacked=True)
    r = len(covs)
    p = np.asarray(p_scales, dtype=float)
    if p.shape != (r,):
        raise ValueError(f"need one power scale per receiver, got shape {p.shape} for R={r}")
    if n_workers < r or n_workers % r:
        raise ValueError(f"{n_workers} workers cannot share {r} receivers evenly")
    m, p = n_workers // r, p[:, None]
    _, combined = gaussian_product(covs)
    return combined @ _spectral(covs, lambda w: 1.0 / np.sqrt(m * w * (m * p * w + n0)))


def wgcmc_oma_weights_exact(covs, p_scales, n0: float) -> np.ndarray:
    """``gcmc_weights_exact`` with one worker per receiver."""
    return gcmc_weights_exact(covs, p_scales, n0, len(covs))


def wgcmc_noma_weight_exact(cov0: np.ndarray, n_workers: int, min_p: float, n0: float) -> np.ndarray:
    """``gcmc_weights_exact``'s one (d, d) weight for K workers on one receiver."""
    return gcmc_weights_exact([cov0], [min_p], n0, n_workers)[0]


def gcmc_weights(ys: np.ndarray, p_scales, n_workers: int, n0: float, reps: int = 1) -> np.ndarray:
    """Consensus weights, an (R, d, m_r) stack, fitted on (S >= 2, R, m_r)
    received blocks from K = ``n_workers`` workers over R receivers.

    Repetition blocks are averaged first, which divides the noise level by
    ``reps``.  Each receiver's folded covariance minus that noise, projected
    onto the PSD cone and divided by m P_r, estimates C_r;
    ``gcmc_weights_exact`` composed with the fold is the result.  With the
    link's N0 this is wgcmc; with ``n0 = 0`` it is gcmc, the product rule on
    the decoded signals composed with the decoders.
    """
    ys = np.asarray(ys, dtype=float)
    p = np.asarray(p_scales, dtype=float)
    if ys.ndim != 3 or ys.shape[0] < 2 or ys.shape[1] != len(p):
        raise ValueError(f"expected (S >= 2, R={len(p)}, m_r) blocks, got shape {ys.shape}")
    fold = fold_matrix(ys.shape[-1] // reps, reps)
    n0_eff = n0 / reps
    signal = empirical_covariance(ys @ fold.T) - n0_eff * np.eye(fold.shape[0])
    covs = positive_part(signal) / (n_workers // len(p) * p)[:, None, None]
    return np.einsum("rde,em->rdm", gcmc_weights_exact(covs, p, n0_eff, n_workers), fold)
