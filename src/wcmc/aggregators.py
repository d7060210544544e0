"""One-shot linear aggregation rules at the server.

``gcmc_weights`` is the classical inverse-covariance consensus rule fitted
on decoded samples as if communication were noiseless.  The channel-aware
rules subtract the known noise covariance from the received-signal
covariance and rescale so that the aggregated sample's law matches the
product posterior as the sample count grows.

Weights are plain (R, d, m_r) stacks, one matrix per receiver, applied to
(S, R, m_r) received blocks: R = K under orthogonal access, where each
worker has its own receiver, and R = 1 under non-orthogonal access, where
the workers superimpose on one.  Weight matrices are kept dense; diagonal
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
    theta[s] = sum_r W_r y[s, r] for (R, d, m_r) weights and (S, R, m_r) blocks."""
    w = np.asarray(weights, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if w.ndim != 3:
        raise ValueError(f"weights must be an (R, d, m_r) stack, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if ys.ndim != 3 or ys.shape[1:] != (w.shape[0], w.shape[2]):
        raise ValueError(f"expected (S, R={w.shape[0]}, m_r={w.shape[2]}) blocks, got {ys.shape}")
    return np.einsum("rdm,srm->sd", w, ys)


def empirical_covariance(x: np.ndarray) -> np.ndarray:
    """Unbiased mean-centered sample covariance of (S, m) rows."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError(f"need at least two rows, got shape {x.shape}")
    centered = x - x.mean(axis=0)
    return symmetrize(centered.T @ centered / (x.shape[0] - 1))


def _ridged(a: np.ndarray) -> np.ndarray:
    """Add the relative ridge when the smallest eigenvalue sits at or below it."""
    a = symmetrize(a)
    lam = RIDGE_RTOL * np.trace(a) / a.shape[0]
    w = np.linalg.eigvalsh(a)
    if w[0] <= lam or lam <= 0.0:
        floor = lam if lam > 0 else RIDGE_RTOL
        return a + floor * np.eye(a.shape[0])
    return a


def gaussian_product(covs) -> tuple[np.ndarray, np.ndarray]:
    """Product-of-Gaussians rule for zero-mean inputs with covariances C_k.

    Returns the precisions C_k^{-1}, shape (K, d, d), and the product's
    covariance (sum_k C_k^{-1})^{-1}.  A numerically singular matrix (an
    estimated covariance after the PSD projection can be one) gets the
    relative ridge ``RIDGE_RTOL`` before it is inverted.
    """
    precisions = np.stack([symmetrize(np.linalg.inv(_ridged(c))) for c in covs])
    combined = symmetrize(np.linalg.inv(_ridged(precisions.sum(axis=0))))
    return precisions, combined


def gcmc_weights(decoded: np.ndarray) -> np.ndarray:
    """Inverse-covariance consensus weights fitted on decoded samples.

    ``decoded`` has shape (S, K, d) with S >= 2.  The returned square
    (K, d, d) weights satisfy sum_k W_k = I and sum to the precision-weighted
    mean map.
    """
    decoded = np.asarray(decoded, dtype=float)
    if decoded.ndim != 3 or decoded.shape[0] < 2:
        raise ValueError(f"expected (S >= 2, K, d) samples, got shape {decoded.shape}")
    covs = np.stack([empirical_covariance(decoded[:, k, :]) for k in range(decoded.shape[1])])
    precisions, combined = gaussian_product(covs)
    return np.einsum("de,kef->kdf", combined, precisions)


def _joint_inv_sqrt(cov: np.ndarray, p_scale: float, n0: float) -> np.ndarray:
    """C^{-1/2} (p C + n0 I)^{-1/2} from a single eigendecomposition.

    Both factors are functions of C, so they share eigenvectors; computing
    them jointly keeps the product exactly symmetric.  Zero eigenvalues are
    ridged away first (the PSD projection can produce them).
    """
    c = _ridged(_require_symmetric(cov, "covariance estimate"))
    w, v = np.linalg.eigh(c)
    w = np.clip(w, np.finfo(float).tiny, None)
    diag = 1.0 / np.sqrt(w * (p_scale * w + n0))
    return (v * diag) @ v.T


def wgcmc_oma_weights_exact(covs, p_scales, n0: float) -> np.ndarray:
    """Channel-aware OMA weights from known subposterior covariances.

    W_k = (sum C^{-1})^{-1} C_k^{-1/2} (P_k C_k + N0 I)^{-1/2}; with these
    weights sum_k W_k (P_k C_k + N0 I) W_k^T equals the product-posterior
    covariance (sum C^{-1})^{-1} identically.
    """
    covs = np.stack([_require_symmetric(c, "covariance") for c in covs])
    p_scales = np.asarray(p_scales, dtype=float)
    _, combined = gaussian_product(covs)
    return np.stack(
        [combined @ _joint_inv_sqrt(c, p, n0) for c, p in zip(covs, p_scales)]
    )


def wgcmc_noma_weight_exact(cov0: np.ndarray, n_workers: int, min_p: float, n0: float) -> np.ndarray:
    """Channel-aware NOMA weight from a known common covariance.

    W = K^{-1/2} C_0^{1/2} (K min_p C_0 + N0 I)^{-1/2} maps the superposed
    signal law onto the homogeneous product posterior N(0, C_0 / K).
    """
    c = _ridged(_require_symmetric(cov0, "covariance"))
    w, v = np.linalg.eigh(c)
    w = np.clip(w, 0.0, None)
    diag = np.sqrt(w / (n_workers * min_p * w + n0)) if n0 > 0 else np.where(
        w > 0, np.sqrt(w / (n_workers * min_p * w)), 0.0
    )
    return ((v * diag) @ v.T) / np.sqrt(n_workers)


def wgcmc_oma(ys: np.ndarray, p_scales, n0: float, reps: int = 1) -> np.ndarray:
    """Channel-aware OMA weights estimated from noisy received blocks.

    ``ys`` has shape (S, K, m_r) with S >= 2.  Repetition blocks are averaged
    first, which divides the effective noise level by ``reps``; the
    covariance of each worker's folded signal minus that noise, projected
    onto the PSD cone and divided by P_k, estimates the subposterior
    covariance that the closed-form rule needs.
    """
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 3 or ys.shape[0] < 2:
        raise ValueError(f"expected (S >= 2, K, m_r) blocks, got shape {ys.shape}")
    p_scales = np.asarray(p_scales, dtype=float)
    if p_scales.shape != (ys.shape[1],):
        raise ValueError("need one power scale per worker")
    fold = fold_matrix(ys.shape[-1] // reps, reps)
    folded = ys @ fold.T
    n0_eff = n0 / reps
    d = fold.shape[0]
    cov_hats = [
        positive_part(empirical_covariance(folded[:, k, :]) - n0_eff * np.eye(d)) / p_scales[k]
        for k in range(ys.shape[1])
    ]
    reduced = wgcmc_oma_weights_exact(cov_hats, p_scales, n0_eff)
    return np.einsum("kde,em->kdm", reduced, fold)


def wgcmc_noma(ys: np.ndarray, n_workers: int, min_p: float, n0: float, reps: int = 1) -> np.ndarray:
    """Channel-aware NOMA weight estimated from noisy superposed blocks.

    ``ys`` has shape (S, 1, m_r) with S >= 2, and the result is a (1, d, m_r)
    stack.  The folded-signal covariance minus the effective noise, projected
    PSD and divided by K min_p, estimates the common subposterior covariance.
    """
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 3 or ys.shape[0] < 2 or ys.shape[1] != 1:
        raise ValueError(f"expected (S >= 2, 1, m_r) blocks, got shape {ys.shape}")
    fold = fold_matrix(ys.shape[-1] // reps, reps)
    folded = ys[:, 0, :] @ fold.T
    n0_eff = n0 / reps
    d = fold.shape[0]
    cov0_hat = positive_part(empirical_covariance(folded) - n0_eff * np.eye(d)) / (
        n_workers * min_p
    )
    reduced = wgcmc_noma_weight_exact(cov0_hat, n_workers, min_p, n0_eff)
    return (reduced @ fold)[None]
