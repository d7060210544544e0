"""One-shot linear aggregation rules at the server.

``gcmc_weights`` is the classical inverse-covariance consensus rule fitted
on decoded samples as if communication were noiseless.  The channel-aware
rules share one estimator of the per-receiver signal covariances (fold the
repetitions, subtract the known noise, project PSD, divide by power) and one
spectral helper, and keep two closed forms: OMA combines K estimated
subposteriors by the product rule, NOMA rescales one common covariance.
Either way the aggregated sample's law matches the product posterior as the
sample count grows.

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


def _spectral(cov: np.ndarray, f) -> np.ndarray:
    """V f(w) V^T from the eigenpairs (w, V) of the ridged covariance.

    Both closed forms need matrix functions of a covariance; taking them
    from one eigendecomposition keeps them exactly symmetric.  Eigenvalues
    are clipped at the smallest normal float, so f never sees a zero.
    """
    w, v = np.linalg.eigh(_ridged(_require_symmetric(cov, "covariance")))
    w = np.clip(w, np.finfo(float).tiny, None)
    return (v * f(w)) @ v.T


def wgcmc_oma_weights_exact(covs, p_scales, n0: float) -> np.ndarray:
    """Channel-aware OMA weights from known subposterior covariances.

    W_k = (sum C^{-1})^{-1} C_k^{-1/2} (P_k C_k + N0 I)^{-1/2}; with these
    weights sum_k W_k (P_k C_k + N0 I) W_k^T equals the product-posterior
    covariance (sum C^{-1})^{-1} identically.
    """
    covs = np.stack([_require_symmetric(c, "covariance") for c in covs])
    _, combined = gaussian_product(covs)
    return np.stack(
        [
            combined @ _spectral(c, lambda w: 1.0 / np.sqrt(w * (p * w + n0)))
            for c, p in zip(covs, np.asarray(p_scales, dtype=float))
        ]
    )


def wgcmc_noma_weight_exact(cov0: np.ndarray, n_workers: int, min_p: float, n0: float) -> np.ndarray:
    """Channel-aware NOMA weight from a known common covariance.

    W = K^{-1/2} C_0^{1/2} (K min_p C_0 + N0 I)^{-1/2} maps the superposed
    signal law onto the homogeneous product posterior N(0, C_0 / K).
    """
    root = _spectral(cov0, lambda w: np.sqrt(w / (n_workers * min_p * w + n0)))
    return root / np.sqrt(n_workers)


def _signal_covariances(ys: np.ndarray, powers, n0: float, reps: int):
    """Per-receiver signal covariance estimates from (S >= 2, R, m_r) blocks.

    Repetition blocks are averaged first, which divides the noise level by
    ``reps``.  Each receiver's folded covariance minus that noise, projected
    onto the PSD cone and divided by its power, estimates the covariance
    the closed-form rule needs.  Returns the R estimates, the fold and the
    folded noise level.
    """
    ys = np.asarray(ys, dtype=float)
    if ys.ndim != 3 or ys.shape[0] < 2 or ys.shape[1] != len(powers):
        raise ValueError(f"expected (S >= 2, R={len(powers)}, m_r) blocks, got shape {ys.shape}")
    fold = fold_matrix(ys.shape[-1] // reps, reps)
    folded = ys @ fold.T
    n0_eff = n0 / reps
    noise = n0_eff * np.eye(fold.shape[0])
    covs = [
        positive_part(empirical_covariance(folded[:, r, :]) - noise) / p
        for r, p in enumerate(powers)
    ]
    return covs, fold, n0_eff


def wgcmc_oma(ys: np.ndarray, p_scales, n0: float, reps: int = 1) -> np.ndarray:
    """Channel-aware OMA weights from noisy (S, K, m_r) blocks: receiver k's
    signal covariance over P_k estimates worker k's subposterior covariance."""
    covs, fold, n0_eff = _signal_covariances(ys, p_scales, n0, reps)
    return np.einsum("kde,em->kdm", wgcmc_oma_weights_exact(covs, p_scales, n0_eff), fold)


def wgcmc_noma(ys: np.ndarray, n_workers: int, min_p: float, n0: float, reps: int = 1) -> np.ndarray:
    """Channel-aware NOMA weight, a (1, d, m_r) stack, from noisy (S, 1, m_r)
    superposed blocks: the signal covariance over K min_p estimates the
    common subposterior covariance."""
    (cov0,), fold, n0_eff = _signal_covariances(ys, [n_workers * min_p], n0, reps)
    return (wgcmc_noma_weight_exact(cov0, n_workers, min_p, n0_eff) @ fold)[None]
