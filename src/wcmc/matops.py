"""Dense symmetric-matrix primitives shared by the aggregation rules and samplers.

The matrices handled here are covariances and precisions, checked symmetric or
symmetrized to (A + A^T)/2 before an eigendecomposition, inverse or Cholesky
factorization.  Every SPD inverse is ``spd_inverse``, which first adds the one
relative ridge ``RIDGE_RTOL`` to a numerically singular input (``ridged``), and
every matrix function V f(w) V^T is ``spectral``.  ``EIG_RTOL`` is the relative
eigenvalue below which ``posteriors.GaussianSubposterior`` calls a covariance singular.
"""

from __future__ import annotations

import numpy as np

# Relative eigenvalue cutoff below which a covariance is not positive definite.
EIG_RTOL = 1e-10

# A symmetric input may deviate from its transpose by at most this relative
# amount before it is rejected.
SYM_RTOL = 1e-12

# Relative ridge that ``ridged`` adds to a numerically singular matrix.
RIDGE_RTOL = 1e-8


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (A + A^T)/2, for a matrix or each matrix of a stack."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _require_symmetric(a: np.ndarray, name: str = "matrix", stacked: bool = False) -> np.ndarray:
    """The symmetrized input, checked square and symmetric (one matrix at a
    time when ``stacked``)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 + stacked or a.shape[-1] != a.shape[-2]:
        what = "a stack of square matrices" if stacked else "a square matrix"
        raise ValueError(f"{name} must be {what}, got shape {a.shape}")
    scale = np.abs(a).max(axis=(-2, -1))
    asymmetry = np.abs(a - np.swapaxes(a, -1, -2)).max(axis=(-2, -1))
    if np.any((scale > 0) & (asymmetry > SYM_RTOL * scale)):
        raise ValueError(f"{name} is not symmetric to within {SYM_RTOL:g} relative")
    return symmetrize(a)


def ridged(a: np.ndarray) -> np.ndarray:
    """The symmetrized matrix, or each of a stack, plus RIDGE_RTOL times its
    mean eigenvalue when its smallest eigenvalue sits at or below that."""
    a = symmetrize(a)
    lam = RIDGE_RTOL * np.trace(a, axis1=-2, axis2=-1) / a.shape[-1]
    low = (np.linalg.eigvalsh(a)[..., 0] <= lam) | (lam <= 0.0)
    floor = np.where(lam > 0, lam, RIDGE_RTOL)[..., None, None]
    return np.where(low[..., None, None], a + floor * np.eye(a.shape[-1]), a)


def spd_inverse(a: np.ndarray) -> np.ndarray:
    """The symmetrized inverse of each ``ridged`` SPD matrix of a stack, or of one."""
    return symmetrize(np.linalg.inv(ridged(a)))


def spectral(a: np.ndarray, f) -> np.ndarray:
    """V f(w) V^T, symmetric up to rounding, from the eigenpairs (w, V) of a
    symmetric matrix or of each of a stack; f maps the eigenvalues."""
    w, v = np.linalg.eigh(a)
    return (v * f(w)[..., None, :]) @ np.swapaxes(v, -1, -2)


def positive_part(a: np.ndarray) -> np.ndarray:
    """Project a symmetric matrix, or each of an (R, n, n) stack, onto the PSD
    cone by clamping negative eigenvalues."""
    a = _require_symmetric(a, "positive_part input", stacked=np.ndim(a) == 3)
    return spectral(a, lambda w: np.clip(w, 0.0, None))


def psd_factor(cov: np.ndarray) -> np.ndarray:
    """The Cholesky factor L, L L^T = cov, of a symmetric positive definite
    covariance; ``np.linalg.LinAlgError`` when it is not positive definite."""
    return np.linalg.cholesky(_require_symmetric(cov, "covariance"))
