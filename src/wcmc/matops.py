"""Dense matrix primitives shared by every aggregation scheme.

The matrices handled here are covariances: each is checked symmetric and
symmetrized to (A + A^T)/2 before a symmetric eigendecomposition or a
Cholesky factorization, the stable choices for them.  ``EIG_RTOL`` is the
relative eigenvalue below which ``posteriors.GaussianSubposterior`` calls a
covariance singular.
"""

from __future__ import annotations

import numpy as np

# Relative eigenvalue cutoff below which a covariance is not positive definite.
EIG_RTOL = 1e-10

# A symmetric input may deviate from its transpose by at most this relative
# amount before it is rejected.
SYM_RTOL = 1e-12


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (A + A^T)/2, for a matrix or each matrix of a stack."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _require_square(a: np.ndarray, name: str, stacked: bool = False) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 + stacked or a.shape[-1] != a.shape[-2]:
        what = "a stack of square matrices" if stacked else "a square matrix"
        raise ValueError(f"{name} must be {what}, got shape {a.shape}")
    return a


def _require_symmetric(a: np.ndarray, name: str = "matrix", stacked: bool = False) -> np.ndarray:
    """The symmetrized input, checked one matrix at a time when ``stacked``."""
    a = _require_square(a, name, stacked)
    scale = np.abs(a).max(axis=(-2, -1))
    asymmetry = np.abs(a - np.swapaxes(a, -1, -2)).max(axis=(-2, -1))
    if np.any((scale > 0) & (asymmetry > SYM_RTOL * scale)):
        raise ValueError(f"{name} is not symmetric to within {SYM_RTOL:g} relative")
    return symmetrize(a)


def positive_part(a: np.ndarray) -> np.ndarray:
    """Project a symmetric matrix, or each of an (R, n, n) stack, onto the PSD
    cone by clamping negative eigenvalues."""
    a = _require_symmetric(a, "positive_part input", stacked=np.ndim(a) == 3)
    w, v = np.linalg.eigh(a)
    return (v * np.clip(w, 0.0, None)[..., None, :]) @ np.swapaxes(v, -1, -2)


def psd_factor(cov: np.ndarray) -> np.ndarray:
    """The Cholesky factor L, L L^T = cov, of a symmetric positive definite
    covariance; ``np.linalg.LinAlgError`` when it is not positive definite."""
    return np.linalg.cholesky(_require_symmetric(cov, "covariance"))
