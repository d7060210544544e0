"""Dense matrix primitives shared by every aggregation scheme.

All spectral operations run a symmetric eigendecomposition on the
symmetrized input (A + A^T)/2; the matrices handled here are covariances,
for which symmetric solvers are the stable choice.  Eigenvalues or singular
values below ``EIG_RTOL`` times the largest are treated as zero.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import toeplitz

# Relative eigenvalue / singular-value cutoff for pseudo-spectral operations.
EIG_RTOL = 1e-10

# A symmetric input may deviate from its transpose by at most this relative
# amount before it is rejected.
SYM_RTOL = 1e-12


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (A + A^T)/2."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def _require_square(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def _require_symmetric(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = _require_square(a, name)
    scale = np.abs(a).max()
    if scale > 0 and np.abs(a - a.T).max() > SYM_RTOL * scale:
        raise ValueError(f"{name} is not symmetric to within {SYM_RTOL:g} relative")
    return symmetrize(a)


def _psd_eig(a: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a symmetric PSD matrix, rejecting indefinite input."""
    a = _require_symmetric(a, name)
    w, v = np.linalg.eigh(a)
    top = max(w[-1], 0.0)
    if w[0] < -EIG_RTOL * top - 10 * np.finfo(float).tiny:
        raise ValueError(
            f"{name} is not positive semidefinite: eigenvalues in [{w[0]:.3e}, {w[-1]:.3e}]"
        )
    return np.clip(w, 0.0, None), v


def positive_part(a: np.ndarray) -> np.ndarray:
    """Project a symmetric matrix onto the PSD cone by clamping negative eigenvalues."""
    a = _require_symmetric(a, "positive_part input")
    w, v = np.linalg.eigh(a)
    return (v * np.clip(w, 0.0, None)) @ v.T


def toeplitz_covariance(rho: float, dim: int) -> np.ndarray:
    """Symmetric Toeplitz covariance with entries rho^{|i-j|}."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    return toeplitz(float(rho) ** np.arange(dim))


def psd_factor(cov: np.ndarray) -> np.ndarray:
    """Factor L with L L^T = cov: Cholesky when positive definite, eigen fallback."""
    cov = _require_symmetric(cov, "covariance")
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        w, v = _psd_eig(cov, "covariance")
        return v * np.sqrt(w)


def sample_mvn(
    mean: np.ndarray,
    cov: np.ndarray,
    rng: np.random.Generator,
    size: int | None = None,
) -> np.ndarray:
    """Draw from N(mean, cov) as mean + L z with L a PSD factor of cov.

    Returns shape (d,) for ``size=None`` and (size, d) otherwise.  Draws are
    reproducible for a fixed generator state.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.asarray(cov, dtype=float)
    d = mean.shape[0]
    if cov.shape != (d, d):
        raise ValueError(f"covariance shape {cov.shape} does not match mean length {d}")
    factor = psd_factor(cov)
    shape = (d,) if size is None else (size, d)
    z = rng.standard_normal(shape)
    return mean + z @ factor.T
