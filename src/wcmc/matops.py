"""Dense matrix primitives shared by every aggregation scheme.

All spectral operations run a symmetric eigendecomposition on the
symmetrized input (A + A^T)/2; the matrices handled here are covariances,
for which symmetric solvers are the stable choice.  Eigenvalues or singular
values below ``EIG_RTOL`` times the largest are treated as zero.
"""

from __future__ import annotations

import numpy as np

# Relative eigenvalue / singular-value cutoff for pseudo-spectral operations.
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
    """Project a symmetric matrix, or each of an (R, n, n) stack, onto the PSD
    cone by clamping negative eigenvalues."""
    a = _require_symmetric(a, "positive_part input", stacked=np.ndim(a) == 3)
    w, v = np.linalg.eigh(a)
    return (v * np.clip(w, 0.0, None)[..., None, :]) @ np.swapaxes(v, -1, -2)


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
