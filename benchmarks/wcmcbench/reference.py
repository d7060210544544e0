"""Ground truth computed without the library, for checking its outputs.

The Gaussian toy target has a closed form.  The probit posterior is
estimated by self-normalised importance sampling from a Student-t proposal
centred on the Laplace approximation, so it shares no code or random
stream with the library's Gibbs reference chain.
"""

from __future__ import annotations

import numpy as np
from scipy.special import log_ndtr

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)

# Draws per importance-sampling chunk: small enough that a chunk's
# (draws x data rows) temporaries stay a few MB.
_CHUNK = 64


def toeplitz(rho: float, dim: int) -> np.ndarray:
    """Covariance with entries rho^|i-j|."""
    lags = np.abs(np.subtract.outer(np.arange(dim), np.arange(dim)))
    return float(rho) ** lags


def toy_product_covariance(n_workers: int, dim: int) -> np.ndarray:
    """(sum_k T_k^{-1})^{-1} for the worker family rho_k = (k - 1) / K."""
    precision = sum(
        np.linalg.inv(toeplitz((k - 1) / n_workers, dim)) for k in range(1, n_workers + 1)
    )
    return np.linalg.inv(precision)


def relative_error(moment: np.ndarray, reference: np.ndarray) -> float:
    """Mean relative error over the entries of ``reference`` that are not zero."""
    usable = reference != 0.0
    return float(np.mean(np.abs(moment[usable] - reference[usable]) / np.abs(reference[usable])))


def _log_posterior(thetas, u, signs, prior_variance):
    """Unnormalised probit log posterior for a stack of coefficients (B, d)."""
    loglik = log_ndtr((thetas @ u.T) * signs).sum(axis=1)
    return loglik - 0.5 * np.sum(thetas**2, axis=1) / prior_variance


def laplace(u, labels, prior_variance, max_iter=100):
    """Posterior mode and inverse negative Hessian there, by damped Newton steps."""
    u = np.asarray(u, dtype=float)
    signs = 2.0 * np.asarray(labels, dtype=float) - 1.0
    d = u.shape[1]
    theta = np.zeros(d)
    value = _log_posterior(theta[None], u, signs, prior_variance)[0]
    for _ in range(max_iter):
        z = signs * (u @ theta)
        ratio = np.exp(-0.5 * z * z - _LOG_SQRT_2PI - log_ndtr(z))  # phi(z) / Phi(z)
        grad = u.T @ (signs * ratio) - theta / prior_variance
        curvature = ratio * (z + ratio)
        neg_hess = (u * curvature[:, None]).T @ u + np.eye(d) / prior_variance
        step = np.linalg.solve(neg_hess, grad)
        scale = 1.0
        while True:
            cand = theta + scale * step
            cand_value = _log_posterior(cand[None], u, signs, prior_variance)[0]
            if cand_value >= value or scale < 1e-8:
                break
            scale *= 0.5
        theta, value = cand, cand_value
        if np.abs(scale * step).max() < 1e-10:
            break
    z = signs * (u @ theta)
    ratio = np.exp(-0.5 * z * z - _LOG_SQRT_2PI - log_ndtr(z))
    neg_hess = (u * (ratio * (z + ratio))[:, None]).T @ u + np.eye(d) / prior_variance
    cov = np.linalg.inv(neg_hess)
    return theta, 0.5 * (cov + cov.T)


def probit_second_moment(u, labels, prior_variance, n_draws, rng, dof=7.0):
    """Importance-sampling estimate of E[theta theta^T] under the probit posterior.

    Returns (second moment, effective sample size).  The proposal is a
    multivariate t with ``dof`` degrees of freedom at the Laplace mode and
    covariance, whose tails are heavier than the posterior's.
    """
    u = np.asarray(u, dtype=float)
    signs = 2.0 * np.asarray(labels, dtype=float) - 1.0
    mode, cov = laplace(u, labels, prior_variance)
    d = mode.shape[0]
    chol = np.linalg.cholesky(cov)
    # antithetic pairs cancel the odd terms of theta - mode, which carry
    # most of the Monte Carlo noise in the mixed moments mode_i * delta_j
    half = (n_draws + 1) // 2
    z = rng.standard_normal((half, d))
    z = np.concatenate([z, -z])[:n_draws]
    mix = np.sqrt(rng.chisquare(dof, size=half) / dof)
    mix = np.concatenate([mix, mix])[:n_draws]
    thetas = mode + (z @ chol.T) / mix[:, None]
    # log proposal density up to a constant: the Mahalanobis norm of theta - mode is |z| / mix
    maha = np.sum(z * z, axis=1) / mix**2
    log_q = -0.5 * (dof + d) * np.log1p(maha / dof)
    log_p = np.concatenate(
        [
            _log_posterior(thetas[i : i + _CHUNK], u, signs, prior_variance)
            for i in range(0, n_draws, _CHUNK)
        ]
    )
    log_w = log_p - log_q
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    moment = (thetas * w[:, None]).T @ thetas
    return 0.5 * (moment + moment.T), float(1.0 / np.sum(w * w))
