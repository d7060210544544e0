"""Evaluation of produced samples against a reference posterior.

The headline metric is the mean relative error of all d^2 second-moment
test functions theta_i theta_j; predictive quality for probit models is the
mean Bernoulli KL between ensemble predictions under produced and reference
samples.  A reference given as weighted nodes, such as a quadrature's, is
summarised by the same functions with its weights.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

PROB_CLAMP = 1e-12


def _checked_weights(weights, n: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"need one weight per sample, got shape {w.shape} for {n} samples")
    return w


def second_moment(samples: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Uncentered second-moment matrix (1/S) sum_s theta_s theta_s^T, or
    sum_s w_s theta_s theta_s^T under weights that sum to one."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError(f"expected (S, d) samples, got shape {x.shape}")
    if weights is None:
        return x.T @ x / x.shape[0]
    return (x.T * _checked_weights(weights, x.shape[0])) @ x


def second_order_error(samples: np.ndarray, reference_moment: np.ndarray) -> float:
    """Mean relative error of the d^2 second-moment entries (``moment_error``
    of the samples' second moment)."""
    return moment_error(second_moment(samples), reference_moment)


def moment_error(m_hat: np.ndarray, reference_moment: np.ndarray) -> float:
    """Mean relative error of a second-moment matrix's entries against a reference.

    Entries whose reference value is exactly zero cannot be scored (division
    by zero) and are excluded from the mean.
    """
    m_ref = np.asarray(reference_moment, dtype=float)
    if m_ref.shape != m_hat.shape:
        raise ValueError(f"reference shape {m_ref.shape} does not match {m_hat.shape}")
    usable = m_ref != 0.0
    if not usable.any():
        raise ValueError("reference second moment is identically zero")
    return float(np.mean(np.abs(m_hat[usable] - m_ref[usable]) / np.abs(m_ref[usable])))


def ensemble_predict(
    samples: np.ndarray, covariates: np.ndarray, weights: np.ndarray | None = None
) -> np.ndarray:
    """Ensemble probit prediction (1/S) sum_s Phi(theta_s^T u) per covariate
    row u of an (n, d) array, or sum_s w_s Phi(theta_s^T u) under weights that
    sum to one."""
    thetas = np.asarray(samples, dtype=float)
    margins = np.asarray(covariates, dtype=float) @ thetas.T  # (n, S)
    probs = ndtr(margins, out=margins)
    if weights is None:
        return probs.mean(axis=1)
    return probs @ _checked_weights(weights, thetas.shape[0])


def bernoulli_kl(p, q) -> np.ndarray:
    """KL(Bern(p) || Bern(q)) in nats, probabilities clamped away from {0, 1}."""
    p = np.clip(np.asarray(p, dtype=float), PROB_CLAMP, 1.0 - PROB_CLAMP)
    q = np.clip(np.asarray(q, dtype=float), PROB_CLAMP, 1.0 - PROB_CLAMP)
    return p * np.log(p / q) + (1.0 - p) * np.log((1.0 - p) / (1.0 - q))


def kl_ensemble(
    samples: np.ndarray,
    reference_prediction: np.ndarray,
    test_covariates: np.ndarray,
) -> float:
    """Mean Bernoulli KL between the produced ensemble's predictions and the
    reference's test prediction, which a caller scoring several sample sets
    computes once: ``ensemble_predict`` over the reference's draws, or over
    its quadrature nodes with their weights."""
    u = np.atleast_2d(np.asarray(test_covariates, dtype=float))
    if u.shape[0] < 1:
        raise ValueError("need at least one test covariate")
    q = np.asarray(reference_prediction, dtype=float)
    if q.shape != (u.shape[0],):
        raise ValueError(f"need one reference prediction per test row, got shape {q.shape}")
    return float(np.mean(bernoulli_kl(ensemble_predict(samples, u), q)))
