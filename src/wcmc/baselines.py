"""Server-side reference schemes: a single SGLD chain and the best single worker."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SgldSchedule:
    """Polynomially decaying step sizes alpha (beta + t)^{-gamma}, t = 1, 2, ..."""

    alpha: float
    beta: float
    gamma: float
    n_iterations: int
    burn_in: int
    minibatch_size: int | None = None

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if not 0.5 < self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in (0.5, 1], got {self.gamma}")
        if not 0 <= self.burn_in < self.n_iterations:
            raise ValueError(
                f"burn_in must lie in [0, {self.n_iterations}), the number of iterations, "
                f"got {self.burn_in}"
            )
        if self.minibatch_size is not None and self.minibatch_size < 1:
            raise ValueError(f"minibatch size n_b must be positive, got {self.minibatch_size}")

    def step_size(self, t: int) -> float:
        return self.alpha * (self.beta + t) ** (-self.gamma)


def sgld_run(
    joint_grad,
    schedule: SgldSchedule,
    theta0: np.ndarray,
    rng: np.random.Generator,
    n_data: int | None = None,
) -> np.ndarray:
    """Stochastic gradient Langevin dynamics from ``theta0``.

    Each iteration moves half a step along the minibatch log-joint gradient
    and injects Gaussian noise whose variance equals the step size; the first
    ``burn_in`` iterates are discarded.  ``joint_grad`` follows the shared
    callback convention (stack of samples plus optional minibatch indices).
    The step sizes and their square roots are computed before the first
    iteration; each iteration draws its minibatch, then its noise.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    d = theta.shape[0]
    nb = schedule.minibatch_size
    if nb is not None and (n_data is None or not 1 <= nb <= n_data):
        raise ValueError("minibatch_size must lie in [1, n_data]")
    minibatch = nb is not None and nb < n_data
    steps = [schedule.step_size(t) for t in range(1, schedule.n_iterations + 1)]
    roots = [math.sqrt(eta) for eta in steps]
    kept = np.empty((schedule.n_iterations - schedule.burn_in, d))
    for t, eta, root in zip(range(1, schedule.n_iterations + 1), steps, roots):
        idx = rng.choice(n_data, size=nb, replace=False) if minibatch else None
        grad = np.asarray(joint_grad(theta[None, :], idx), dtype=float)[0]
        theta = theta + 0.5 * eta * grad + root * rng.standard_normal(d)
        if not np.isfinite(theta).all():
            raise RuntimeError(
                f"SGLD diverged at iteration {t} (step size {eta:.3e}); "
                "reduce alpha or check the gradient scale"
            )
        if t > schedule.burn_in:
            kept[t - schedule.burn_in - 1] = theta
    return kept


def best_single_worker(per_worker_samples, metric) -> tuple[int, np.ndarray]:
    """Pick the worker whose sample set scores lowest under ``metric``.

    ``per_worker_samples`` is a (K, S, d) array or a list of (S, d) arrays;
    ``metric`` maps one sample set to a scalar (lower is better).
    """
    sets = [np.asarray(s, dtype=float) for s in per_worker_samples]
    if not sets:
        raise ValueError("need at least one worker")
    scores = [float(metric(s)) for s in sets]
    best = int(np.argmin(scores))
    return best, sets[best]
