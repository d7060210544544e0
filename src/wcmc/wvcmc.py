"""Variational optimization of the aggregation weights.

The target is the free energy of the aggregated-sample distribution, i.e.
minus the average log joint of the produced samples minus their entropy.
The entropy itself is intractable, so it is replaced by an entropy-power
lower bound; minimizing the resulting upper bound with plain SGD gives the
weight update loop in ``run_wvcmc``.

Both access modes share one layout: R receivers, weights W_r of shape
(d, m_r), encoders E_r of shape (m_r, d), received blocks of shape
(S, R, m_r).  Under OMA R = K and receiver r carries worker r; under NOMA
R = 1 and the one receiver carries all K workers.  The aggregate
sum_r W_r (E_r sum_{k at r} theta_k + n_r) is then a sum of n = K + R
independent terms, K signal terms W_r E_r theta_k and R noise terms
W_r n_r, and the entropy-power inequality bounds its entropy by
(d/2) log n plus the mean of the n terms' entropies.  The subposterior
entropies H[p_k] enter that mean as weight-independent constants.

The bound and its gradient are written once over the receiver stacks:
numpy's batched linalg runs the same LAPACK routine on each receiver's
matrix as one call per receiver would, with no Python loop over receivers.
The gradient's entropy term is the derivative of the two log-determinants
the bound reads, one batched solve each, and the check that a step keeps
every W_r E_r and W_r clear of singularity reads singular values only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregators import apply_weights

# A step is rejected (and retried at half length, up to this many times) when
# it makes any W_r E_r or W_r non-finite or drives it within this relative
# margin of singularity.
_MAX_HALVINGS = 5
_SINGULAR_RTOL = 1e-12


def _stack_encodings(encodings) -> np.ndarray:
    mats = np.asarray(encodings, dtype=float)
    if mats.ndim != 3:
        raise ValueError(f"expected a stack of (m_r, d) encoders, got shape {mats.shape}")
    return mats


def entropy_lb(weights, encodings, n0: float, n_workers: int, subposterior_entropies) -> float:
    """Entropy lower bound for the aggregate of K workers over R receivers.

    With n = K + R summands: (d/2) [log n + (R/n) log(2 pi e N0)] plus
    (1/n) times sum_r [(K/R) log|det W_r E_r| + (1/2) log det W_r W_r^T]
    plus (1/n) sum_k H[p_k].  Requires every W_r E_r to be square and
    nonsingular.
    """
    w = np.asarray(weights, dtype=float)
    e = _stack_encodings(encodings)
    ents = np.asarray(subposterior_entropies, dtype=float)
    r, d, _ = w.shape
    if ents.shape != (n_workers,):
        raise ValueError("need one subposterior entropy per worker")
    n = n_workers + r
    total = 0.5 * d * (np.log(n) + (r / n) * np.log(2.0 * np.pi * np.e * n0))
    # the R products W_r E_r, then the R Gram matrices W_r W_r^T
    sign, logdet = np.linalg.slogdet(np.concatenate([w @ e, w @ np.swapaxes(w, 1, 2)]))
    if np.any(sign == 0) or not np.all(np.isfinite(logdet)):
        raise np.linalg.LinAlgError("some W_r E_r or W_r W_r^T is singular")
    acc = ents.sum() + (n_workers / r) * logdet[:r].sum() + 0.5 * logdet[r:].sum()
    return float(total + acc / n)


def free_energy(
    weights, ys, encodings, n0, n_workers, subposterior_entropies, log_joint, idx=None
):
    """Upper bound on the free energy: -(1/S) sum_s log p(theta_s, Z) - entropy bound."""
    data_term = -float(np.mean(log_joint(apply_weights(weights, ys), idx)))
    return data_term - entropy_lb(weights, encodings, n0, n_workers, subposterior_entropies)


def grad(weights, ys, encodings, n_workers, joint_grad, idx=None) -> np.ndarray:
    """Stochastic free-energy gradient with respect to each weight W_r.

    The data term is -(1/S) sum_s g(theta_s) y_{r,s}^T with g the log-joint
    gradient at theta_s = sum_r W_r y_{r,s}; the entropy-bound term is
    -(1/n) [(K/R) (W_r E_r)^{-T} E_r^T + (W_r W_r^T)^{-1} W_r] with n = K + R,
    the derivative of (K/R) log|det W_r E_r| + (1/2) log det W_r W_r^T.  For
    a full-row-rank W_r the second summand is (W_r^+)^T.
    """
    w = np.asarray(weights, dtype=float)
    e = _stack_encodings(encodings)
    ys = np.asarray(ys, dtype=float)
    s, r = ys.shape[0], w.shape[0]
    g = np.asarray(joint_grad(apply_weights(w, ys), idx), dtype=float)
    data = -(g.T @ np.moveaxis(ys, 1, 0)) / s
    ent = np.linalg.solve(np.swapaxes(w @ e, 1, 2), (n_workers / r) * np.swapaxes(e, 1, 2))
    ent += np.linalg.solve(w @ np.swapaxes(w, 1, 2), w)
    return data - ent / (n_workers + r)


# Per-mode adapters.  OMA: (K, d, m_r) weights, K encoders, (S, K, m_r)
# blocks.  NOMA: one (d, m_r) weight, one encoder, (S, m_r) blocks.


def entropy_lb_oma(weights, encodings, n0, subposterior_entropies) -> float:
    return entropy_lb(weights, encodings, n0, len(weights), subposterior_entropies)


def entropy_lb_noma(weight, encoding, n0, n_workers, subposterior_entropies) -> float:
    return entropy_lb(np.asarray(weight)[None], [encoding], n0, n_workers, subposterior_entropies)


def free_energy_oma(weights, ys, encodings, n0, subposterior_entropies, log_joint, idx=None):
    return free_energy(
        weights, ys, encodings, n0, len(weights), subposterior_entropies, log_joint, idx
    )


def free_energy_noma(
    weight, ys, encoding, n0, n_workers, subposterior_entropies, log_joint, idx=None
):
    return free_energy(
        np.asarray(weight)[None], np.asarray(ys)[:, None], [encoding], n0, n_workers,
        subposterior_entropies, log_joint, idx,
    )


def grad_oma(weights, ys, encodings, joint_grad, idx=None) -> np.ndarray:
    return grad(weights, ys, encodings, len(weights), joint_grad, idx)


def grad_noma(weight, ys, encoding, n_workers, joint_grad, idx=None) -> np.ndarray:
    return grad(
        np.asarray(weight)[None], np.asarray(ys)[:, None], [encoding], n_workers, joint_grad, idx
    )[0]


def _clear(mats: np.ndarray) -> bool:
    """Whether every matrix of the stack is finite and clear of singularity."""
    if not np.all(np.isfinite(mats)):
        return False
    sv = np.linalg.svd(mats, compute_uv=False)  # largest first
    return not np.any(sv[:, -1] <= _SINGULAR_RTOL * sv[:, 0])


def _regular(w: np.ndarray, e: np.ndarray) -> bool:
    """Whether every W_r E_r of the (R, d, m_r) weight and (R, m_r, d)
    encoder stacks and every W_r is finite and clear of singularity."""
    return _clear(w @ e) and _clear(w)


@dataclass
class WvcmcResult:
    weights: np.ndarray  # (R, d, m_r)
    samples: np.ndarray
    halvings: int  # rejected step sizes, summed over the iterations


def run_wvcmc(
    ys: np.ndarray,
    init: np.ndarray,
    encodings,
    n_workers: int,
    joint_grad,
    step_size: float,
    n_iterations: int,
    rng: np.random.Generator,
    n_data: int | None = None,
    minibatch_size: int | None = None,
) -> WvcmcResult:
    """SGD over the free-energy upper bound from the (R, d, m_r) ``init``.

    Each iteration draws a fresh minibatch (uniform, without replacement;
    ``minibatch_size=None`` means full batch), takes one gradient step, and
    rejects the step with halved length (up to 5 halvings) if it lands on a
    singular weight configuration, where the log-det barrier is infinite.
    When every halving is rejected the run raises ``RuntimeError``; an
    ``init`` that fails the same check raises ``ValueError`` before the
    first gradient, so every gradient is taken at a checked point.  The
    bound's value is never evaluated: only its gradient moves the weights.
    Returns the final weights, their aggregation of all S blocks and the
    number of rejected step sizes.
    """
    enc = _stack_encodings(encodings)
    if minibatch_size is not None and (n_data is None or not 1 <= minibatch_size <= n_data):
        raise ValueError("minibatch_size must lie in [1, n_data]")

    weights = np.asarray(init, dtype=float)
    if not _regular(weights, enc):
        raise ValueError("init leaves some W_r E_r or W_r singular or non-finite")
    halvings = 0
    for t in range(n_iterations):
        idx = None
        if minibatch_size is not None and minibatch_size < n_data:
            idx = rng.choice(n_data, size=minibatch_size, replace=False)
        direction = grad(weights, ys, enc, n_workers, joint_grad, idx)
        step = step_size
        for _ in range(_MAX_HALVINGS + 1):
            candidate = weights - step * direction
            if _regular(candidate, enc):
                weights = candidate
                break
            step *= 0.5
            halvings += 1
        else:
            raise RuntimeError(
                f"every step size in [{2 * step}, {step_size}] leaves some W_r E_r or W_r "
                f"singular or non-finite at iteration {t + 1}"
            )

    return WvcmcResult(weights=weights, samples=apply_weights(weights, ys), halvings=halvings)
