"""Variational optimization of the aggregation weights.

The target is the free energy of the aggregated-sample distribution, i.e.
minus the average log joint of the produced samples minus their entropy.
The entropy itself is intractable, so it is replaced by an entropy-power
lower bound that splits into per-worker log-determinant terms plus the
(weight-independent) subposterior entropies; minimizing the resulting upper
bound with plain SGD gives the weight update loop in ``run_wvcmc``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregators import WeightSet, apply_weights
from .matops import EIG_RTOL

# A step is rejected (and retried at half length, up to this many times) when
# it makes any W_k E_k or W_k non-finite or drives it within this relative
# margin of singularity.
_MAX_HALVINGS = 5
_SINGULAR_RTOL = 1e-12


def _stack_encodings(encodings) -> np.ndarray:
    mats = np.stack([np.asarray(e, dtype=float) for e in encodings])
    if mats.ndim != 3:
        raise ValueError(f"expected a stack of (m_r, d) encoders, got shape {mats.shape}")
    return mats


def _logabsdet(a: np.ndarray, what: str) -> float:
    sign, logdet = np.linalg.slogdet(a)
    if sign == 0 or not np.isfinite(logdet):
        raise np.linalg.LinAlgError(f"{what} is singular")
    return logdet


def entropy_lb_oma(
    weights: np.ndarray,
    encodings,
    n0: float,
    subposterior_entropies,
) -> float:
    """Entropy lower bound for the OMA aggregate sum_k W_k (E_k theta_k + n_k).

    Equals (d/2) log(2K sqrt(2 pi e N0)) plus the average over the 2K
    independent summands of log|det W_k E_k| + H[p_k] + (1/2) log det W_k W_k^T.
    Requires every W_k E_k to be square and nonsingular.
    """
    w = np.asarray(weights, dtype=float)
    e = _stack_encodings(encodings)
    ents = np.asarray(subposterior_entropies, dtype=float)
    k, d, _ = w.shape
    if ents.shape != (k,):
        raise ValueError("need one subposterior entropy per worker")
    total = 0.5 * d * np.log(2.0 * k * np.sqrt(2.0 * np.pi * np.e * n0))
    acc = 0.0
    for j in range(k):
        acc += _logabsdet(w[j] @ e[j], f"W_{j} E_{j}")
        acc += ents[j]
        acc += 0.5 * _logabsdet(w[j] @ w[j].T, f"W_{j} W_{j}^T")
    return total + acc / (2.0 * k)


def entropy_lb_noma(
    weight: np.ndarray,
    encoding: np.ndarray,
    n0: float,
    n_workers: int,
    subposterior_entropies,
) -> float:
    """Entropy lower bound for the NOMA aggregate W (E sum_k theta_k + n).

    Equals (d/2) log[(K+1) (2 pi e N0)^{1/(K+1)}] plus 1/(K+1) times
    K log|det W E| + (1/2) log det W W^T + sum_k H[p_k].
    """
    w = np.asarray(weight, dtype=float)
    e = np.asarray(encoding, dtype=float)
    ents = np.asarray(subposterior_entropies, dtype=float)
    d = w.shape[0]
    k = n_workers
    total = 0.5 * d * np.log((k + 1.0) * (2.0 * np.pi * np.e * n0) ** (1.0 / (k + 1.0)))
    acc = k * _logabsdet(w @ e, "W E")
    acc += 0.5 * _logabsdet(w @ w.T, "W W^T")
    acc += float(ents.sum())
    return total + acc / (k + 1.0)


def free_energy_oma(weights, ys, encodings, n0, subposterior_entropies, log_joint, idx=None):
    """Upper bound on the free energy: -(1/S) sum_s log p(theta_s, Z) - entropy bound."""
    ws = weights if isinstance(weights, WeightSet) else WeightSet("oma", weights)
    thetas = apply_weights(ws, ys)
    data_term = -float(np.mean(log_joint(thetas, idx)))
    return data_term - entropy_lb_oma(ws.matrices, encodings, n0, subposterior_entropies)


def free_energy_noma(
    weight, ys, encoding, n0, n_workers, subposterior_entropies, log_joint, idx=None
):
    ws = weight if isinstance(weight, WeightSet) else WeightSet("noma", weight)
    thetas = apply_weights(ws, ys)
    data_term = -float(np.mean(log_joint(thetas, idx)))
    return data_term - entropy_lb_noma(
        ws.matrices, encoding, n0, n_workers, subposterior_entropies
    )


def _pinv_t(w: np.ndarray) -> np.ndarray:
    """Transpose of the pseudoinverse, with the shared eigenvalue cutoff."""
    return np.linalg.pinv(w, rcond=EIG_RTOL).T


def grad_oma(weights, ys, encodings, joint_grad, idx=None) -> np.ndarray:
    """Stochastic free-energy gradient with respect to each OMA weight matrix.

    The data term is -(1/S) sum_s g(theta_s) y_{k,s}^T with g the log-joint
    gradient at theta_s = sum_k W_k y_{k,s}; the entropy-bound term is
    -(1/2K) [(W_k E_k)^{-T} E_k^T + (W_k^+)^T].
    """
    ws = weights if isinstance(weights, WeightSet) else WeightSet("oma", weights)
    w = ws.matrices
    e = _stack_encodings(encodings)
    ys = np.asarray(ys, dtype=float)
    s = ys.shape[0]
    k = w.shape[0]
    thetas = apply_weights(ws, ys)
    g = np.asarray(joint_grad(thetas, idx), dtype=float)
    out = np.empty_like(w)
    for j in range(k):
        data = -(g.T @ ys[:, j, :]) / s
        we = w[j] @ e[j]
        ent = np.linalg.solve(we.T, e[j].T) + _pinv_t(w[j])
        out[j] = data - ent / (2.0 * k)
    return out


def grad_noma(weight, ys, encoding, n_workers, joint_grad, idx=None) -> np.ndarray:
    """Stochastic free-energy gradient for the single NOMA weight matrix.

    Entropy-bound term: -(1/(K+1)) [K (W E)^{-T} E^T + (W^+)^T].
    """
    ws = weight if isinstance(weight, WeightSet) else WeightSet("noma", weight)
    w = ws.matrices
    e = np.asarray(encoding, dtype=float)
    ys = np.asarray(ys, dtype=float)
    thetas = apply_weights(ws, ys)
    g = np.asarray(joint_grad(thetas, idx), dtype=float)
    data = -(g.T @ ys) / ys.shape[0]
    we = w @ e
    ent = n_workers * np.linalg.solve(we.T, e.T) + _pinv_t(w)
    return data - ent / (n_workers + 1.0)


def _well_conditioned(w: np.ndarray, e: np.ndarray) -> bool:
    """Whether every W_k E_k and W_k of a (K, d, m_r) weight stack and a
    (K, m_r, d) encoder stack is finite and clear of singularity."""
    for mats in (w @ e, w):
        if not np.all(np.isfinite(mats)):
            return False
        sv = np.linalg.svd(mats, compute_uv=False)
        if np.any(sv[:, -1] <= _SINGULAR_RTOL * sv[:, 0]):
            return False
    return True


@dataclass
class WvcmcResult:
    weights: WeightSet
    samples: np.ndarray


def run_wvcmc(
    ys: np.ndarray,
    init: WeightSet,
    encodings,
    joint_grad,
    step_size: float,
    n_iterations: int,
    rng: np.random.Generator,
    n_workers: int | None = None,
    n_data: int | None = None,
    minibatch_size: int | None = None,
) -> WvcmcResult:
    """SGD over the free-energy upper bound from ``init``, in its access mode.

    Each iteration draws a fresh minibatch (uniform, without replacement;
    ``minibatch_size=None`` means full batch), takes one gradient step, and
    rejects the step with halved length (up to 5 halvings) if it lands on a
    singular weight configuration, where the log-det barrier is infinite.
    When every halving is rejected the run raises ``RuntimeError``.  The
    bound's value is never evaluated: only its gradient moves the weights.
    Returns the final weights and their aggregation of all S blocks.
    """
    oma = init.mode == "oma"
    if oma:
        enc = _stack_encodings(encodings)
    elif n_workers is None:
        raise ValueError("NOMA runs need n_workers")
    else:
        enc = np.asarray(encodings, dtype=float)
    if minibatch_size is not None and (n_data is None or not 1 <= minibatch_size <= n_data):
        raise ValueError("minibatch_size must lie in [1, n_data]")
    # NOMA's single weight and encoder enter the step check as stacks of one
    enc_stack = enc.reshape((-1,) + enc.shape[-2:])

    weights = init
    for t in range(n_iterations):
        idx = None
        if minibatch_size is not None and minibatch_size < n_data:
            idx = rng.choice(n_data, size=minibatch_size, replace=False)
        if oma:
            grad = grad_oma(weights, ys, enc, joint_grad, idx)
        else:
            grad = grad_noma(weights, ys, enc, n_workers, joint_grad, idx)
        step = step_size
        for _ in range(_MAX_HALVINGS + 1):
            candidate = weights.matrices - step * grad
            if _well_conditioned(candidate.reshape((-1,) + candidate.shape[-2:]), enc_stack):
                weights = WeightSet(init.mode, candidate)
                break
            step *= 0.5
        else:
            raise RuntimeError(
                f"every step size in [{2 * step}, {step_size}] leaves some W_k E_k or W_k "
                f"singular or non-finite at iteration {t + 1}"
            )

    return WvcmcResult(weights=weights, samples=apply_weights(weights, ys))
