"""Subposterior models, their samplers, and log-joint gradients.

Two model families are supported: zero-mean Gaussians with known covariance
(the analytically tractable case) and Bayesian probit regression on a data
shard with an underweighted Gaussian prior.  Probit sampling goes through
the latent-variable Gibbs scheme: each latent is a unit-variance Gaussian
truncated to the half-line fixed by its label, and the coefficient draw is
conjugate given the latents.  ``gibbs_probit_chains`` runs K shards' chains
as one sweep, ``gibbs_probit_sampler`` is its one-shard case, and every chain
starts at its shard's posterior mode, found by Newton steps (``probit_mode``).
A whole data set's posterior, the reference the schemes are scored against,
is also given by adaptive Gauss-Hermite quadrature at that mode
(``probit_quadrature``), which has no Monte Carlo noise and reports the step
between its last two grids.  A ``ProbitShard`` is a ``LabeledDataset``,
which holds the data checks, plus its prior variance.

Each family's log-joint gradient is a callback built by one factory
(``gaussian_joint_grad_fn``, ``probit_joint_grad_fn``), which the weight
optimizer and the SGLD baseline call with samples and optional minibatch
indices.  Probit also has a log-joint value callback
(``probit_log_joint_fn``), which the quadrature reference and the wvcmc
free-energy bound call.  The probit factories check the data and prior
variance once, when they are built.

Every probit kernel (the gradient and log-joint callbacks, the Newton system
and the Gibbs sweep) reads the signed covariates s_n u_n with s_n = 2 v_n - 1
(``LabeledDataset.signed_covariates``), built once per shard or callback.
Row n's likelihood is then Phi(t_n) at its signed margin t_n = s_n u_n^T
theta, so a call gathers no labels and applies no signs.  A sign flip is
exact, so the results are bit for bit those of the label-sign form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import erfcx, log_ndtr, ndtr, ndtri, ndtri_exp, roots_hermitenorm

from .matops import EIG_RTOL, _require_symmetric, psd_factor, symmetrize
from .metrics import moment_error, second_moment

_LOG_2PI = np.log(2.0 * np.pi)
_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)
_SQRT_HALF = np.sqrt(0.5)

# Distance from the truncation boundary beyond which 1 - Phi(alpha) loses
# precision and the inverse CDF is taken in log space from the upper tail.
_TAIL_CUTOFF = 4.0

# probit_mode stops after a Newton step below _NEWTON_RTOL relative; quadratic
# convergence leaves an error near _NEWTON_RTOL**2.
_NEWTON_RTOL = 1e-8
_NEWTON_STEPS = 50

# probit_quadrature stops when two successive grids' second moments differ by
# less than _QUAD_RTOL, and gives up before a grid of more than _QUAD_MAX_NODES
# nodes.  It evaluates the log joint _QUAD_BLOCK nodes at a time: a (64, 8500)
# margin block is 4.4 MB.
_QUAD_RTOL = 1e-5
_QUAD_MAX_NODES = 4096
_QUAD_BLOCK = 64

# Gibbs coefficient-step system matrix gets this relative ridge when its
# condition number exceeds _COND_CAP.
_RIDGE_RTOL = 1e-10
_COND_CAP = 1e12


# ---------------------------------------------------------------------------
# model containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianSubposterior:
    """Zero-mean Gaussian local posterior with a strictly PD covariance."""

    cov: np.ndarray

    def __post_init__(self):
        cov = _require_symmetric(self.cov, "covariance")
        w = np.linalg.eigvalsh(cov)
        if w[0] <= EIG_RTOL * w[-1]:
            raise ValueError(f"covariance must be positive definite, eigenvalues {w}")
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.cov.shape[0]

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` draws, shape (size, d), as z L^T for standard normal rows z
        and the Cholesky factor L of the covariance."""
        return rng.standard_normal((size, self.dim)) @ psd_factor(self.cov).T

    def entropy(self) -> float:
        """Differential entropy (d/2) log(2 pi e) + (1/2) log det cov."""
        sign, logdet = np.linalg.slogdet(self.cov)
        return 0.5 * self.dim * (_LOG_2PI + 1.0) + 0.5 * logdet


@dataclass(frozen=True)
class LabeledDataset:
    """Covariate matrix (n, d) with one 0/1 label per row."""

    covariates: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.covariates, dtype=float)
        v = np.asarray(self.labels)
        if u.ndim != 2 or u.shape[0] < 1:
            raise ValueError(f"covariates must be (n, d) with n >= 1, got {u.shape}")
        if v.shape != (u.shape[0],):
            raise ValueError("labels must be one per covariate row")
        if not np.isin(v, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        object.__setattr__(self, "covariates", u)
        object.__setattr__(self, "labels", v.astype(int))

    @property
    def size(self) -> int:
        return self.covariates.shape[0]

    @property
    def dim(self) -> int:
        return self.covariates.shape[1]

    @cached_property
    def signed_covariates(self) -> np.ndarray:
        """Rows s_n u_n with s_n = 2 v_n - 1, so that label 1 sits on the positive
        side of every margin s_n u_n^T theta; a sign flip is exact."""
        return (2.0 * self.labels - 1.0)[:, None] * self.covariates


@dataclass(frozen=True)
class ProbitShard(LabeledDataset):
    """A shard of labeled data bound to a Gaussian prior N(0, prior_variance I).

    Subposteriors use the underweighted prior variance K sigma^2; the global
    posterior is the K=1 case with the full data set and variance sigma^2.
    """

    prior_variance: float

    def __post_init__(self):
        super().__post_init__()
        if self.prior_variance <= 0:
            raise ValueError(f"prior variance must be positive, got {self.prior_variance}")


# ---------------------------------------------------------------------------
# probit gradients
# ---------------------------------------------------------------------------


def _probit_scores(margins: np.ndarray) -> np.ndarray:
    """d/dt log Phi(t) = phi(t) / Phi(t) at signed margins t, computed in place.

    With Phi(t) = erfc(-t / sqrt 2) / 2 the Gaussian factors cancel, leaving
    sqrt(2 / pi) / erfcx(-t / sqrt 2).  The scaled complementary error
    function stays finite deep in the lower tail, where the textbook ratio
    overflows, and tends to infinity in the upper one, where the score
    underflows to 0.  ``margins`` must be a float array; it is overwritten
    with the scores and returned.
    """
    margins *= -_SQRT_HALF
    erfcx(margins, out=margins)
    return np.divide(_SQRT_2_OVER_PI, margins, out=margins)


# callback factories; each closure maps a sample (d,) or a stack (S, d) and
# optional minibatch indices to per-sample gradients or log-joint values.
# The probit ones read the shard's signed covariates, so a row's margin is
# already on its label's side and no label is gathered per call.


def probit_joint_grad_fn(covariates: np.ndarray, labels: np.ndarray, sigma2: float):
    """The probit log-joint gradient under the prior N(0, sigma2 I).

    The callback returns -theta / sigma2 + (N / N_b) times the summed
    likelihood gradients of minibatch ``idx`` (all N rows when None).
    """
    shard = ProbitShard(covariates, labels, sigma2)
    w, n = shard.signed_covariates, shard.size

    def grad(thetas: np.ndarray, idx=None) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        wb = w if idx is None else w.take(idx, axis=0)
        if wb.shape[0] < 1:
            raise ValueError("minibatch must be non-empty")
        stack = np.atleast_2d(thetas)
        scores = _probit_scores(stack @ wb.T)  # (S, N_b)
        if idx is not None:  # N / N_b is 1 on the full batch
            scores *= n / wb.shape[0]
        grads = -stack / sigma2 + scores @ wb
        return grads[0] if thetas.ndim == 1 else grads

    return grad


def probit_log_joint_fn(covariates: np.ndarray, labels: np.ndarray, sigma2: float):
    shard = ProbitShard(covariates, labels, sigma2)
    w, n = shard.signed_covariates, shard.size
    const = -0.5 * shard.dim * np.log(2.0 * np.pi * sigma2)

    def value(thetas: np.ndarray, idx=None) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        wb = w if idx is None else w.take(idx, axis=0)
        margins = thetas @ wb.T
        loglik = log_ndtr(margins, out=margins).sum(axis=1) * (n / wb.shape[0])
        return const - 0.5 * np.sum(thetas**2, axis=1) / sigma2 + loglik

    return value


def gaussian_joint_grad_fn(cov: np.ndarray):
    """Gradient callback for a known zero-mean Gaussian target: -C^{-1} theta."""
    precision = symmetrize(np.linalg.inv(_require_symmetric(cov, "covariance")))

    def grad(thetas: np.ndarray, idx=None) -> np.ndarray:
        return -np.asarray(thetas, dtype=float) @ precision

    return grad


# ---------------------------------------------------------------------------
# truncated-normal draws
# ---------------------------------------------------------------------------


def _truncated_std_normal_above(alpha: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Z ~ N(0,1) conditioned on Z > alpha, elementwise, by inverse CDF from
    the uniforms ``u``, one per point and of alpha's shape.  A NaN or +inf
    alpha raises ``ValueError``; -inf is the untruncated normal.

    Past ``_TAIL_CUTOFF`` the same uniform is mapped by the complement form
    in log space, 1 - Phi(Z) = (1 - u)(1 - Phi(alpha)), which stays exact
    while alpha**2 / 2 is finite (alpha below about 1.9e154).  Past that the
    draw is alpha to double precision, and alpha is returned.
    """
    alpha = np.asarray(alpha, dtype=float)
    top = alpha.max(initial=-np.inf)  # NaN if any point is NaN
    if not top < np.inf:
        raise ValueError("truncation points must be finite or -inf")
    p_below = ndtr(alpha)
    out = ndtri(p_below + u * (1.0 - p_below))
    if top > _TAIL_CUTOFF:
        tail = alpha > _TAIL_CUTOFF
        z = -ndtri_exp(np.log1p(-u[tail]) + log_ndtr(-alpha[tail]))
        # +inf where alpha**2 / 2 overflows; the draw there is alpha
        out[tail] = np.where(z < np.inf, z, alpha[tail])
    return out


def sample_truncated_normal(mean: np.ndarray, u: np.ndarray) -> np.ndarray:
    """N(mean, 1) restricted to (0, inf), elementwise, as (Z | Z > -mean) + mean,
    from the uniforms ``u``, one per element: mapped by the inverse CDF, in
    log space past ``_TAIL_CUTOFF`` so that deep-tail draws stay exact."""
    draws = _truncated_std_normal_above(-np.asarray(mean, dtype=float), u)
    draws += mean
    return draws


# ---------------------------------------------------------------------------
# probit samplers
# ---------------------------------------------------------------------------


def _newton_system(shard: ProbitShard, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The log posterior's gradient and negative Hessian W^T C W + I / sigma^2
    at theta, with W the signed covariates and C = diag(lambda (lambda + t))
    for probit scores lambda at signed margins t = W theta."""
    w, sigma2 = shard.signed_covariates, shard.prior_variance
    margins = w @ theta
    scores = _probit_scores(margins.copy())
    hess = (w.T * (scores * (scores + margins))) @ w + np.eye(shard.dim) / sigma2
    return scores @ w - theta / sigma2, hess


def probit_mode(shard: ProbitShard) -> np.ndarray:
    """The shard's posterior mode, by Newton steps from 0; Gibbs chains start here.

    The log posterior is strictly concave under the N(0, sigma^2 I) prior, so
    the mode exists even on separable data.  A singular Newton system, a
    non-finite iterate or no convergence within ``_NEWTON_STEPS`` steps raises.
    """
    theta = np.zeros(shard.dim)
    for _ in range(_NEWTON_STEPS):
        grad, hess = _newton_system(shard, theta)
        # np.linalg.LinAlgError, a ValueError, when the system is singular
        step = np.linalg.solve(hess, grad)
        theta = theta + step
        if not np.isfinite(theta).all():
            raise ValueError("the Newton iterate for the probit mode is not finite")
        if np.abs(step).max() <= _NEWTON_RTOL * np.abs(theta).max():
            return theta
    raise ValueError(f"the probit mode did not converge in {_NEWTON_STEPS} Newton steps")


def probit_quadrature(shard: ProbitShard) -> tuple[np.ndarray, np.ndarray, float] | None:
    """The shard's posterior as weighted nodes, by adaptive Gauss-Hermite
    quadrature at its Laplace approximation (Naylor and Smith 1982; Liu and
    Pierce 1994).

    Nodes are theta = mode + L z, with L L^T the inverse negative Hessian at
    the mode and z on the p^d probabilists' Hermite grid.  A node's weight is
    its grid weight times exp(log p(theta) + |z|^2 / 2), the posterior over
    the Laplace density up to a constant, normalised.  p starts at 2 and rises
    until two successive grids' second moments differ by a ``moment_error``
    below ``_QUAD_RTOL``; the finer grid is returned as (nodes (n, d),
    weights (n,), that difference).  The difference is a step, not an error
    bound: the finer grid can sit several times farther than it from a
    converged one.  None when the next grid would have more
    than ``_QUAD_MAX_NODES`` nodes: a large d, or a posterior far from its
    Laplace approximation, such as a small or near-separable shard's.
    """
    mode = probit_mode(shard)
    _, hess = _newton_system(shard, mode)
    scale = psd_factor(symmetrize(np.linalg.inv(hess)))
    log_joint = probit_log_joint_fn(shard.covariates, shard.labels, shard.prior_variance)
    previous = None
    for p in itertools.count(2):
        if p**shard.dim > _QUAD_MAX_NODES:
            return None
        roots, grid_weights = roots_hermitenorm(p)
        index = np.indices((p,) * shard.dim).reshape(shard.dim, -1).T  # (p^d, d)
        z = roots[index]
        nodes = mode + z @ scale.T
        with np.errstate(divide="ignore"):  # a weight past p of about 170 underflows to 0
            log_w = np.log(grid_weights)[index].sum(axis=1) + 0.5 * np.sum(z**2, axis=1)
        # _QUAD_BLOCK nodes at a time bound the (nodes, N) margins
        blocks = range(0, nodes.shape[0], _QUAD_BLOCK)
        log_w += np.concatenate([log_joint(nodes[i : i + _QUAD_BLOCK]) for i in blocks])
        weights = np.exp(log_w - log_w.max())
        weights /= weights.sum()
        moment = second_moment(nodes, weights)
        if previous is not None:
            error = moment_error(previous, moment)
            if error < _QUAD_RTOL:
                return nodes, weights, error
        previous = moment


def _gibbs_coefficient_cov(shard: ProbitShard) -> np.ndarray:
    """(sum_n u_n u_n^T + I / sigma^2)^{-1}, ridged when badly conditioned."""
    u = shard.covariates
    a = u.T @ u + np.eye(shard.dim) / shard.prior_variance
    w = np.linalg.eigvalsh(a)
    if w[0] <= 0 or w[-1] / w[0] > _COND_CAP:
        a = a + (_RIDGE_RTOL * np.trace(a) / shard.dim) * np.eye(shard.dim)
    return symmetrize(np.linalg.inv(a))


def gibbs_probit_chains(
    shards: list[ProbitShard], n_samples: int, rngs: list[np.random.Generator], burn_in: int = 100
) -> np.ndarray:
    """Latent-variable Gibbs chains for the probit posteriors of K shards, run
    as one sweep over all of them, each from its shard's posterior mode: the
    last ``n_samples`` of ``burn_in + n_samples`` coefficient draws, shape
    (n_samples, K, d).

    A sweep draws every latent from its truncated Gaussian, on the positive
    side of its signed margin, then each shard's coefficients from their
    Gaussian conditional, whose covariance is factored once.  Per sweep,
    ``rngs[k]`` gives one uniform per latent of shard k, in index order, then
    d noise normals, so chain k is a run on shard k alone, bit for bit, and a
    longer run repeats a shorter one's draws.  The truncated-normal map runs
    once over all latents, held shard after shard in one flat buffer.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if burn_in < 0:
        raise ValueError(f"burn_in must be non-negative, got {burn_in}")
    if not shards or len(rngs) != len(shards):
        raise ValueError(f"need one generator per shard, got {len(rngs)} for {len(shards)} shards")
    covs = np.stack([_gibbs_coefficient_cov(shard) for shard in shards])  # (K, d, d)
    factors = np.stack([psd_factor(cov) for cov in covs])
    thetas = np.stack([probit_mode(shard) for shard in shards])  # (K, d)
    sums, z, noise = (np.empty((*thetas.shape, 1)) for _ in range(3))  # W^T latents, z, factor @ z
    ends = np.cumsum([shard.size for shard in shards])
    spans = [slice(end - shard.size, end) for shard, end in zip(shards, ends)]
    ws = [shard.signed_covariates for shard in shards]
    margins, u = np.empty(ends[-1]), np.empty(ends[-1])
    # each shard's views: its margins and uniforms, then its rows of sums and z
    latent_step = list(zip(ws, thetas, [margins[s] for s in spans], [u[s] for s in spans], rngs))
    coefficient_step = list(zip(ws, spans, rngs, sums[..., 0], z[..., 0]))
    out = np.empty((n_samples, *thetas.shape))
    for sweep in range(burn_in + n_samples):
        for w, theta, margin, uniform, rng in latent_step:
            np.matmul(w, theta, margin)
            rng.random(out=uniform)  # the bits of rng.uniform(size=n_k)
        latents = sample_truncated_normal(margins, u)
        for w, span, rng, total, draw in coefficient_step:
            np.matmul(w.T, latents[span], total)
            rng.standard_normal(out=draw)
        # a stacked matmul makes one matrix-vector BLAS call per shard, so
        # these are cov_k @ total_k + factor_k @ z_k bit for bit
        np.matmul(covs, sums, thetas[..., None])
        np.matmul(factors, z, noise)
        thetas += noise[..., 0]
        if sweep >= burn_in:
            out[sweep - burn_in] = thetas
    return out


def gibbs_probit_sampler(
    shard: ProbitShard, n_samples: int, rng: np.random.Generator, burn_in: int = 100
) -> np.ndarray:
    """``gibbs_probit_chains``' K = 1 case: the shard's last ``n_samples``
    coefficient draws after ``burn_in`` sweeps, shape (n_samples, d)."""
    return gibbs_probit_chains([shard], n_samples, [rng], burn_in)[:, 0]
