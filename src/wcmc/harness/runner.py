"""End-to-end experiment execution: worlds, links and sweeps.

A trial is a world and a link.  The world is what one-shot consensus fixes:
the data, the reference posterior's second moment and test prediction, the
partition and the workers' local posterior draws, built by one function per
scenario family.  The link is what the sweeps vary: power scaling,
simulated transmission over the configured number of communication blocks
(S = T/K received samples per worker under orthogonal access, S = T
superposed samples otherwise), each scheme and its metrics.  Every source
of randomness is a counter-based substream keyed by (master seed, trial,
stage), so adding schemes or running trials in parallel never perturbs
existing streams.

A probit world's reference is ``posteriors.probit_quadrature``'s weighted
nodes, summarised into the moment and test prediction; only when the
quadrature gives up does a Gibbs chain of ``reference.n_samples`` draws after
``reference.burn_in`` sweeps take its place.  The workers' chains run as one
sweep over all K shards (``gibbs_probit_chains``), each on its own substream.
The reference and the workers' draws are cached in the process, each keyed by
the (seed, trial) whose substreams it draws from, the prior and a digest of
the arrays it reads (``_digest``): the reference by the data, the test rows
and the ``reference`` section, the draws by the data, the shards' indices and
S.  Both share ``CHAIN_CACHE_BYTES``, the least recently used entry evicted
first.  So an SNR sweep, or configs that differ only in their link, build
each trial's world once, a ``t``, ``k`` or ``zeta`` sweep computes one
reference per trial, and changed data rebuilds.  The toy's world is
closed-form plus a few draws, too cheap to cache.  Each ``--parallel`` pool
process has its own cache and ``sweep`` starts a pool per point, so parallel
sweep points do not share it.  Result files are ``results``'s.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from ..aggregators import apply_weights, gaussian_product, gcmc_weights
from ..baselines import best_single_worker, sgld_run
from ..channel import noise_variance, noma_encoding, oma_encodings, power_scale, transmit
from ..metrics import ensemble_predict, kl_ensemble, second_moment, second_order_error
from ..posteriors import (
    ProbitShard,
    gaussian_joint_grad_fn,
    gibbs_probit_chains,
    gibbs_probit_sampler,
    probit_joint_grad_fn,
    probit_quadrature,
)
from ..wvcmc import run_wvcmc
from .config import SCHEMES, ConfigError, ExperimentConfig, _number
from .data import LabeledDataset, gen_gaussian_scenario, gen_probit_data, ingest_csv, partition

# Stage identifiers for the counter-based seed split; values are stable so
# new stages can only be appended, never renumbered.
_STAGES = {
    "data": 0,
    "reference": 1,
    "partition": 2,
    "worker": 3,
    "oma-noise": 4,
    "noma-noise": 5,
    "wvcmc-oma": 6,
    "wvcmc-noma": 7,
    "sgld": 8,
}


def substream(master_seed: int, trial: int, stage: str, extra: int = 0) -> Generator:
    """Deterministic per-(trial, stage) random stream."""
    return Generator(Philox(SeedSequence([master_seed, trial, _STAGES[stage], extra])))


@dataclass(frozen=True)
class World:
    """One trial's inputs that no link setting changes, shared read-only by
    every scheme.  ``n_data`` is None for the Gaussian toy, which has no data
    set, and the test fields are None without test rows.  ``reference_error``
    is the quadrature's step difference (an indication of its accuracy, not a
    bound), 0 for the toy's exact covariance and None for a Gibbs reference."""

    worker_samples: np.ndarray  # (s_max, K, d)
    reference_moment: np.ndarray  # (d, d)
    joint_grad: Callable
    n_data: int | None = None
    test_covariates: np.ndarray | None = None
    reference_prediction: np.ndarray | None = None
    reference_error: float | None = None

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


# (reference moment, reference prediction, reference error) by reference key
# and (worker draws,) by workers key, least recently used first.  An S = 50,
# K = 20, d = 5 draws entry is 40 000 bytes.
_CHAINS: OrderedDict = OrderedDict()
CHAIN_CACHE_BYTES = 64 * 2**20


def chain_cache_bytes() -> int:
    """Bytes of array data the cached references and draws hold."""
    return sum(getattr(a, "nbytes", 0) for entry in _CHAINS.values() for a in entry)


def _cached(key: tuple, build: Callable[[], tuple]) -> tuple:
    """The cache entry under ``key``, built on a miss; now the most recent."""
    entry = _CHAINS.pop(key, None) or build()
    _CHAINS[key] = entry
    while chain_cache_bytes() > CHAIN_CACHE_BYTES:
        _CHAINS.popitem(last=False)
    return entry


def _draw_count(config: ExperimentConfig) -> int:
    """S, the draws each worker makes: the most any transmitting scheme sends."""
    return max(config.blocks.values(), default=0)


def _worker_rngs(config: ExperimentConfig, trial: int) -> list[Generator]:
    """The workers' substreams, worker k's at index k."""
    return [substream(config.seed, trial, "worker", k) for k in range(config.n_workers)]


def _digest(*arrays) -> tuple:
    """Per array its shape, dtype and content digest, None for an absent one:
    a cache key part that tells arrays apart without holding their bytes."""
    digest = lambda a: hashlib.blake2b(np.ascontiguousarray(a)).digest()
    return tuple(None if a is None else (a.shape, a.dtype.str, digest(a)) for a in arrays)


def gaussian_world(config: ExperimentConfig, trial: int) -> World:
    subs = gen_gaussian_scenario(config.n_workers, config.dim, config.subposteriors)
    _, global_cov = gaussian_product([s.cov for s in subs])
    s, rngs = _draw_count(config), _worker_rngs(config, trial)
    draws = np.stack([sub.sample(rng, s) for sub, rng in zip(subs, rngs)], axis=1)
    # Zero-mean target: the exact covariance doubles as the second moment.
    return World(draws, global_cov, gaussian_joint_grad_fn(global_cov), reference_error=0.0)


def probit_world(config: ExperimentConfig, trial: int) -> World:
    """Data, partition and minibatch sizes are checked on every build, before
    any chain runs; data that cannot serve the config is a ``ConfigError``."""
    try:
        dataset, test_u = _load_data(config, substream(config.seed, trial, "data"))
    except OSError as exc:  # a missing or unreadable csv.path
        path = config.csv.path
        raise ConfigError(f"cannot read csv.path {path}: {exc.strerror or exc}") from None
    if dataset.dim != config.dim:
        raise ConfigError(
            f"the data set has {dataset.dim} covariates but the config sets dim={config.dim}"
        )
    try:
        shards_idx = partition(
            dataset,
            config.n_workers,
            substream(config.seed, trial, "partition"),
            rule=config.partition.rule,
            zeta=config.partition.zeta,
        )
    except ValueError as exc:  # too few points for K workers, or an empty shard
        raise ConfigError(f"partition: {exc}") from None
    for name, params in config.schemes.items():
        n_b = getattr(params, "n_b", None)
        if n_b is not None and n_b > dataset.size:
            raise ConfigError(
                f"{name}: minibatch size n_b={n_b} exceeds the {dataset.size} training rows"
            )
    data = _digest(dataset.covariates, dataset.labels)
    inputs = (config.seed, trial, config.prior_variance, data)  # what both computations read
    moment, prediction, error = _cached(
        ("reference", *inputs, _digest(test_u), config.reference),
        lambda: _reference(config, trial, dataset, test_u),
    )
    k_prior = config.n_workers * config.prior_variance  # each shard takes the prior^(1/K)
    shards = [ProbitShard(dataset.covariates[i], dataset.labels[i], k_prior) for i in shards_idx]
    s = _draw_count(config)  # no draws, and no cache entry, when no scheme transmits
    chains = lambda: (gibbs_probit_chains(shards, s, _worker_rngs(config, trial)),)
    key = ("workers", *inputs, _digest(*shards_idx), s)
    (draws,) = _cached(key, chains) if s else (np.empty((0, config.n_workers, config.dim)),)
    grad = probit_joint_grad_fn(dataset.covariates, dataset.labels, config.prior_variance)
    return World(draws, moment, grad, dataset.size, test_u, prediction, error)


def _reference(config, trial, dataset, test_u) -> tuple:
    """The reference posterior's second moment, test prediction (None without
    test rows) and step difference: the quadrature's, or a Gibbs chain's with
    step difference None when the quadrature gives up."""
    shard = ProbitShard(dataset.covariates, dataset.labels, config.prior_variance)
    quadrature = probit_quadrature(shard)
    if quadrature is None:
        rng = substream(config.seed, trial, "reference")
        samples = gibbs_probit_sampler(
            shard, config.reference.n_samples, rng, burn_in=config.reference.burn_in
        )
        weights = error = None
    else:
        samples, weights, error = quadrature
    prediction = None if test_u is None else ensemble_predict(samples, test_u, weights)
    return second_moment(samples, weights), prediction, error


def _load_data(config: ExperimentConfig, rng: Generator):
    """The training set and the test covariates (None without test rows)."""
    if config.scenario == "probit-synthetic":
        dataset = gen_probit_data(config.data.n, config.dim, config.data.theta_star, rng)
        n_test = config.data.n_test
        return dataset, rng.standard_normal((n_test, config.dim)) if n_test > 0 else None
    try:
        full = ingest_csv(config.csv.path, config.csv.label_column, config.csv.pca_dim)
    except ValueError as exc:  # content that cannot serve a run
        raise ConfigError(str(exc)) from None
    if config.csv.n_test > 0:
        if config.csv.n_test >= full.size:
            raise ConfigError(
                f"csv.n_test={config.csv.n_test} must leave at least one of the "
                f"{full.size} rows for training"
            )
        order = rng.permutation(full.size)
        test = order[: config.csv.n_test]
        train = np.sort(order[config.csv.n_test :])
        dataset = LabeledDataset(full.covariates[train], full.labels[train])
        return dataset, full.covariates[test]
    return full, None


def build_world(config: ExperimentConfig, trial: int) -> World:
    builder = gaussian_world if config.scenario == "gaussian-toy" else probit_world
    return builder(config, trial)


@dataclass(frozen=True)
class SchemeOutput:
    samples: np.ndarray
    computed_gradients: int = 0
    halvings: int | None = None  # wvcmc's rejected step sizes


class Link:
    """One trial's link over its world.  The scenario fixes the channel: one
    repetition per block on the toy, two on probit.  The received blocks of
    each access mode are built once and shared by the schemes of that mode.
    The ``run_*`` methods are the ones ``config.SCHEMES`` names; each takes
    its scheme's access mode and parameters and reads the world, never
    writes it."""

    def __init__(self, world: World, config: ExperimentConfig, trial: int):
        self.world, self.config, self.trial = world, config, trial
        dim, k = config.dim, config.n_workers
        self.reps = 1 if config.scenario == "gaussian-toy" else 2
        m_r = self.reps * dim
        # E[(H H^T)^{-1}] = I on every scenario: H = I on the toy, and on
        # probit H H^T is Wishart with m_t = m_r + 2, whose inverse has mean I.
        gram = np.eye(m_r)
        self.n0 = noise_variance(config.snr_db, m_r)
        self.encs, self.ys = {}, {}  # encoder list and received blocks by access mode
        for mode, s in config.blocks.items():
            thetas = world.worker_samples[:s]
            scales = [power_scale(thetas[:, j], gram, self.reps, 1.0) for j in range(k)]
            if mode == "oma":
                self.encs[mode] = oma_encodings(scales, dim, self.reps)
            else:
                self.encs[mode] = [noma_encoding(scales, dim, self.reps)]
            rng = substream(config.seed, trial, f"{mode}-noise")
            self.ys[mode] = transmit(thetas, self.encs[mode], self.n0, rng)

    @cached_property
    def decoded(self) -> np.ndarray:
        """Per-worker decoded signals E_k^+ y_k, shape (S, K, d), which
        best-single picks from."""
        ys = self.ys["oma"]
        return np.stack([e.decode(ys[:, j, :]) for j, e in enumerate(self.encs["oma"])], axis=1)

    def _fit(self, mode: str, n0: float) -> np.ndarray:
        """The consensus rule fitted on ``mode``'s received blocks, told ``n0``."""
        scales = [e.scale for e in self.encs[mode]]
        return gcmc_weights(self.ys[mode], scales, self.config.n_workers, n0, self.reps)

    @cached_property
    def oma_start(self) -> np.ndarray:
        """The rule told N0 = 0, which is the product rule on decoded signals
        composed with the decoders: the gcmc weights, and the point wvcmc-oma
        starts from."""
        return self._fit("oma", 0.0)

    @property
    def noma_start(self) -> np.ndarray:
        """E^+ / K as a stack of one, the NOMA weight wvcmc-noma starts from;
        I/K on the toy, as it prescribes."""
        k = self.config.n_workers
        if self.world.n_data is None:
            return np.eye(self.config.dim)[None] / k
        return self.encs["noma"][0].decode_matrix()[None] / k

    def run_gcmc(self, mode, params) -> SchemeOutput:
        return SchemeOutput(apply_weights(self.oma_start, self.ys[mode]))

    def run_wgcmc(self, mode, params) -> SchemeOutput:
        return SchemeOutput(apply_weights(self._fit(mode, self.n0), self.ys[mode]))

    def run_best_single(self, mode, params) -> SchemeOutput:
        metric = lambda s: second_order_error(s, self.world.reference_moment)
        _, samples = best_single_worker(np.swapaxes(self.decoded, 0, 1), metric)
        return SchemeOutput(samples)

    def run_wvcmc(self, mode, params) -> SchemeOutput:
        cfg, n_data = self.config, self.world.n_data
        ys, init = self.ys[mode], self.oma_start if mode == "oma" else self.noma_start
        encs = [e.matrix() for e in self.encs[mode]]
        rng = substream(cfg.seed, self.trial, f"wvcmc-{mode}")
        result = run_wvcmc(
            ys, init, encs, cfg.n_workers, self.world.joint_grad, params.eta, params.t_m, rng,
            n_data=n_data, minibatch_size=params.n_b,
        )
        batch = params.n_b if params.n_b is not None else (n_data or 1)
        return SchemeOutput(result.samples, params.t_m * ys.shape[0] * batch, result.halvings)

    def run_sgld(self, mode, params) -> SchemeOutput:
        cfg, n_data = self.config, self.world.n_data
        rng = substream(cfg.seed, self.trial, "sgld")
        schedule = params.schedule(n_data)
        theta0 = np.zeros(cfg.dim)
        if n_data is not None:  # randomized start from the prior
            theta0 = np.sqrt(cfg.prior_variance) * rng.standard_normal(cfg.dim)
        samples = sgld_run(self.world.joint_grad, schedule, theta0, rng, n_data=n_data)
        batch = schedule.minibatch_size if schedule.minibatch_size is not None else (n_data or 1)
        return SchemeOutput(samples, computed_gradients=schedule.n_iterations * batch)

    def metrics_row(self, name: str, out: SchemeOutput, wall_ms: float) -> dict:
        cfg, world = self.config, self.world
        err2 = second_order_error(out.samples, world.reference_moment)
        kl = ""
        if world.reference_prediction is not None:
            kl = kl_ensemble(out.samples, world.reference_prediction, world.test_covariates)
        return {
            "scheme": name,
            "snr_db": cfg.snr_db,
            "t": cfg.t_blocks,
            "k": cfg.n_workers,
            "zeta": cfg.partition.zeta,
            "trial": self.trial,
            "err2": err2,
            "kl": kl,
            "computed_gradients": out.computed_gradients,
            "wall_ms": wall_ms,
            "seed": cfg.seed,
            "ref_err": "" if world.reference_error is None else world.reference_error,
            "halvings": "" if out.halvings is None else out.halvings,
        }


def run_trial(config: ExperimentConfig, trial: int) -> list[dict]:
    """All configured schemes for one trial, in config order."""
    link = Link(build_world(config, trial), config, trial)
    rows = []
    for name, params in config.schemes.items():
        scheme = SCHEMES[name]
        start = time.perf_counter()
        out = getattr(link, scheme.run)(scheme.mode, params)
        wall_ms = 1000.0 * (time.perf_counter() - start)
        rows.append(link.metrics_row(name, out, wall_ms))
    return rows


def run_experiment(config: ExperimentConfig, parallel: int = 1) -> list[dict]:
    """Run every trial and scheme; rows come back ordered by (trial, scheme)."""
    if parallel < 1:
        raise ValueError(f"parallel must be at least 1, got {parallel}")
    trials = range(config.trials)
    if parallel > 1 and config.trials > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            per_trial = list(pool.map(run_trial, [config] * config.trials, trials))
    else:
        per_trial = [run_trial(config, t) for t in trials]
    return [row for rows in per_trial for row in rows]


SWEEP_AXES = ("snr", "t", "k", "zeta")


def apply_axis(config: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    axis = axis.lower()
    where = f"sweep axis {axis}"
    if axis == "snr":
        return replace(config, snr_db=_number(float, value, where))
    if axis == "t":
        return replace(config, t_blocks=_number(int, value, where))
    if axis == "k":
        return replace(config, n_workers=_number(int, value, where))
    if axis == "zeta":
        zeta = _number(float, value, where)
        return replace(config, partition=replace(config.partition, rule="heterogeneous", zeta=zeta))
    raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")


def sweep(config: ExperimentConfig, axis: str, values, parallel: int = 1) -> list[dict]:
    """Repeat the experiment along one axis with shared per-trial seeds.
    Every value is checked before the first point runs."""
    configs = [apply_axis(config, axis, value) for value in values]
    return [row for point in configs for row in run_experiment(point, parallel=parallel)]
