"""End-to-end experiment execution.

One trial covers: data generation and partitioning, local posterior
sampling at the workers, power scaling, simulated transmission over the
configured number of communication blocks (S = T/K received samples per
worker under orthogonal access, S = T superposed samples otherwise),
aggregation or weight optimization, and metric evaluation.  Every source of
randomness is a counter-based substream keyed by (master seed, trial,
stage), so adding schemes or running trials in parallel never perturbs
existing streams.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .. import __version__
from ..aggregators import apply_weights, gaussian_product, gcmc_weights, wgcmc_noma, wgcmc_oma
from ..baselines import SgldSchedule, best_single_worker, sgld_run
from ..channel import (
    ChannelModel,
    PowerConfig,
    noma_encoding,
    oma_encodings,
    power_scale,
    transmit_noma,
    transmit_oma,
)
from ..metrics import ReferencePosterior, ensemble_predict, kl_ensemble, second_order_error
from ..posteriors import (
    ProbitShard,
    gaussian_joint_grad_fn,
    gibbs_probit_sampler,
    probit_joint_grad_fn,
)
from ..wvcmc import run_wvcmc
from .config import SCHEMES, ExperimentConfig, resolved_dict
from .data import LabeledDataset, gen_gaussian_scenario, gen_probit_data, ingest_csv, partition

RESULT_COLUMNS = (
    "scheme",
    "snr_db",
    "t",
    "k",
    "zeta",
    "trial",
    "err2",
    "kl",
    "computed_gradients",
    "wall_ms",
    "seed",
)

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
    "audit": 9,
}


def substream(master_seed: int, trial: int, stage: str, extra: int = 0) -> Generator:
    """Deterministic per-(trial, stage) random stream."""
    return Generator(Philox(SeedSequence([master_seed, trial, _STAGES[stage], extra])))


@dataclass(frozen=True)
class SchemeOutput:
    samples: np.ndarray
    computed_gradients: int = 0


class _TrialRunner:
    """Shared wiring for one trial: receptions are built once and reused by
    every scheme that consumes the same access mode."""

    def __init__(self, config: ExperimentConfig, trial: int):
        self.config = config
        self.trial = trial
        self.dim = config.dim
        if config.channel_kind == "identity":
            self.reps = 1
            self.channel = ChannelModel("identity", self.dim, self.dim)
        else:
            self.reps = 2
            self.channel = ChannelModel("iid-gaussian", 2 * self.dim + 2, 2 * self.dim)
        self.power = PowerConfig.from_snr_db(config.snr_db, self.channel.m_r)
        self.gram = self.channel.mean_inverse_gram()
        self.n0 = self.power.n0
        self.s_oma = config.s_oma if config.uses_oma else 0
        self.s_noma = config.s_noma if config.uses_noma else 0
        self.s_max = max(self.s_oma, self.s_noma)

    # subclasses fill these in
    worker_samples: np.ndarray  # (s_max, K, d)
    reference: ReferencePosterior
    joint_grad = None
    n_data: int | None = None
    test_covariates: np.ndarray | None = None
    reference_prediction: np.ndarray | None = None  # reference ensemble on the test rows

    def prepare_channels(self):
        cfg, k = self.config, self.config.n_workers
        self.ys = {}  # received blocks by access mode
        self._decoded = None
        self._oma_start = None
        for mode, s in (("oma", self.s_oma), ("noma", self.s_noma)):
            if not s:
                continue
            thetas = self.worker_samples[:s]
            scales = [
                power_scale(thetas[:, j], self.gram, self.reps, self.power.p) for j in range(k)
            ]
            rng = substream(cfg.seed, self.trial, f"{mode}-noise")
            if mode == "oma":
                self.oma_enc = oma_encodings(scales, self.dim, self.reps)
                self.ys[mode] = transmit_oma(thetas, self.oma_enc, self.n0, rng)
            else:
                self.noma_enc = noma_encoding(scales, self.dim, self.reps)
                self.ys[mode] = transmit_noma(thetas, self.noma_enc, self.n0, rng)

    def decoded(self) -> np.ndarray:
        """Per-worker decoded signals E_k^+ y_k, shape (S, K, d)."""
        if self._decoded is None:
            ys = self.ys["oma"]
            self._decoded = np.stack(
                [enc.decode(ys[:, j, :]) for j, enc in enumerate(self.oma_enc)], axis=1
            )
        return self._decoded

    def oma_start(self) -> np.ndarray:
        """The gcmc fit on decoded signals composed with the decoders: the
        gcmc weights, and the point wvcmc-oma starts from."""
        if self._oma_start is None:
            decoders = np.stack([e.decode_matrix() for e in self.oma_enc])
            self._oma_start = np.einsum("kde,kem->kdm", gcmc_weights(self.decoded()), decoders)
        return self._oma_start

    def noma_start(self) -> np.ndarray:
        """E^+ / K as a stack of one, the NOMA weight wvcmc-noma starts from."""
        return np.linalg.pinv(self.noma_enc.matrix())[None] / self.config.n_workers

    # ------------------------------------------------------------------
    # scheme implementations, named by config.SCHEMES; each takes the
    # scheme's access mode and parameters
    # ------------------------------------------------------------------

    def run_gcmc(self, mode, params) -> SchemeOutput:
        return SchemeOutput(apply_weights(self.oma_start(), self.ys[mode]))

    def run_wgcmc(self, mode, params) -> SchemeOutput:
        ys = self.ys[mode]
        if mode == "oma":
            ws = wgcmc_oma(ys, [e.scale for e in self.oma_enc], self.n0, self.reps)
        else:
            ws = wgcmc_noma(ys, self.config.n_workers, self.noma_enc.scale, self.n0, self.reps)
        return SchemeOutput(apply_weights(ws, ys))

    def run_best_single(self, mode, params) -> SchemeOutput:
        metric = lambda s: second_order_error(s, self.reference.moment())
        _, samples = best_single_worker(np.swapaxes(self.decoded(), 0, 1), metric)
        return SchemeOutput(samples)

    def run_wvcmc(self, mode, params) -> SchemeOutput:
        cfg = self.config
        k = cfg.n_workers
        if mode == "oma":
            init, encs = self.oma_start(), self.oma_enc
        else:
            init, encs = self.noma_start(), [self.noma_enc]
        ys = self.ys[mode]
        result = run_wvcmc(
            ys,
            init,
            [e.matrix() for e in encs],
            k,
            self.joint_grad,
            params.eta / k if params.eta_div_k else params.eta,
            params.t_m,
            substream(cfg.seed, self.trial, f"wvcmc-{mode}"),
            n_data=self.n_data,
            minibatch_size=params.n_b,
        )
        batch = params.n_b if params.n_b is not None else (self.n_data or 1)
        return SchemeOutput(result.samples, computed_gradients=params.t_m * ys.shape[0] * batch)

    def run_sgld(self, mode, params) -> SchemeOutput:
        rng = substream(self.config.seed, self.trial, "sgld")
        schedule = SgldSchedule(
            alpha=params.alpha,
            beta=params.beta,
            gamma=params.gamma,
            n_iterations=params.iterations,
            burn_in=params.burn_in,
            minibatch_size=params.n_b if self.n_data is not None else None,
        )
        theta0 = self.sgld_init(rng)
        samples = sgld_run(self.joint_grad, schedule, theta0, rng, n_data=self.n_data)
        batch = schedule.minibatch_size if schedule.minibatch_size is not None else (self.n_data or 1)
        return SchemeOutput(samples, computed_gradients=params.iterations * batch)

    def sgld_init(self, rng: Generator) -> np.ndarray:
        return np.zeros(self.dim)

    def metrics_row(self, name: str, out: SchemeOutput, wall_ms: float) -> dict:
        cfg = self.config
        err2 = second_order_error(out.samples, self.reference.moment())
        kl = ""
        if self.reference_prediction is not None:
            kl = kl_ensemble(out.samples, self.reference_prediction, self.test_covariates)
        return {
            "scheme": name,
            "snr_db": cfg.snr_db,
            "t": cfg.t_blocks,
            "k": cfg.n_workers,
            "zeta": cfg.partition.zeta if cfg.partition.rule == "heterogeneous" else 0.0,
            "trial": self.trial,
            "err2": err2,
            "kl": kl,
            "computed_gradients": out.computed_gradients,
            "wall_ms": wall_ms,
            "seed": cfg.seed,
        }


class _GaussianTrial(_TrialRunner):
    def __init__(self, config: ExperimentConfig, trial: int):
        super().__init__(config, trial)
        subs = gen_gaussian_scenario(config.n_workers, self.dim, config.subposteriors)
        _, self.global_cov = gaussian_product([s.cov for s in subs])
        # Zero-mean target: the exact covariance doubles as the second moment.
        self.reference = ReferencePosterior(second_moment=self.global_cov)
        if self.s_max:
            draws = [
                subs[k].sample(substream(config.seed, trial, "worker", k), size=self.s_max)
                for k in range(config.n_workers)
            ]
            self.worker_samples = np.stack(draws, axis=1)
        self.joint_grad = gaussian_joint_grad_fn(self.global_cov)
        self.n_data = None
        self.test_covariates = None
        self.prepare_channels()

    def noma_start(self) -> np.ndarray:
        # I/K, as the toy scenario prescribes; the config admits wvcmc-noma
        # on the toy only with identity channels, whose encoder is square.
        return np.eye(self.dim)[None] / self.config.n_workers


class _ProbitTrial(_TrialRunner):
    def __init__(self, config: ExperimentConfig, trial: int):
        super().__init__(config, trial)
        rng_data = substream(config.seed, trial, "data")
        dataset, test_u = self._load_data(config, rng_data)
        if dataset.dim != config.dim:
            raise ValueError(
                f"the data set has {dataset.dim} covariates but the config sets dim={config.dim}"
            )
        self.dataset = dataset
        self.test_covariates = test_u
        self.n_data = dataset.size

        ref_rng = substream(config.seed, trial, "reference")
        global_shard = ProbitShard(dataset.covariates, dataset.labels, config.prior_variance)
        ref_samples = gibbs_probit_sampler(
            global_shard, config.reference.n_samples, ref_rng, burn_in=config.reference.burn_in
        )
        self.reference = ReferencePosterior(samples=ref_samples)
        if test_u is not None:
            self.reference_prediction = ensemble_predict(ref_samples, test_u)

        shards_idx = partition(
            dataset,
            config.n_workers,
            substream(config.seed, trial, "partition"),
            rule=config.partition.rule,
            zeta=config.partition.zeta,
        )
        k = config.n_workers
        shards = [
            ProbitShard(
                dataset.covariates[idx], dataset.labels[idx], k * config.prior_variance
            )
            for idx in shards_idx
        ]
        if self.s_max:
            draws = [
                gibbs_probit_sampler(
                    shards[j],
                    self.s_max,
                    substream(config.seed, trial, "worker", j),
                    burn_in=config.gibbs_burn_in,
                )
                for j in range(k)
            ]
            self.worker_samples = np.stack(draws, axis=1)
        self.joint_grad = probit_joint_grad_fn(
            dataset.covariates, dataset.labels, config.prior_variance
        )
        self.prepare_channels()

    @staticmethod
    def _load_data(config: ExperimentConfig, rng: Generator):
        if config.scenario == "probit-synthetic":
            dataset = gen_probit_data(
                config.data.n, config.dim, config.data.theta_star, rng
            )
            test_u = (
                rng.standard_normal((config.data.n_test, config.dim))
                if config.data.n_test > 0
                else None
            )
            return dataset, test_u
        full = ingest_csv(config.csv.path, config.csv.label_column, config.csv.pca_dim)
        if config.csv.n_test > 0:
            if config.csv.n_test >= full.size:
                raise ValueError("csv n_test must leave at least one training row")
            order = rng.permutation(full.size)
            test = order[: config.csv.n_test]
            train = np.sort(order[config.csv.n_test :])
            dataset = LabeledDataset(
                full.covariates[train], full.labels[train], note=full.note
            )
            return dataset, full.covariates[test]
        return full, None

    def sgld_init(self, rng: Generator) -> np.ndarray:
        # Randomized start from the prior.
        return np.sqrt(self.config.prior_variance) * rng.standard_normal(self.dataset.dim)


def run_trial(config: ExperimentConfig, trial: int) -> list[dict]:
    """All configured schemes for one trial, in config order."""
    if config.scenario == "gaussian-toy":
        runner = _GaussianTrial(config, trial)
    else:
        runner = _ProbitTrial(config, trial)
    rows = []
    for name, params in config.schemes.items():
        scheme = SCHEMES[name]
        start = time.perf_counter()
        out = getattr(runner, scheme.run)(scheme.mode, params)
        wall_ms = 1000.0 * (time.perf_counter() - start)
        rows.append(runner.metrics_row(name, out, wall_ms))
    return rows


def run_experiment(config: ExperimentConfig, parallel: int = 1) -> list[dict]:
    """Run every trial and scheme; rows come back ordered by (trial, scheme)."""
    trials = range(config.trials)
    if parallel > 1 and config.trials > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            per_trial = list(pool.map(run_trial, [config] * config.trials, trials))
    else:
        per_trial = [run_trial(config, t) for t in trials]
    return [row for rows in per_trial for row in rows]


_SWEEP_AXES = ("snr", "t", "k", "zeta")


def apply_axis(config: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    axis = axis.lower()
    if axis == "snr":
        return replace(config, snr_db=float(value))
    if axis == "t":
        return replace(config, t_blocks=int(value))
    if axis == "k":
        return replace(config, n_workers=int(value))
    if axis == "zeta":
        return replace(
            config, partition=replace(config.partition, rule="heterogeneous", zeta=float(value))
        )
    raise ValueError(f"unknown sweep axis {axis!r}; expected one of {_SWEEP_AXES}")


def sweep(config: ExperimentConfig, axis: str, values, parallel: int = 1) -> list[dict]:
    """Repeat the experiment along one axis with shared per-trial seeds."""
    rows = []
    for value in values:
        rows.extend(run_experiment(apply_axis(config, axis, value), parallel=parallel))
    return rows


# ---------------------------------------------------------------------------
# result output
# ---------------------------------------------------------------------------


def write_rows(path: str, rows: list[dict]) -> None:
    """Append result rows to a CSV file, creating it with a header if absent."""
    new_file = not os.path.exists(path)
    with open(path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        if new_file:
            writer.writeheader()
        for row in rows:
            writer.writerow(row)


def manifest_path(out_path: str) -> str:
    base, _ = os.path.splitext(out_path)
    return base + ".manifest.json"


def write_manifest(out_path: str, config: ExperimentConfig, extra: dict | None = None) -> None:
    """Append one run's record (library version, master seed, resolved config
    and ``extra``) to the JSON list next to the result CSV.

    ``write_rows`` appends to the CSV, so the manifest keeps one record per
    run in the same order as the runs' rows.
    """
    path = manifest_path(out_path)
    runs = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            runs = json.load(fh)
        if isinstance(runs, dict):  # a single-run manifest from an older version
            runs = [runs]
    record = {
        "version": __version__,
        "master_seed": config.seed,
        "config": resolved_dict(config),
        **(extra or {}),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(runs + [record], fh, indent=2, sort_keys=True)
        fh.write("\n")
