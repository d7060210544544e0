"""The benchmark's workloads: experiment configs built from a seed.

A workload round runs one trial of every config the workload names, through
``runner.run_experiment`` or ``runner.sweep``.  Every round gets its own
master seed, derived from the run seed and the round index, so no two rounds
of a run share a data set, reference chain or worker draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Criterion 9: wvcmc at t_m * S * N full-batch gradients against SGLD at
# iterations * n_b minibatch gradients, both 50 * 50 * 8500.
MATCHED_BUDGET = 21_250_000


@dataclass(frozen=True)
class Job:
    """One config, run once (``axis`` None) or swept along ``axis``."""

    doc: dict
    axis: str | None = None
    values: tuple = ()

    @property
    def passes(self) -> int:
        return len(self.values) if self.axis else 1

    @property
    def operations(self) -> int:
        return self.passes * len(self.doc["schemes"])

    def run(self, config_mod, runner) -> list[dict]:
        config = config_mod.parse_config(self.doc)
        if self.axis is None:
            return runner.run_experiment(config)
        return runner.sweep(config, self.axis, self.values)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: object  # master seed -> the round's list of Job
    matched_budget: int | None = None  # computed_gradients every optimiser must report
    min_rounds: int = 1  # rounds a run makes even when --seconds end sooner


def round_seed(run_seed: int, round_index: int) -> int:
    """Master seed of one round: a hash of the run seed and the round index."""
    return int(np.random.SeedSequence([run_seed, round_index]).generate_state(1)[0])


def _toy(seed: int) -> list[Job]:
    doc = {
        "scenario": "gaussian-toy",
        "n_workers": 10,
        "t_blocks": 2000,
        "snr_db": 0.0,
        "trials": 1,
        "seed": seed,
        "schemes": {
            "gcmc": {},
            "wgcmc-oma": {},
            "wgcmc-noma": {},
            "wvcmc-oma": {"eta": 5e-3, "t_m": 300},
            "wvcmc-noma": {"eta": 1e-3, "t_m": 30},
        },
    }
    return [Job(doc, "snr", (0.0, 10.0, 20.0))]


def _probit_base(seed: int, n_test: int) -> dict:
    return {
        "scenario": "probit-synthetic",
        "n_workers": 20,
        "snr_db": 15.0,
        "trials": 1,
        "seed": seed,
        "dim": 5,
        "data": {"n": 8500, "n_test": n_test},
        "reference": {"n_samples": 12_000, "burn_in": 100},
    }


def _budget(seed: int) -> list[Job]:
    base = _probit_base(seed, n_test=0)
    noma = dict(base, t_blocks=50, schemes={"wvcmc-noma": {"eta": 1e-6, "t_m": 50}})
    oma = dict(
        base,
        t_blocks=1000,
        schemes={
            "wvcmc-oma": {"eta": 1e-6, "t_m": 50},
            "sgld": {
                "alpha": 0.01,
                "beta": 1.0,
                "gamma": 0.7,
                "n_b": 500,
                "iterations": MATCHED_BUDGET // 500,
                "burn_in": 10_000,
            },
        },
    )
    return [Job(noma), Job(oma)]


def _sweep(seed: int) -> list[Job]:
    doc = dict(
        _probit_base(seed, n_test=1000),
        t_blocks=1000,
        schemes={"gcmc": {}, "wgcmc-oma": {}, "wgcmc-noma": {}, "best-single": {}},
    )
    return [Job(doc, "snr", (5.0, 15.0, 25.0))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "toy-snr",
            "Gaussian toy, exact target, no data: the wvcmc OMA small-matrix loop is almost all the time",
            _toy,
            # the run-level accuracy checks rank schemes on means over rounds;
            # resampling 40 single trials, 12 rounds fail them about once in 10 000 runs
            min_rounds=12,
        ),
        Workload(
            "probit-budget",
            "criterion-9 pair: two identical Gibbs references, wvcmc and SGLD at one matched gradient budget",
            _budget,
            MATCHED_BUDGET,
        ),
        Workload(
            "probit-sweep",
            "closed-form schemes over an SNR sweep: world rebuilt per point, worker Gibbs and the KL metric",
            _sweep,
        ),
    )
}
