"""Correctness checks of one workload round, against the references in
``reference.py`` and against properties every output must have.

An operation is one (config, trial, scheme) row.  Each check that fails
names the operation and what was wrong with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import reference

OMA = ("gcmc", "wgcmc-oma", "wvcmc-oma", "best-single")
NOMA = ("wgcmc-noma", "wvcmc-noma")
SCHEMES = OMA + NOMA + ("sgld",)
WVCMC = ("wvcmc-oma", "wvcmc-noma")

# The library's err2 and the one recomputed here from the same moments
# differ only by summation order.
EXACT_RTOL = 1e-9

# Largest err2 between the library's Gibbs reference and the importance-
# sampling estimate.  Over 30 probit-workload data sets that err2 was
# 0.0006-0.0060 (median 0.0029); two Gibbs references on one data set differ
# by 0.002, and the importance-sampling estimate repeats to within 0.0004.
REFERENCE_TOL = 0.02
IS_DRAWS = 4000


@dataclass
class RoundRecord:
    """What a finished round leaves for the checks."""

    seed: int
    jobs: list
    rows: list  # one list of result rows per job
    events: list  # Observer.events
    error: str | None = None  # set when the round raised
    _is_moments: dict = field(default_factory=dict)

    @property
    def operations(self) -> int:
        return sum(job.operations for job in self.jobs)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= EXACT_RTOL * max(1.0, abs(b))


def _match(rows, events):
    """Pair each row with the err2 call that produced its value, and the data set in use then."""
    out, i, dataset = [], 0, None
    for row in rows:
        found = None
        while i < len(events):
            event = events[i]
            i += 1
            if event[0] == "data":
                dataset = event
            elif event[1]["value"] == row["err2"]:
                found = (event[1], dataset)
                break
        out.append(found)
    return out


def _expected_samples(doc, row) -> int:
    scheme = row["scheme"]
    if scheme in OMA:
        return row["t"] // row["k"]
    if scheme in NOMA:
        return row["t"]
    params = doc["schemes"][scheme]
    return params["iterations"] - params["burn_in"]


def _expected_gradients(doc, row) -> int:
    scheme = row["scheme"]
    params = doc["schemes"][scheme] or {}
    if scheme == "sgld":
        return params["iterations"] * params["n_b"]
    if scheme.startswith("wvcmc"):
        n_data = doc["data"]["n"] if doc["scenario"] != "gaussian-toy" else 1
        return params["t_m"] * _expected_samples(doc, row) * (params.get("n_b") or n_data)
    return 0


def _probit_moment(record: RoundRecord, dataset, prior_variance: float) -> np.ndarray:
    key = id(dataset)
    if key not in record._is_moments:
        rng = np.random.default_rng([record.seed, 1])
        moment, ess = reference.probit_second_moment(
            dataset[1], dataset[2], prior_variance, IS_DRAWS, rng
        )
        if ess < 0.25 * IS_DRAWS:
            raise RuntimeError(f"importance sampling degenerated: ESS {ess:.0f} of {IS_DRAWS}")
        record._is_moments[key] = moment
    return record._is_moments[key]


def check_row(doc, row, observed, record, matched_budget) -> list[str]:
    """Failures of one operation; empty when it passed every check."""
    if observed is None:
        return ["no second_order_error call produced this row's err2"]
    call, dataset = observed
    fails = []
    err2 = row["err2"]
    if not call["finite"]:
        fails.append("non-finite output samples")
    if call["n"] != _expected_samples(doc, row):
        fails.append(f"{call['n']} output samples, expected {_expected_samples(doc, row)}")
    if not math.isfinite(err2) or err2 < 0:
        fails.append(f"err2 {err2} is not a finite non-negative number")
    if not _close(reference.relative_error(call["moment"], call["reference"]), err2):
        fails.append("err2 does not match the output's second moment")
    if row["computed_gradients"] != _expected_gradients(doc, row):
        fails.append(
            f"computed_gradients {row['computed_gradients']}, expected {_expected_gradients(doc, row)}"
        )
    if matched_budget is not None and row["scheme"] in ("wvcmc-oma", "wvcmc-noma", "sgld"):
        if row["computed_gradients"] != matched_budget:
            fails.append(f"computed_gradients {row['computed_gradients']} != budget {matched_budget}")

    if doc["scenario"] == "gaussian-toy":
        target = reference.toy_product_covariance(row["k"], call["reference"].shape[0])
        if np.abs(call["reference"] - target).max() > EXACT_RTOL * np.abs(target).max():
            fails.append("reference moment is not the product covariance")
        if not _close(reference.relative_error(call["moment"], target), err2):
            fails.append("err2 against the exact product covariance differs")
    else:
        if dataset is None:
            fails.append("no data set was generated before this row")
        else:
            exact = _probit_moment(record, dataset, doc.get("prior_variance", 1.0))
            gap = reference.relative_error(call["reference"], exact)
            if not gap < REFERENCE_TOL:
                fails.append(f"reference moment off the importance-sampling estimate by err2 {gap:.4f}")

    if doc.get("data", {}).get("n_test", 0) > 0:
        kl = row["kl"]
        if not (isinstance(kl, float) and math.isfinite(kl) and kl >= 0.0):
            fails.append(f"KL {kl!r} is not a finite non-negative number")
    elif row["kl"] != "":
        fails.append(f"KL {row['kl']!r} reported without test covariates")
    return fails


def check_round(workload, record: RoundRecord) -> list[tuple[dict, dict, list[str]]]:
    """(config doc, row, failures) for every operation of a round that completed."""
    pairs = [(job.doc, row) for job, rows in zip(record.jobs, record.rows) for row in rows]
    observed = _match([row for _, row in pairs], record.events)
    results = [
        (doc, row, check_row(doc, row, obs, record, workload.matched_budget))
        for (doc, row), obs in zip(pairs, observed)
    ]
    # Over 40 seeds wvcmc's err2 at 0 dB was at most 0.22 and gcmc's at least
    # 0.44, so wvcmc must beat gcmc within each toy trial.  The closed-form
    # rules are ranked on the run's means instead, in check_run.
    for pairs in _toy_configs(results):
        gcmc = [r["err2"] for r, _ in pairs if r["scheme"] == "gcmc" and r["snr_db"] == 0.0]
        for r, fails in pairs:
            if gcmc and r["scheme"] in WVCMC and r["snr_db"] == 0.0 and not r["err2"] < gcmc[0]:
                fails.append(f"err2 {r['err2']:.4f} at 0 dB does not beat gcmc {gcmc[0]:.4f}")
    return results


def check_run(results) -> None:
    """Checks on the means over every round of a run; failures are added to ``results``.

    Gaussian toy only.  Each scheme's mean err2 at each SNR must be below 1,
    the err2 of an all-zero output, and at 0 dB every noise-aware scheme's
    mean must beat gcmc's.  A single trial is too few to rank the closed-form
    rules: over 40 seeds gcmc's err2 at 0 dB ranged 0.44-1.01 and
    wgcmc-oma's 0.23-1.12, and wgcmc-oma lost to gcmc on 3 of them.  So the
    toy workload runs at least ``min_rounds`` rounds, however short the run.
    """
    by_point = {}
    for pairs in _toy_configs(results):
        for row, fails in pairs:
            by_point.setdefault((row["scheme"], row["snr_db"]), []).append((row["err2"], fails))
    means = {key: sum(e for e, _ in pairs) / len(pairs) for key, pairs in by_point.items()}
    for (scheme, snr), mean in means.items():
        why = []
        if not mean < 1.0:
            why.append(f"mean err2 {mean:.4f} over the run is not below 1")
        gcmc = means.get(("gcmc", snr))
        if snr == 0.0 and scheme != "gcmc" and gcmc is not None and not mean < gcmc:
            why.append(f"mean err2 {mean:.4f} at 0 dB does not beat gcmc's {gcmc:.4f}")
        for _, fails in by_point[(scheme, snr)]:
            fails.extend(why)


def _toy_configs(results):
    """The (row, failures) pairs of each Gaussian-toy config in ``results``."""
    by_doc = {}
    for doc, row, fails in results:
        if doc["scenario"] == "gaussian-toy":
            by_doc.setdefault(id(doc), []).append((row, fails))
    return by_doc.values()
