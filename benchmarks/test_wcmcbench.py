"""Tests of the benchmark's own references and checks; they do not import wcmc."""

import json
import signal
import time
from pathlib import Path

import numpy as np
from scipy.special import log_ndtr, ndtr

from wcmcbench import checks, reference
from wcmcbench import speed
from wcmcbench.layers import PER_LAYER
from wcmcbench.workloads import WORKLOADS, Job

ROOT = Path(__file__).resolve().parent.parent


def _grid_moment(u, v, prior_variance):
    """Second moment of a 2-d probit posterior by 400 x 400 tensor-grid quadrature."""
    grid = np.linspace(-6.0, 6.0, 400)
    t1, t2 = np.meshgrid(grid, grid, indexing="ij")
    thetas = np.stack([t1.ravel(), t2.ravel()], axis=1)
    signs = 2.0 * v - 1.0
    logpost = log_ndtr(signs[None, :] * (thetas @ u.T)).sum(axis=1)
    logpost -= 0.5 * np.sum(thetas**2, axis=1) / prior_variance
    w = np.exp(logpost - logpost.max())
    w /= w.sum()
    return (thetas * w[:, None]).T @ thetas


def test_importance_sampling_matches_grid_quadrature():
    rng = np.random.default_rng(107)
    u = rng.standard_normal((20, 2))
    v = (rng.uniform(size=20) < ndtr(u @ np.array([0.8, -0.5]))).astype(int)
    exact = _grid_moment(u, v, 1.0)
    moment, ess = reference.probit_second_moment(u, v, 1.0, 20_000, np.random.default_rng(1))
    assert ess > 0.5 * 20_000
    assert np.abs(moment - exact).max() < 0.01 * np.abs(exact).max()


def test_toy_product_covariance_inverts_the_summed_precisions():
    target = reference.toy_product_covariance(4, 3)
    precisions = [np.linalg.inv(reference.toeplitz(rho, 3)) for rho in (0.0, 0.25, 0.5, 0.75)]
    np.testing.assert_allclose(target @ sum(precisions), np.eye(3), atol=1e-12)


def _toy_row_and_call(scheme="wvcmc-oma", n=200):
    target = reference.toy_product_covariance(10, 5)
    samples = np.random.default_rng(0).multivariate_normal(np.zeros(5), target, size=n)
    moment = samples.T @ samples / n
    err2 = reference.relative_error(moment, target)
    row = {"scheme": scheme, "snr_db": 0.0, "t": 2000, "k": 10, "err2": err2, "kl": ""}
    row["computed_gradients"] = 300 * 200 if scheme == "wvcmc-oma" else 0
    call = {"n": n, "finite": True, "moment": moment, "reference": target, "value": err2}
    return row, (call, None)


def test_check_row_passes_a_consistent_toy_output_and_fails_broken_ones():
    doc = WORKLOADS["toy-snr"].jobs(0)[0].doc
    row, observed = _toy_row_and_call()
    assert checks.check_row(doc, row, observed, None, None) == []

    short, observed_short = _toy_row_and_call(n=150)
    short["err2"] = observed_short[0]["value"]
    assert any("output samples" in f for f in checks.check_row(doc, short, observed_short, None, None))

    wrong_ref = dict(observed[0], reference=2.0 * observed[0]["reference"])
    fails = checks.check_row(doc, row, (wrong_ref, None), None, None)
    assert any("product covariance" in f for f in fails)
    assert checks.check_row(doc, row, None, None, None)


def test_toy_round_holds_wvcmc_to_beating_gcmc_at_zero_db(monkeypatch):
    job = Job(WORKLOADS["toy-snr"].jobs(0)[0].doc, "snr", (0.0,))
    rows = [
        {"scheme": s, "snr_db": 0.0, "err2": e}
        for s, e in (("gcmc", 0.5), ("wgcmc-oma", 0.7), ("wgcmc-noma", 0.3), ("wvcmc-oma", 0.6), ("wvcmc-noma", 0.1))
    ]
    record = checks.RoundRecord(seed=0, jobs=[job], rows=[rows], events=[])
    monkeypatch.setattr(checks, "check_row", lambda *args: [])  # only the cross-scheme checks
    failed = {row["scheme"] for _, row, fails in checks.check_round(WORKLOADS["toy-snr"], record) if fails}
    assert failed == {"wvcmc-oma"}


def test_toy_run_ranks_schemes_on_means_over_rounds():
    doc = WORKLOADS["toy-snr"].jobs(0)[0].doc
    err2 = {  # (scheme, snr): err2 of two rounds
        ("gcmc", 0.0): (0.9, 0.5),
        ("wgcmc-oma", 0.0): (0.4, 0.9),  # loses to gcmc in round 2, wins on the mean
        ("wgcmc-noma", 0.0): (0.6, 0.9),  # loses to gcmc on the mean
        ("gcmc", 10.0): (0.9, 1.2),  # mean above 1
    }
    results = [
        (doc, {"scheme": s, "snr_db": snr, "err2": e}, [])
        for (s, snr), pair in err2.items()
        for e in pair
    ]
    checks.check_run(results)
    failed = {(row["scheme"], row["snr_db"]) for _, row, fails in results if fails}
    assert failed == {("wgcmc-noma", 0.0), ("gcmc", 10.0)}


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == ["trial_s", "setup_s", "peak_rss_mb"]


def test_speed_probe_scales_the_work_and_leaves_out_its_kernel(monkeypatch):
    # a kernel that always takes twice the reference time: the work counts half
    monkeypatch.setattr(speed, "kernel", lambda: time.sleep(2 * speed.REFERENCE_S))
    probe = speed.SpeedProbe()
    handler = signal.getsignal(signal.SIGALRM)

    def work():  # 0.6 s in short sleeps, so that a kernel run delays the work, as it would CPU work
        for _ in range(120):
            time.sleep(0.005)
        return "done"

    out, wall, reference_s = probe.measure(work)
    assert out == "done"
    assert 0.58 <= wall < 0.7  # the two or three kernel runs inside are cut out
    assert abs(reference_s - 0.5 * wall) < 0.05 * wall
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
