"""Harness tests: partitioning, CSV ingestion, config validation, determinism, CLI."""

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.special import ndtr

from wcmc import metrics
from wcmc.harness import cli, results, runner
from wcmc.harness.config import SCHEMES, ConfigError, parse_config
from wcmc.harness.data import (
    GAUSSIAN_FAMILIES,
    LabeledDataset,
    export_csv,
    gen_gaussian_scenario,
    gen_probit_data,
    ingest_csv,
    partition,
    pca_project,
)
from wcmc.harness.results import write_manifest, write_rows
from wcmc.harness.runner import apply_axis, run_experiment, sweep
from wcmc.posteriors import gibbs_probit_chains, gibbs_probit_sampler, probit_quadrature

NAN = float("nan")


def toy_config(**overrides):
    doc = {
        "scenario": "gaussian-toy",
        "n_workers": 4,
        "t_blocks": 80,
        "snr_db": 5.0,
        "trials": 2,
        "seed": 11,
        "schemes": {"gcmc": {}, "wgcmc-oma": {}, "wvcmc-noma": {"eta": 1e-3, "t_m": 10}},
    }
    doc.update(overrides)
    return parse_config(doc)


class TestGaussianScenario:
    def test_heterogeneous_correlations(self):
        subs = gen_gaussian_scenario(10, 5, "heterogeneous")
        for k, sub in enumerate(subs, start=1):
            assert sub.cov[0, 1] == pytest.approx((k - 1) / 10)
        np.testing.assert_allclose(subs[0].cov, np.eye(5))

    def test_homogeneous_product_matches(self):
        from wcmc.aggregators import gaussian_product

        het = gen_gaussian_scenario(6, 4, "heterogeneous")
        hom = gen_gaussian_scenario(6, 4, "homogeneous")
        _, target = gaussian_product([s.cov for s in het])
        for s in hom:
            np.testing.assert_allclose(s.cov, 6 * target, atol=1e-10)
        _, implied = gaussian_product([s.cov for s in hom])
        np.testing.assert_allclose(implied, target, atol=1e-10)


class TestGenProbitData:
    def test_zero_coefficients_balanced(self):
        ds = gen_probit_data(20_000, 3, np.zeros(3), np.random.default_rng(0))
        assert ds.labels.mean() == pytest.approx(0.5, abs=0.02)

    def test_class_frequency_matches_monte_carlo(self):
        theta = np.array([0.1103, -0.5832, 0.6417, 1.8279, 0.4968])
        rng = np.random.default_rng(1)
        ds = gen_probit_data(8500, 5, theta, rng)
        # Large-sample oracle for P(v=1) = E[Phi(theta^T u)].
        probe = np.random.default_rng(2).standard_normal((1_000_000, 5))
        p1 = ndtr(probe @ theta).mean()
        sigma = np.sqrt(p1 * (1 - p1) / 8500)
        assert abs(ds.labels.mean() - p1) < 3 * sigma + 3e-4

    def test_seeded_determinism(self):
        a = gen_probit_data(100, 2, [0.5, -0.5], np.random.default_rng(3))
        b = gen_probit_data(100, 2, [0.5, -0.5], np.random.default_rng(3))
        np.testing.assert_array_equal(a.covariates, b.covariates)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestPartition:
    def _dataset(self, n1, n0):
        covariates = np.zeros((n1 + n0, 2))
        labels = np.concatenate([np.ones(n1, dtype=int), np.zeros(n0, dtype=int)])
        return LabeledDataset(covariates, labels)

    def test_equal_split_near_halves(self):
        ds = self._dataset(50, 50)
        shards = partition(ds, 2, np.random.default_rng(0))
        assert sorted(len(s) for s in shards) == [50, 50]

    def test_heterogeneous_class_counts(self):
        # zeta=1, K=2: worker 1 receives 1/(1 + 1/2) = 2/3 of class-1 points.
        ds = self._dataset(100, 90)
        shards = partition(ds, 2, np.random.default_rng(1), rule="heterogeneous", zeta=1.0)
        class1_counts = [int((ds.labels[s] == 1).sum()) for s in shards]
        assert class1_counts[0] == 67  # round(100 * 2/3) by largest remainder
        assert sum(class1_counts) == 100
        # Class 0 mirrors the allocation.
        class0_counts = [int((ds.labels[s] == 0).sum()) for s in shards]
        assert class0_counts[1] > class0_counts[0]

    def test_disjoint_cover_always(self):
        rng = np.random.default_rng(2)
        ds = self._dataset(137, 81)
        for zeta in (0.0, 0.5, 1.0, 2.0):
            shards = partition(ds, 5, rng, rule="heterogeneous", zeta=zeta)
            merged = np.concatenate(shards)
            assert len(merged) == ds.size
            assert len(np.unique(merged)) == ds.size

    def test_zeta_zero_matches_equal_in_counts(self):
        ds = self._dataset(60, 60)
        shards = partition(ds, 3, np.random.default_rng(3), rule="heterogeneous", zeta=0.0)
        assert all(len(s) == 40 for s in shards)

    def test_empty_shard_raises_with_guidance(self):
        ds = self._dataset(2, 2)
        with pytest.raises(ValueError, match="zeta"):
            partition(ds, 4, np.random.default_rng(4), rule="heterogeneous", zeta=12.0)


class TestCsvRoundTrip:
    def test_export_then_ingest(self, tmp_path):
        ds = gen_probit_data(50, 3, [0.2, -0.1, 0.4], np.random.default_rng(5))
        path = tmp_path / "data.csv"
        export_csv(ds, path)
        back = ingest_csv(path, "label")
        np.testing.assert_array_equal(back.labels, ds.labels)
        # Ingestion standardizes, so compare after standardizing the original.
        std = (ds.covariates - ds.covariates.mean(0)) / ds.covariates.std(0)
        np.testing.assert_allclose(back.covariates, std, atol=1e-12)

    def test_identity_when_already_standardized(self, tmp_path):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((400, 2))
        x = (x - x.mean(0)) / x.std(0)
        ds = LabeledDataset(x, (rng.uniform(size=400) < 0.5).astype(int))
        path = tmp_path / "std.csv"
        export_csv(ds, path)
        back = ingest_csv(path, "label", pca_dim=2)
        # Full-dimensional PCA is a rotation; second moments are preserved.
        np.testing.assert_allclose(
            back.covariates.T @ back.covariates, x.T @ x, atol=1e-8
        )

    def test_rank_one_pca_explains_everything(self):
        # one principal direction keeps every point's distance from the mean
        rng = np.random.default_rng(7)
        direction = np.array([3.0, 4.0]) / 5.0
        x = np.outer(rng.standard_normal(300), direction)
        projected = pca_project(x, 1)
        assert projected.shape == (300, 1)
        centered = x - x.mean(axis=0)
        np.testing.assert_allclose(np.abs(projected[:, 0]), np.linalg.norm(centered, axis=1))

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,label\n1.0,1\nnot_a_number,0\n")
        with pytest.raises(ValueError, match="line 3"):
            ingest_csv(path, "label")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"x0,x1,label\n1.0,2.0,1\n0.5,{cell},0\n")
        with pytest.raises(ValueError, match=r"line 3: non-finite value in columns \['x1'\]"):
            ingest_csv(path, "label")

    def test_non_binary_label_rejected(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("x0,label\n1.0,2\n")
        with pytest.raises(ValueError, match="label"):
            ingest_csv(path, "label")

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad3.csv"
        path.write_text("x0,x1\n1.0,2.0\n")
        with pytest.raises(ValueError, match="no column"):
            ingest_csv(path, "y")


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            toy_config(typo_field=3)
        # the scenario fixes the channel, so no config names one
        with pytest.raises(ConfigError, match=r"unknown keys \['channel'\]"):
            toy_config(channel="iid-gaussian")

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError, match="unknown scheme"):
            toy_config(schemes={"gdmc": {}})

    def test_unknown_scheme_key(self):
        with pytest.raises(ConfigError, match="schemes.wvcmc-oma"):
            toy_config(schemes={"wvcmc-oma": {"eta": 1e-3, "t_m": 5, "lr": 0.1}})
        # wvcmc's step size is eta as configured; no knob divides it by K
        with pytest.raises(ConfigError, match=r"unknown keys \['eta_div_k'\] in schemes.wvcmc-noma"):
            toy_config(schemes={"wvcmc-noma": {"eta": 1e-2, "t_m": 5, "eta_div_k": True}})

    def test_oma_needs_enough_blocks(self):
        with pytest.raises(ConfigError, match="t_blocks"):
            toy_config(t_blocks=3)

    def test_toy_minibatch_rejected(self):
        with pytest.raises(ConfigError, match="minibatch"):
            toy_config(schemes={"wvcmc-oma": {"eta": 1e-3, "t_m": 5, "n_b": 10}})

    @pytest.mark.parametrize(
        "section, message",
        [
            ({"gamma": 0.5}, r"gamma must lie in \(0\.5, 1\], got 0\.5"),
            ({"beta": 0.0}, "alpha and beta must be positive"),
            ({"iterations": 100, "burn_in": 100}, r"burn_in must lie in \[0, 100\).*got 100"),
            ({"burn_in": -1}, r"burn_in must lie in \[0, 20000\).*got -1"),
            # the toy runs SGLD full batch, but n_b is checked all the same
            ({"n_b": 0}, "minibatch size n_b must be positive, got 0"),
            ({"n_b": -3}, "minibatch size n_b must be positive, got -3"),
        ],
    )
    def test_sgld_schedule_checked_when_parsed(self, section, message):
        # the schedule the run uses is built at parse time; its checks name the scheme
        with pytest.raises(ConfigError, match=r"^schemes\.sgld: " + message):
            toy_config(schemes={"sgld": section})
        params = toy_config(schemes={"sgld": {"n_b": 50}}).schemes["sgld"]
        assert params.schedule(n_data=None).minibatch_size is None
        assert params.schedule(n_data=200).minibatch_size == 50

    @pytest.mark.parametrize(
        "scheme, k, t",
        [
            ("gcmc", 10, 15),
            ("wgcmc-oma", 10, 15),
            ("wvcmc-oma", 10, 15),  # starts from the gcmc fit
            ("wgcmc-noma", 3, 1),
        ],
    )
    def test_covariance_fits_need_two_blocks_per_receiver(self, scheme, k, t):
        params = {"eta": 1e-3, "t_m": 2} if scheme == "wvcmc-oma" else {}
        message = f"{scheme} fits a covariance and needs at least 2 blocks per receiver"
        with pytest.raises(ConfigError, match=message):
            toy_config(n_workers=k, t_blocks=t, schemes={scheme: params})
        # the least T that gives each receiver 2 blocks passes; a sweep point is checked too
        least = 2 * k if SCHEMES[scheme].mode == "oma" else 2
        cfg = toy_config(n_workers=k, t_blocks=least, schemes={scheme: params})
        with pytest.raises(ConfigError, match=message):
            apply_axis(cfg, "t", least - 1)

    @pytest.mark.parametrize("scheme, k, t", [("best-single", 3, 3), ("wvcmc-noma", 3, 1)])
    def test_schemes_that_fit_nothing_run_at_one_block_per_receiver(self, scheme, k, t):
        params = {"eta": 1e-3, "t_m": 5} if scheme == "wvcmc-noma" else {}
        cfg = toy_config(n_workers=k, t_blocks=t, trials=1, schemes={scheme: params})
        (row,) = run_experiment(cfg)
        assert row["scheme"] == scheme and np.isfinite(row["err2"])

    def test_negative_seed_rejected(self):
        # numpy's seed sequence takes no negative entry
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            toy_config(seed=-1)
        assert toy_config(seed=0).seed == 0

    def test_unknown_subposterior_family_rejected(self):
        # the config check and gen_gaussian_scenario read one list of families
        with pytest.raises(ConfigError, match="unknown subposteriors 'bogus'"):
            toy_config(subposteriors="bogus")
        for family in GAUSSIAN_FAMILIES:
            assert toy_config(subposteriors=family).subposteriors == family
        with pytest.raises(ValueError, match="unknown subposterior mode 'bogus'"):
            gen_gaussian_scenario(3, 2, "bogus")

    @pytest.mark.parametrize(
        "section", [{"rule": "heterogeneous", "zeta": 1.0}, {"zeta": 0.5}, {"rule": "heterogeneous"}]
    )
    def test_toy_takes_no_partition(self, section):
        # the toy has no data set: a partition would be recorded in rows and change nothing
        with pytest.raises(ConfigError, match="gaussian-toy scenario has no data set to partition"):
            toy_config(partition=section)
        assert toy_config(partition={"rule": "equal", "zeta": 0.0}).partition.zeta == 0.0

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"n_workers": 2.7}, "n_workers must be an integer, got 2.7"),
            ({"t_blocks": 20.9}, "t_blocks must be an integer, got 20.9"),
            ({"trials": 1.5}, "trials must be an integer, got 1.5"),
            ({"seed": True}, "seed must be an integer, got True"),
            ({"snr_db": "10"}, "snr_db must be a number, got '10'"),
            (
                {"schemes": {"wvcmc-oma": {"eta": 1e-3, "t_m": 2.5}}},
                r"schemes\.wvcmc-oma\.t_m must be an integer, got 2\.5",
            ),
            ({"schemes": {"wvcmc-oma": {"eta": "1e-3", "t_m": 2}}}, r"schemes\.wvcmc-oma\.eta"),
            ({"schemes": {"sgld": {"iterations": True}}}, r"schemes\.sgld\.iterations"),
            ({"partition": {"zeta": "0.5"}}, r"partition\.zeta must be a number"),
            ({"reference": {"n_samples": 2000.5}}, r"reference\.n_samples must be an integer"),
            # NaN passes every `<= 0` check and fails only mid-trial
            ({"snr_db": NAN}, "snr_db must be a number, got nan"),
            ({"prior_variance": NAN}, "prior_variance must be a number, got nan"),
            ({"partition": {"zeta": NAN}}, r"partition\.zeta must be a number, got nan"),
            ({"schemes": {"wvcmc-oma": {"eta": NAN, "t_m": 2}}}, r"wvcmc-oma\.eta must be a"),
            ({"data": {"theta_star": [0.5, NAN]}}, r"data\.theta_star must be a number, got nan"),
            # no signal: N0 = 1 / (m_r 10^(-inf)) would divide by zero mid-trial
            ({"snr_db": -float("inf")}, "snr_db must be above -inf"),
        ],
    )
    def test_numbers_are_checked_not_truncated(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            toy_config(**overrides)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"partition": 5}, "partition must be an object, got 5"),
            ({"reference": [1, 2]}, r"reference must be an object, got \[1, 2\]"),
            ({"data": "n"}, "data must be an object, got 'n'"),
            ({"schemes": {"wvcmc-oma": 5}}, "schemes.wvcmc-oma must be an object, got 5"),
            ({"schemes": {"gcmc": 0}}, "schemes.gcmc must be an object, got 0"),
            (None, r"config must be an object, got \[\]"),
        ],
    )
    def test_sections_must_be_objects(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            parse_config([]) if overrides is None else toy_config(**overrides)

    def test_integral_and_integer_numbers_accepted(self):
        assert toy_config(snr_db=float("inf")).snr_db == float("inf")  # a noiseless link
        cfg = toy_config(t_blocks=80.0, snr_db=5, schemes={"sgld": {"n_b": None, "alpha": 1}})
        assert cfg.t_blocks == 80 and isinstance(cfg.t_blocks, int)
        assert cfg.snr_db == 5.0 and isinstance(cfg.snr_db, float)
        assert cfg.schemes["sgld"].n_b is None
        assert isinstance(cfg.schemes["sgld"].alpha, float)

    def test_reference_sample_floor(self):
        with pytest.raises(ConfigError, match="at least 1000 samples"):
            toy_config(reference={"n_samples": 999})

    @pytest.mark.parametrize("axis, value", [("t", 20.9), ("k", 2.7)])
    def test_sweep_values_are_checked_not_truncated(self, axis, value):
        with pytest.raises(ConfigError, match=f"sweep axis {axis} must be an integer, got {value}"):
            apply_axis(toy_config(), axis, value)

    @pytest.mark.parametrize("axis", ["snr", "zeta", "t"])
    def test_nan_sweep_value_rejected_before_any_point_runs(self, axis, monkeypatch):
        monkeypatch.setattr(runner, "run_experiment", lambda *a, **kw: pytest.fail("a point ran"))
        with pytest.raises(ConfigError, match=f"sweep axis {axis} must be"):
            sweep(probit_config(), axis, [10.0, float("nan")])  # the toy takes no zeta

    def test_minus_inf_snr_sweep_rejected_before_any_point_runs(self, monkeypatch):
        monkeypatch.setattr(runner, "run_experiment", lambda *a, **kw: pytest.fail("a point ran"))
        with pytest.raises(ConfigError, match="snr_db must be above -inf"):
            sweep(toy_config(), "snr", [10.0, -float("inf")])

    def test_integral_sweep_value_accepted(self):
        cfg = apply_axis(toy_config(), "t", 20.0)
        assert cfg.t_blocks == 20 and isinstance(cfg.t_blocks, int)

    @pytest.mark.parametrize(
        "csv_section, message",
        [
            ({"n_test": -5}, "csv.n_test must be non-negative, got -5"),
            ({"pca_dim": 0}, "csv.pca_dim must be positive, got 0"),
        ],
    )
    def test_csv_section_checked_at_parse_time(self, csv_section, message):
        with pytest.raises(ConfigError, match=message):
            toy_config(scenario="probit-csv", csv={"path": "data.csv", **csv_section})

    def test_csv_scenario_needs_csv_section(self):
        with pytest.raises(ConfigError, match="csv"):
            parse_config(
                {
                    "scenario": "probit-csv",
                    "n_workers": 2,
                    "t_blocks": 10,
                    "snr_db": 10.0,
                    "trials": 1,
                    "seed": 0,
                    "schemes": {"gcmc": {}},
                }
            )


def strip_timing(rows):
    return [{k: v for k, v in row.items() if k != "wall_ms"} for row in rows]


# Every scheme on a heterogeneous toy at 10 dB and on probit-synthetic at
# 20 dB, with the (err2, kl, computed_gradients) each row read when recorded.
# The probit rows were re-read when Gibbs chains began to start at the
# posterior mode: same random streams, new start point, moves up to 2.8e-3.
PINNED_ROWS = [
    (
        {
            "scenario": "gaussian-toy",
            "n_workers": 4,
            "t_blocks": 200,
            "snr_db": 10.0,
            "trials": 1,
            "seed": 21,
            "schemes": {
                "gcmc": {},
                "wgcmc-oma": {},
                "wgcmc-noma": {},
                "wvcmc-oma": {"eta": 5e-3, "t_m": 30},
                "wvcmc-noma": {"eta": 5e-3, "t_m": 30},
                "sgld": {"iterations": 2000, "burn_in": 200},
                "best-single": {},
            },
        },
        {
            "gcmc": (0.6725573571210084, "", 0),
            "wgcmc-oma": (0.5388719063572206, "", 0),
            "wgcmc-noma": (0.4296150414143883, "", 0),
            "wvcmc-oma": (0.38504937273754947, "", 1500),
            "wvcmc-noma": (0.2559408408593566, "", 6000),
            "sgld": (1.3481015245535266, "", 2000),
            "best-single": (4.077702468828647, "", 0),
        },
    ),
    (
        {
            "scenario": "probit-synthetic",
            "n_workers": 3,
            "t_blocks": 60,
            "snr_db": 20.0,
            "trials": 1,
            "seed": 22,
            "data": {"n": 300, "n_test": 20},
            "reference": {"n_samples": 1000, "burn_in": 20},
            "schemes": {
                "gcmc": {},
                "wgcmc-oma": {},
                "wgcmc-noma": {},
                "wvcmc-oma": {"eta": 1e-3, "t_m": 5},
                "wvcmc-noma": {"eta": 1e-3, "t_m": 10, "n_b": 50},
                "sgld": {"n_b": 100, "iterations": 2000, "burn_in": 200},
                "best-single": {},
            },
        },
        {
            "gcmc": (0.17715939159045352, 0.004465194755558918, 0),
            "wgcmc-oma": (0.20262503109827598, 0.0012200729570905964, 0),
            "wgcmc-noma": (0.10980935785135207, 0.0010970294735058624, 0),
            "wvcmc-oma": (0.06865230052460415, 0.001356064808639218, 30000),
            "wvcmc-noma": (0.6791831385431767, 0.014023838712591325, 30000),
            "sgld": (0.9059433674163071, 0.24912604269289168, 200000),
            "best-single": (0.5323117525506746, 0.01505268926501457, 0),
        },
    ),
]


class TestRunnerDeterminism:
    def test_identical_configs_identical_rows(self):
        # Every field except the wall-clock measurement is bit-identical.
        cfg = toy_config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert strip_timing(a) == strip_timing(b)

    def test_parallel_matches_serial(self):
        cfg = toy_config()
        serial = run_experiment(cfg, parallel=1)
        parallel = run_experiment(cfg, parallel=2)
        assert strip_timing(serial) == strip_timing(parallel)

    def test_adding_schemes_preserves_streams(self):
        base = toy_config(schemes={"wgcmc-oma": {}})
        extended = toy_config(schemes={"wgcmc-oma": {}, "wgcmc-noma": {}})
        rows_base = {r["trial"]: r for r in run_experiment(base)}
        rows_ext = {
            r["trial"]: r for r in run_experiment(extended) if r["scheme"] == "wgcmc-oma"
        }
        for trial, row in rows_base.items():
            assert row["err2"] == rows_ext[trial]["err2"]

    def test_sweep_single_value_matches_run(self):
        cfg = toy_config()
        direct = run_experiment(apply_axis(cfg, "snr", 8.0))
        swept = sweep(cfg, "snr", [8.0])
        assert strip_timing(direct) == strip_timing(swept)

    @pytest.mark.parametrize("doc, pinned", PINNED_ROWS, ids=["toy-10db", "probit-20db"])
    def test_rows_match_pinned_values(self, doc, pinned):
        # (err2, kl, computed_gradients) per scheme on fixed seeds; a refactor
        # that moves no random stream keeps them
        rows = run_experiment(parse_config(doc))
        assert [row["scheme"] for row in rows] == list(pinned)
        for row in rows:
            err2, kl, gradients = pinned[row["scheme"]]
            assert row["err2"] == pytest.approx(err2, rel=1e-10, abs=0)
            assert row["kl"] == (kl if kl == "" else pytest.approx(kl, rel=1e-10, abs=0))
            assert row["computed_gradients"] == gradients


def probit_config(**overrides):
    doc = {
        "scenario": "probit-synthetic",
        "n_workers": 3,
        "t_blocks": 30,
        "snr_db": 10.0,
        "trials": 1,
        "seed": 8,
        "dim": 2,
        "data": {"n": 300, "theta_star": [0.5, -0.5], "n_test": 20},
        "reference": {"n_samples": 1000, "burn_in": 10},
        "schemes": {"gcmc": {}, "wgcmc-noma": {}},
    }
    doc.update(overrides)
    return parse_config(doc)


# a probit-csv config over the 200-row, 2-covariate data.csv in the working directory
CSV_DOC = {
    "scenario": "probit-csv",
    "dim": 2,
    "csv": {"path": "data.csv"},
    "reference": {"n_samples": 1000, "burn_in": 10},
}


def count_chains(monkeypatch) -> list:
    """The shard sizes of the Gibbs chains the runner starts from now on: one
    per shard of the workers' stacked sweep, and the reference fallback's."""
    sizes = []

    def stacked(shards, *args, **kw):
        sizes.extend(shard.size for shard in shards)
        return gibbs_probit_chains(shards, *args, **kw)

    def one(shard, *args, **kw):
        sizes.append(shard.size)
        return gibbs_probit_sampler(shard, *args, **kw)

    monkeypatch.setattr(runner, "gibbs_probit_chains", stacked)
    monkeypatch.setattr(runner, "gibbs_probit_sampler", one)
    return sizes


def forbid_chains(monkeypatch) -> None:
    """Fail the test if the runner starts any Gibbs chain from now on."""
    for name in ("gibbs_probit_chains", "gibbs_probit_sampler"):
        monkeypatch.setattr(runner, name, lambda *a, **kw: pytest.fail("a chain ran"))


def record_references(monkeypatch) -> list:
    """(shard size, result) of each reference quadrature the runner computes from now on."""
    calls = []

    def recording(shard):
        calls.append((shard.size, probit_quadrature(shard)))
        return calls[-1][1]

    monkeypatch.setattr(runner, "probit_quadrature", recording)
    return calls


WORLD_FIELDS = ("worker_samples", "reference_moment", "reference_prediction", "reference_error")

# a 100-row, 5-covariate probit set at theta* = 3 1: its posterior is too far
# from its Laplace approximation for a grid of at most 4096 nodes
NEAR_SEPARABLE = {"n_workers": 2, "dim": 5, "data": {"n": 100, "theta_star": [3.0] * 5, "n_test": 20}}


class TestWorld:
    def test_link_settings_leave_the_world_unchanged(self, monkeypatch):
        # SNR and schemes at one S are link settings: the world a sweep over
        # them shares, built once and bit-equal to a cold build
        a = runner.build_world(probit_config(snr_db=0.0), 0)
        assert a.worker_samples.shape == (30, 3, 2)
        chains, references = count_chains(monkeypatch), record_references(monkeypatch)
        for link in (
            {"snr_db": 20.0},
            {"snr_db": float("inf")},
            # the same S = T = 30 draws per worker from another scheme mix
            {"schemes": {"wgcmc-noma": {}, "wvcmc-noma": {"eta": 1e-3, "t_m": 2}}},
        ):
            b = runner.build_world(probit_config(**link), 0)
            assert chains == [] and references == []
            runner._CHAINS.clear()
            c = runner.build_world(probit_config(**link), 0)
            assert len(chains) == 3 and len(references) == 1
            chains.clear()
            references.clear()
            for field in WORLD_FIELDS:
                np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
                np.testing.assert_array_equal(getattr(a, field), getattr(c, field))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seed": 9},
            {"trial": 1},
            {"n_workers": 2},
            {"partition": {"rule": "heterogeneous", "zeta": 0.5}},
            {"prior_variance": 2.0},
            {"reference": {"n_samples": 1100, "burn_in": 10}},
            {"reference": {"n_samples": 1000, "burn_in": 11}},
            {"data": {"n": 301, "theta_star": [0.5, -0.5], "n_test": 20}},
            {"t_blocks": 33},  # S
        ],
        ids=lambda o: next(iter(o)) if len(o) == 1 else str(o),
    )
    def test_what_the_chains_read_is_in_the_key(self, monkeypatch, overrides):
        # the reference reads the data, the prior and the reference section;
        # the worker chains read the data, the prior, K, the partition and S
        overrides = dict(overrides)
        trial = overrides.pop("trial", 0)
        name = next(iter(overrides), "trial")
        runner.build_world(probit_config(), 0)
        chains, references = count_chains(monkeypatch), record_references(monkeypatch)
        cfg = probit_config(**overrides)
        runner.build_world(cfg, trial)
        workers_only = name in ("n_workers", "partition", "t_blocks")
        assert len(references) == (not workers_only)
        assert len(chains) == (0 if name == "reference" else cfg.n_workers)

    def test_worker_chains_take_the_sampler_default_burn_in(self, monkeypatch):
        # worker j's S draws are the sampler's on shard j and its own substream,
        # after the 100 burn-in sweeps of gibbs_probit_sampler's default
        shards = []

        def recording(stack, *args, **kw):
            assert "burn_in" not in kw and len(args) == 2  # (S, rngs): the default
            shards.extend(stack)
            return gibbs_probit_chains(stack, *args, **kw)

        monkeypatch.setattr(runner, "gibbs_probit_chains", recording)
        cfg = probit_config(seed=3)
        world = runner.build_world(cfg, 1)
        assert len(shards) == cfg.n_workers
        for j, shard in enumerate(shards):
            rng = runner.substream(cfg.seed, 1, "worker", j)
            expected = gibbs_probit_sampler(shard, cfg.blocks["noma"], rng, burn_in=100)
            np.testing.assert_array_equal(world.worker_samples[:, j], expected)

    def test_rewritten_csv_rebuilds(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        cfg = probit_config(scenario="probit-csv", csv={"path": str(path)}, data=None)
        export_csv(gen_probit_data(300, 2, [0.5, -0.5], np.random.default_rng(1)), path)
        a = runner.build_world(cfg, 0)
        chains, references = count_chains(monkeypatch), record_references(monkeypatch)
        export_csv(gen_probit_data(320, 2, [0.5, -0.5], np.random.default_rng(2)), path)
        b = runner.build_world(cfg, 0)
        assert len(chains) == 3 and len(references) == 1
        assert not np.array_equal(a.reference_moment, b.reference_moment)
        runner.build_world(cfg, 0)
        assert len(chains) == 3 and len(references) == 1  # the unchanged file hits

    def test_csv_rewritten_in_place_with_its_stat_kept_rebuilds(self, tmp_path, monkeypatch):
        # one label byte flipped in place, the mtime put back, as cp -p, rsync -t
        # or touch -r leave it: device, inode, size and mtime all read as before
        path = tmp_path / "data.csv"
        cfg = probit_config(scenario="probit-csv", csv={"path": str(path)}, data=None)
        export_csv(gen_probit_data(300, 2, [0.5, -0.5], np.random.default_rng(1)), path)
        runner.build_world(cfg, 0)
        before = path.stat()
        text = path.read_bytes()
        at = text.index(b"\r\n", text.index(b"\n")) - 1  # the first row's label
        assert text[at : at + 1] in (b"0", b"1")
        with open(path, "r+b") as fh:
            fh.seek(at)
            fh.write(b"1" if text[at : at + 1] == b"0" else b"0")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        stat = lambda st: (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
        assert stat(after) == stat(before) and path.read_bytes() != text
        chains, references = count_chains(monkeypatch), record_references(monkeypatch)
        b = runner.build_world(cfg, 0)
        assert len(chains) == 3 and len(references) == 1
        runner._CHAINS.clear()
        cold = runner.build_world(cfg, 0)
        for field in WORLD_FIELDS:
            np.testing.assert_array_equal(getattr(b, field), getattr(cold, field))

    def test_configs_that_differ_in_their_test_rows_share_the_worker_draws(self, monkeypatch):
        # the test rows are drawn after the training set, so n_test leaves the
        # data, the partition and the chains as they are; only the reference
        # reads them
        chains, references = count_chains(monkeypatch), record_references(monkeypatch)
        a = runner.build_world(probit_config(), 0)
        data = {"n": 300, "theta_star": [0.5, -0.5], "n_test": 40}
        b = runner.build_world(probit_config(data=data), 0)
        assert len(references) == 2 and chains == [100, 100, 100]
        assert a.test_covariates.shape == (20, 2) and b.test_covariates.shape == (40, 2)
        np.testing.assert_array_equal(a.worker_samples, b.worker_samples)

    def test_byte_bound_evicts_the_least_recently_used(self, monkeypatch):
        runner.build_world(probit_config(seed=1), 0)
        entry = runner.chain_cache_bytes()
        monkeypatch.setattr(runner, "CHAIN_CACHE_BYTES", entry * 3 // 2)
        runner.build_world(probit_config(seed=2), 0)
        assert runner.chain_cache_bytes() == entry
        chains, references = count_chains(monkeypatch), record_references(monkeypatch)
        runner.build_world(probit_config(seed=2), 0)
        assert chains == [] and references == []
        runner.build_world(probit_config(seed=1), 0)
        assert len(chains) == 3 and len(references) == 1

    def test_minibatch_check_still_fires_on_a_hit(self, monkeypatch):
        runner.build_world(probit_config(), 0)
        chains = count_chains(monkeypatch)
        too_big = {"wvcmc-noma": {"eta": 1e-3, "t_m": 2, "n_b": 301}}  # same S = 30
        with pytest.raises(ValueError, match="n_b=301 exceeds the 300 training rows"):
            runner.build_world(probit_config(schemes=too_big), 0)
        assert chains == []

    def test_probit_snr_sweep_matches_cold_points(self, monkeypatch):
        cfg = probit_config(trials=2)
        values = [0.0, 10.0, float("inf")]
        chains, references = count_chains(monkeypatch), record_references(monkeypatch)
        swept = sweep(cfg, "snr", values)
        # each trial's reference and chains once
        assert len(chains) == cfg.trials * cfg.n_workers and len(references) == cfg.trials
        cold = []
        for value in values:
            runner._CHAINS.clear()
            cold.extend(run_experiment(apply_axis(cfg, "snr", value)))
        assert strip_timing(swept) == strip_timing(cold)

    def test_parallel_probit_sweep_matches_serial(self):
        # each point's pool processes build their own worlds; the rows are the serial ones
        cfg = probit_config(trials=2)
        values = [0.0, 20.0]
        parallel = sweep(cfg, "snr", values, parallel=2)
        runner._CHAINS.clear()
        assert strip_timing(parallel) == strip_timing(sweep(cfg, "snr", values))

    def test_block_count_sweep_computes_one_reference_per_trial(self, monkeypatch):
        cfg = probit_config(trials=2)
        chains, references = count_chains(monkeypatch), record_references(monkeypatch)
        sweep(cfg, "t", [30, 60])
        assert len(references) == cfg.trials
        assert len(chains) == 2 * cfg.trials * cfg.n_workers  # S changes the worker draws

    def test_reference_summarised_from_its_quadrature(self, monkeypatch):
        chains, references = count_chains(monkeypatch), record_references(monkeypatch)
        world = runner.build_world(probit_config(), 0)
        [(size, (nodes, weights, error))] = references
        assert size == 300 and chains == [100, 100, 100]  # no chain over the whole data set
        assert weights.sum() == pytest.approx(1.0) and 0.0 <= error < 1e-5
        np.testing.assert_array_equal(world.reference_moment, metrics.second_moment(nodes, weights))
        np.testing.assert_array_equal(
            world.reference_prediction,
            metrics.ensemble_predict(nodes, world.test_covariates, weights),
        )
        assert world.reference_error == error

    def test_reference_falls_back_to_its_gibbs_chain(self, monkeypatch):
        draws = []

        def recording(shard, n_samples, rng, **kw):
            draws.append(gibbs_probit_sampler(shard, n_samples, rng, **kw))
            return draws[-1]

        chains = count_chains(monkeypatch)
        monkeypatch.setattr(runner, "gibbs_probit_sampler", recording)
        references = record_references(monkeypatch)
        cfg = probit_config(**NEAR_SEPARABLE)
        world = runner.build_world(cfg, 0)
        assert references == [(100, None)]
        [reference] = draws  # the one-shard chain runs over the whole data set
        assert reference.shape == (1000, 5) and chains == [50, 50]  # then the workers'
        np.testing.assert_array_equal(world.reference_moment, metrics.second_moment(reference))
        np.testing.assert_array_equal(
            world.reference_prediction,
            metrics.ensemble_predict(reference, world.test_covariates),
        )
        assert world.reference_error is None
        assert {row["ref_err"] for row in run_experiment(cfg)} == {""}

    def test_schemes_cannot_write_to_the_world(self):
        world = runner.build_world(toy_config(), 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            world.n_data = 5
        with pytest.raises(ValueError, match="read-only"):
            world.worker_samples[0, 0, 0] = 1.0


class TestResultFiles:
    def test_append_only_schema_stable(self, tmp_path):
        cfg = toy_config(trials=1, schemes={"gcmc": {}})
        rows = run_experiment(cfg)
        out = tmp_path / "results.csv"
        write_rows(out, rows)
        write_rows(out, rows)
        with open(out) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0].startswith("scheme,snr_db,t,k,zeta,trial,err2,kl")
        assert len(lines) == 1 + 2 * len(rows)

    def test_manifest_contains_resolved_config(self, tmp_path):
        cfg = toy_config(trials=1, schemes={"gcmc": {}})
        out = tmp_path / "results.csv"
        write_manifest(out, cfg, extra={"rows_written": 3})
        [doc] = json.loads((tmp_path / "results.manifest.json").read_text())
        assert doc["master_seed"] == 11
        assert doc["config"]["scenario"] == "gaussian-toy"
        assert doc["rows_written"] == 3

    def test_manifest_records_the_code(self, tmp_path, monkeypatch):
        out = tmp_path / "results.csv"
        write_manifest(out, toy_config())
        [doc] = json.loads((tmp_path / "results.manifest.json").read_text())
        assert (doc["numpy"], doc["scipy"]) == (np.__version__, scipy.__version__)
        rev = doc["git_revision"]
        assert rev is None or (len(rev) == 40 and int(rev, 16) >= 0)

        # without git the revision is null and the run goes on
        def no_git(*args, **kwargs):
            raise FileNotFoundError("git")

        monkeypatch.setattr(results.subprocess, "run", no_git)
        write_manifest(out, toy_config())
        runs = json.loads((tmp_path / "results.manifest.json").read_text())
        assert runs[1]["git_revision"] is None

    def test_manifest_records_the_blas_and_its_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        write_manifest(tmp_path / "results.csv", toy_config())
        [doc] = json.loads((tmp_path / "results.manifest.json").read_text())
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert doc["blas"] == f"{blas['name']} {blas['version']}"
        assert doc["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": None,
            "MKL_NUM_THREADS": None,
        }

    @pytest.mark.parametrize("config", [toy_config(trials=1), probit_config()])
    def test_rows_have_the_result_columns_in_order(self, config):
        rows = run_experiment(config)
        assert rows and all(tuple(row) == results.COLUMNS for row in rows)
        # the reference's error: 0 for the toy's exact covariance, the
        # quadrature's step difference on probit
        ref_err = {row["ref_err"] for row in rows}
        if config.scenario == "gaussian-toy":
            assert ref_err == {0.0}
        else:
            [value] = ref_err
            assert isinstance(value, float) and 0.0 <= value < 1e-5
        # wvcmc's rejected step sizes, and "" on every scheme that takes no step
        for row in rows:
            if row["scheme"].startswith("wvcmc"):
                assert isinstance(row["halvings"], int) and row["halvings"] >= 0
            else:
                assert row["halvings"] == ""

    def test_wvcmc_rows_carry_the_runs_halvings(self, monkeypatch):
        run = runner.run_wvcmc
        halved = lambda *a, **k: dataclasses.replace(run(*a, **k), halvings=7)
        monkeypatch.setattr(runner, "run_wvcmc", halved)
        rows = run_experiment(toy_config(trials=1))
        assert [(row["scheme"], row["halvings"]) for row in rows] == [
            ("gcmc", ""), ("wgcmc-oma", ""), ("wvcmc-noma", 7)
        ]

    def test_report_reads_a_file_written_before_columns_were_appended(self, tmp_path):
        # the oldest readable file: the group columns and err2, no kl
        out = tmp_path / "old.csv"
        out.write_text("scheme,snr_db,t,k,zeta,err2\ngcmc,0,10,2,0,0.5\ngcmc,0,10,2,0,0.7\n")
        [entry] = results.summarize(results.load_rows(out))
        assert entry["n"] == 2 and entry["err2_mean"] == pytest.approx(0.6)
        assert "kl_mean" not in entry
        assert results.format_summary([entry]).splitlines()[0].split() == [
            *results.GROUP_COLUMNS, "n", "err2_mean", "err2_p5", "err2_p95"
        ]

    def test_report_orders_sweep_points_by_value(self, tmp_path):
        out = tmp_path / "results.csv"
        rows = run_experiment(toy_config(trials=1, schemes={"gcmc": {}}))
        write_rows(out, [dict(rows[0], snr_db=snr) for snr in (5.0, 10.0, 0.0)])
        summary = results.summarize(results.load_rows(out))
        assert [entry["snr_db"] for entry in summary] == ["0.0", "5.0", "10.0"]

    def test_report_summary(self, tmp_path):
        cfg = toy_config(trials=3, schemes={"gcmc": {}, "wgcmc-oma": {}})
        out = tmp_path / "results.csv"
        write_rows(out, run_experiment(cfg))
        summary = results.summarize(results.load_rows(out))
        assert {e["scheme"] for e in summary} == {"gcmc", "wgcmc-oma"}
        for entry in summary:
            assert entry["n"] == 3
            assert entry["err2_p5"] <= entry["err2_mean"] <= entry["err2_p95"]


class TestEndToEndScenarios:
    def test_probit_csv_scenario(self, tmp_path):
        # The CSV-backed scenario runs the full pipeline on ingested data,
        # including the held-out test split used for the prediction metric.
        ds = gen_probit_data(400, 3, [0.6, -0.4, 0.9], np.random.default_rng(8))
        path = tmp_path / "shardable.csv"
        export_csv(ds, path)
        cfg = parse_config(
            {
                "scenario": "probit-csv",
                "n_workers": 4,
                "t_blocks": 40,
                "snr_db": 20.0,
                "trials": 1,
                "seed": 17,
                "dim": 3,
                "csv": {"path": str(path), "label_column": "label", "n_test": 50},
                "reference": {"n_samples": 1500, "burn_in": 50},
                "schemes": {"gcmc": {}, "wgcmc-noma": {}},
            }
        )
        rows = run_experiment(cfg)
        assert len(rows) == 2
        for row in rows:
            assert np.isfinite(row["err2"])
            assert row["kl"] != "" and np.isfinite(row["kl"])

    def test_csv_covariate_count_must_match_dim(self, tmp_path, monkeypatch):
        # An 8-column CSV under the default dim=5 fails as soon as it loads,
        # before the reference chain runs.
        ds = gen_probit_data(200, 8, np.full(8, 0.3), np.random.default_rng(9))
        path = tmp_path / "wide.csv"
        export_csv(ds, path)
        chains = count_chains(monkeypatch)
        cfg = parse_config(
            {
                "scenario": "probit-csv",
                "n_workers": 2,
                "t_blocks": 20,
                "snr_db": 10.0,
                "trials": 1,
                "seed": 3,
                "csv": {"path": str(path)},
                "schemes": {"gcmc": {}},
            }
        )
        with pytest.raises(ValueError, match="8 covariates.*dim=5"):
            run_experiment(cfg)
        assert chains == []

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (  # SGLD's default minibatch of 500
                {"schemes": {"gcmc": {}, "sgld": {}}},
                "sgld: minibatch size n_b=500 exceeds the 300 training rows",
            ),
            (
                {"schemes": {"wvcmc-noma": {"eta": 1e-3, "t_m": 2, "n_b": 301}}},
                "wvcmc-noma: minibatch size n_b=301 exceeds the 300 training rows",
            ),
            (
                {"n_workers": 40, "t_blocks": 80, "data": {"n": 30, "theta_star": [0.5, -0.5]}},
                "cannot split 30 points across 40 workers",
            ),
            (
                {"n_workers": 10, "partition": {"rule": "heterogeneous", "zeta": 6.0}},
                r"workers \[.*\] received no data",
            ),
        ],
    )
    def test_data_that_cannot_serve_the_config_fails_before_any_chain(
        self, monkeypatch, overrides, message
    ):
        chains = count_chains(monkeypatch)
        with pytest.raises(ValueError, match=message):
            run_experiment(probit_config(**overrides))
        assert chains == []

    def test_reference_prediction_computed_once_per_trial(self, monkeypatch):
        # every scheme's KL compares against one prediction of the reference ensemble
        predict = metrics.ensemble_predict
        weighted = []

        def counting(samples, covariates, weights=None):
            weighted.append(weights is not None)
            return predict(samples, covariates, weights)

        monkeypatch.setattr(metrics, "ensemble_predict", counting)
        monkeypatch.setattr(runner, "ensemble_predict", counting, raising=False)
        cfg = parse_config(
            {
                "scenario": "probit-synthetic",
                "n_workers": 2,
                "t_blocks": 20,
                "snr_db": 10.0,
                "trials": 1,
                "seed": 8,
                "dim": 2,
                "data": {"n": 200, "theta_star": [0.5, -0.5], "n_test": 30},
                "reference": {"n_samples": 1000, "burn_in": 10},
                "schemes": {"gcmc": {}, "wgcmc-oma": {}, "wgcmc-noma": {}, "best-single": {}},
            }
        )
        rows = run_experiment(cfg)
        assert all(np.isfinite(row["kl"]) for row in rows)
        # the reference's weighted prediction over its quadrature nodes, then one per row
        assert weighted == [True] + [False] * len(rows)

    def test_worker_count_sweep(self):
        cfg = toy_config(trials=1, t_blocks=60, schemes={"wvcmc-noma": {"eta": 1e-2, "t_m": 5}})
        rows = sweep(cfg, "k", [2, 6])
        assert [r["k"] for r in rows] == [2, 6]
        assert all(np.isfinite(r["err2"]) for r in rows)

    def test_optimized_weights_beat_closed_form_on_toy(self):
        # Heterogeneous toy at 5 dB, matched seeds: the free-energy-optimized
        # weights improve on the channel-aware closed form.
        doc = {
            "scenario": "gaussian-toy",
            "n_workers": 10,
            "t_blocks": 2000,
            "snr_db": 5.0,
            "trials": 20,
            "seed": 31,
            "schemes": {
                "wgcmc-oma": {},
                "wvcmc-oma": {"eta": 5e-3, "t_m": 300},
            },
        }
        rows = run_experiment(parse_config(doc))
        means = {
            s: np.mean([r["err2"] for r in rows if r["scheme"] == s])
            for s in ("wgcmc-oma", "wvcmc-oma")
        }
        assert means["wvcmc-oma"] < means["wgcmc-oma"]


class TestCli:
    def test_gen_data_then_csv_run(self, tmp_path):
        cfg_path = tmp_path / "gen.json"
        data_path = tmp_path / "data.csv"
        cfg_path.write_text(
            json.dumps(
                {
                    "scenario": "probit-synthetic",
                    "n_workers": 2,
                    "t_blocks": 8,
                    "snr_db": 20.0,
                    "trials": 1,
                    "seed": 3,
                    "dim": 2,
                    "data": {"n": 300, "theta_star": [0.8, -0.4], "n_test": 0},
                    "schemes": {"gcmc": {}},
                }
            )
        )
        assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(data_path)]) == 0
        ds = ingest_csv(data_path, "label")
        assert ds.size == 300 and ds.dim == 2
        # gen-data runs no trials, so it takes no --parallel
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(
                ["gen-data", "--config", str(cfg_path), "--out", str(data_path), "--parallel", "2"]
            )

    def test_run_and_report(self, tmp_path):
        cfg_path = tmp_path / "toy.json"
        out_path = tmp_path / "rows.csv"
        cfg_path.write_text(
            json.dumps(
                {
                    "scenario": "gaussian-toy",
                    "n_workers": 3,
                    "t_blocks": 30,
                    "snr_db": 10.0,
                    "trials": 2,
                    "seed": 5,
                    "schemes": {"gcmc": {}},
                }
            )
        )
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out_path)]) == 0
        assert (tmp_path / "rows.manifest.json").exists()
        with open(out_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert cli.main(["report", "--out", str(out_path)]) == 0

    def test_sweep_cli(self, tmp_path):
        cfg_path = tmp_path / "toy.json"
        out_path = tmp_path / "sweep.csv"
        cfg_path.write_text(
            json.dumps(
                {
                    "scenario": "gaussian-toy",
                    "n_workers": 3,
                    "t_blocks": 30,
                    "snr_db": 10.0,
                    "trials": 1,
                    "seed": 5,
                    "schemes": {"wgcmc-oma": {}},
                }
            )
        )
        code = cli.main(
            [
                "sweep",
                "--config",
                str(cfg_path),
                "--axis",
                "snr",
                "--values",
                "0,10",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        with open(out_path) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["snr_db"] for r in rows} == {"0.0", "10.0"}
        [manifest] = json.loads((tmp_path / "sweep.manifest.json").read_text())
        assert manifest["sweep"] == {"axis": "snr", "values": [0.0, 10.0]}
        assert manifest["rows_written"] == 2

    @pytest.mark.parametrize(
        "values, message", [("0,abc", "'abc' is not a number"), (" , ", "must list at least one")]
    )
    def test_sweep_values_must_be_numbers(self, tmp_path, capsys, values, message):
        argv = ["sweep", "--config", "c.json", "--axis", "snr", "--values", values, "--out", "o"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2  # a usage error, before the config is read
        assert f"argument --values: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("parallel", ["0", "-4", "two"])
    def test_parallel_must_be_a_positive_count(self, capsys, parallel):
        argv = ["run", "--config", "c.json", "--out", "o.csv", "--parallel", parallel]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2  # a usage error, before the config is read
        assert "argument --parallel:" in capsys.readouterr().err

    def test_run_experiment_rejects_no_processes(self):
        with pytest.raises(ValueError, match="parallel must be at least 1, got 0"):
            run_experiment(toy_config(), parallel=0)

    @pytest.mark.parametrize(
        "doc, argv, message",
        [
            (None, ["run"], "cannot read config .*missing.json: No such file"),
            ({"channel": "identity"}, ["run"], r"unknown keys \['channel'\] in config"),
            ({}, ["sweep", "--axis", "snr", "--values", "0,nan"], "sweep axis snr must be a num"),
            ({}, ["sweep", "--axis", "snr", "--values=-inf"], "snr_db must be above -inf"),
            # --out is the one route to the output path
            ({"output": "o.csv"}, ["run"], r"unknown keys \['output'\] in config"),
            # data that cannot serve the config
            ({**CSV_DOC, "csv": {"path": "nope.csv"}}, ["run"], "csv.path nope.csv: No such file"),
            ({**CSV_DOC, "csv": {"path": "."}}, ["run"], r"csv.path \.: Is a directory"),
            ({**CSV_DOC, "dim": 5}, ["run"], "has 2 covariates but the config sets dim=5"),
            (
                {**CSV_DOC, "schemes": {"gcmc": {}, "sgld": {}}},  # SGLD's default n_b
                ["run"],
                "sgld: minibatch size n_b=500 exceeds the 200 training rows",
            ),
            (
                {**CSV_DOC, "csv": {"path": "data.csv", "n_test": 200}},
                ["run"],
                "csv.n_test=200 must leave at least one of the 200 rows",
            ),
            (
                {**CSV_DOC, "n_workers": 201, "t_blocks": 402},
                ["run"],
                "cannot split 200 points across 201 workers",
            ),
            (
                {**CSV_DOC, "n_workers": 10, "partition": {"rule": "heterogeneous", "zeta": 8.0}},
                ["run"],
                r"workers \[.*\] received no data",
            ),
            (
                {"scenario": "probit-synthetic", "data": {"theta_star": [0.5, -0.5]}},
                ["run"],
                "data.theta_star has 2 coefficients but the config sets dim=5",
            ),
            (
                {},
                ["sweep", "--axis", "zeta", "--values", "0.5,2"],
                "the gaussian-toy scenario has no data set to partition",
            ),
            # CSV content that cannot serve a run
            (
                {**CSV_DOC, "csv": {"path": "label3.csv"}},
                ["run"],
                "label3.csv line 2: label must be 0 or 1, got 3.0",
            ),
            ({**CSV_DOC, "csv": {"path": "fields.csv"}}, ["run"], "line 3: expected 3 fields, got 2"),
            ({**CSV_DOC, "csv": {"path": "header.csv"}}, ["run"], "header.csv: no data rows"),
            # gen-data writes no file for a theta_star that does not fit dim
            ({"dim": 3}, ["gen-data"], "data.theta_star has 5 coefficients but the config sets dim=3"),
            # a PCA dimension the CSV cannot give
            (
                {**CSV_DOC, "csv": {"path": "data.csv", "pca_dim": 5}},
                ["run"],
                "csv.pca_dim=5 exceeds the 2 covariate columns of data.csv",
            ),
            # a CSV that is not a result file, or a result cell that is not a number
            (
                None,
                ["report", "--out", "ab.csv"],
                r"cannot read results ab\.csv: not a result file, no columns \['scheme', ",
            ),
            (None, ["report", "--out", "err2.csv"], "err2.csv: line 3: err2 'abc' is not a number"),
            # worker chains take the sampler's burn-in, so no config sets one;
            # a setting the library would fail on mid-run
            ({**CSV_DOC, "gibbs_burn_in": 100}, ["run"], r"unknown keys \['gibbs_burn_in'\] in config"),
            ({"subposteriors": "bogus"}, ["run"], "unknown subposteriors 'bogus'"),
            # SGLD's minibatch, a covariance fit from one block per receiver, a negative seed
            (
                {**CSV_DOC, "schemes": {"gcmc": {}, "sgld": {"n_b": 0}}},
                ["run"],
                "minibatch size n_b must be positive, got 0",
            ),
            (
                {"schemes": {"wgcmc-noma": {}}},
                ["sweep", "--axis", "t", "--values", "30,1"],
                "wgcmc-noma fits a covariance and needs at least 2 blocks per receiver",
            ),
            ({}, ["run", "--seed", "-1"], "seed must be non-negative, got -1"),
            # the equal rule reads no zeta, which the rows would then misreport
            (
                {**CSV_DOC, "partition": {"zeta": 0.5}},
                ["run"],
                "partition.zeta=0.5 needs the heterogeneous rule",
            ),
        ],
    )
    def test_errors_end_in_one_line(self, tmp_path, capsys, monkeypatch, doc, argv, message):
        # a bad config or an unreadable file is one error line and status 2,
        # no traceback, no row, no data file and no Gibbs chain
        monkeypatch.chdir(tmp_path)
        export_csv(gen_probit_data(200, 2, [0.5, -0.5], np.random.default_rng(4)), "data.csv")
        (tmp_path / "label3.csv").write_text("x0,x1,label\n0.1,0.2,3\n")
        (tmp_path / "fields.csv").write_text("x0,x1,label\n0.1,0.2,1\n0.3,0\n")
        (tmp_path / "header.csv").write_text("x0,x1,label\n")
        (tmp_path / "ab.csv").write_text("a,b\n1,2\n")
        result = "scheme,snr_db,t,k,zeta,err2\ngcmc,0,10,2,0,0.5\n"
        (tmp_path / "err2.csv").write_text(result + "gcmc,0,10,2,0,abc\n")
        forbid_chains(monkeypatch)
        cfg_path = tmp_path / ("missing.json" if doc is None else "cfg.json")
        if doc is not None:
            base = {
                "scenario": "gaussian-toy",
                "n_workers": 3,
                "t_blocks": 30,
                "snr_db": 10.0,
                "trials": 1,
                "seed": 5,
                "schemes": {"gcmc": {}},
            }
            cfg_path.write_text(json.dumps({**base, **doc}))
        if argv[0] != "report":  # report reads --out and takes no config
            argv = argv + ["--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("wcmc: error: ") and err.count("\n") == 1
        assert re.search(message, err)
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "out, content, message",
        [
            ("data.csv", None, r"cannot append to data\.csv: its header is not scheme,snr_db,"),
            ("old.csv", "scheme,snr_db,t,k,zeta,err2\ngcmc,0,10,2,0,0.5\n", "its header is not"),
            ("empty.csv", "", r"cannot append to empty\.csv: its header is not"),
            ("latin1.csv", "scheme,\xe9\n".encode("latin-1"), "codec can't decode byte 0xe9"),
            ("folder", "dir", r"cannot read results folder: Is a directory$"),
            ("missing/o.csv", None, r"cannot write results missing/o\.csv: no such directory$"),
            ("data.csv/o.csv", None, "no such directory$"),
        ],
        ids=["data", "older-header", "empty", "not-utf8", "directory", "no-directory", "file-parent"],
    )
    @pytest.mark.parametrize("argv", [["run"], ["sweep", "--axis", "snr", "--values", "0,10"]])
    def test_out_that_cannot_take_the_rows_stops_the_run(
        self, tmp_path, capsys, monkeypatch, argv, out, content, message
    ):
        # before any chain: one error line, status 2, and every file left as it was
        monkeypatch.chdir(tmp_path)
        export_csv(gen_probit_data(200, 2, [0.5, -0.5], np.random.default_rng(4)), "data.csv")
        if content == "dir":
            (tmp_path / out).mkdir()
        elif isinstance(content, bytes):
            (tmp_path / out).write_bytes(content)
        elif content is not None:
            (tmp_path / out).write_text(content)
        manifest = tmp_path / results.manifest_path(out)
        if manifest.parent.is_dir():
            manifest.write_text('[{"master_seed": 1}]\n')
        base = {"n_workers": 3, "t_blocks": 30, "snr_db": 10.0, "trials": 1, "seed": 5}
        (tmp_path / "cfg.json").write_text(json.dumps({**base, **CSV_DOC, "schemes": {"gcmc": {}}}))
        forbid_chains(monkeypatch)
        tree = {p: p.is_dir() or p.read_bytes() for p in tmp_path.rglob("*")}
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--config", "cfg.json", "--out", out])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("wcmc: error: ") and err.count("\n") == 1
        assert re.search(message, err.rstrip("\n"))
        assert {p: p.is_dir() or p.read_bytes() for p in tmp_path.rglob("*")} == tree

    @pytest.mark.parametrize(
        "out, message", [("missing/d.csv", "No such file or directory"), (".", "Is a directory")]
    )
    def test_gen_data_write_error_is_one_line(self, tmp_path, capsys, monkeypatch, out, message):
        monkeypatch.chdir(tmp_path)
        doc = {"scenario": "probit-synthetic", "n_workers": 3, "t_blocks": 30, "snr_db": 10.0}
        doc.update(trials=1, seed=5, schemes={"gcmc": {}})
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen-data", "--config", "cfg.json", "--out", out])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"wcmc: error: cannot write data {out}: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize(
        "manifest, message",
        [
            ("{broken", "invalid JSON"),
            ("3", "is not a JSON list of runs (got int)"),
            ('"runs"', "is not a JSON list of runs (got str)"),
            # one run's record as a bare object, the format of an older version
            ('{"master_seed": 1}', "is not a JSON list of runs (got dict)"),
        ],
    )
    @pytest.mark.parametrize("argv", [["run"], ["sweep", "--axis", "snr", "--values", "0,10"]])
    def test_corrupt_manifest_stops_the_run(self, tmp_path, capsys, argv, manifest, message):
        # checked before the first trial: no row is appended and the manifest is left as it was
        cfg_path, out_path = tmp_path / "toy.json", tmp_path / "rows.csv"
        cfg_path.write_text(
            json.dumps(
                {
                    "scenario": "gaussian-toy",
                    "n_workers": 3,
                    "t_blocks": 30,
                    "snr_db": 10.0,
                    "trials": 1,
                    "seed": 5,
                    "schemes": {"gcmc": {}},
                }
            )
        )
        (tmp_path / "rows.manifest.json").write_text(manifest)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--config", str(cfg_path), "--out", str(out_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("wcmc: error: ") and err.count("\n") == 1
        assert "rows.manifest.json" in err and message in err
        assert not out_path.exists()
        assert (tmp_path / "rows.manifest.json").read_text() == manifest

    def test_unreadable_result_file_is_one_line(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["report", "--out", str(tmp_path / "none.csv")])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"wcmc: error: cannot read results {tmp_path / 'none.csv'}: No such file or directory\n"
        )

    def test_two_runs_keep_both_records(self, tmp_path):
        # the CSV gains both runs' rows, and the manifest one record per run, in row order
        cfg_path = tmp_path / "toy.json"
        out_path = tmp_path / "rows.csv"
        doc = {
            "scenario": "gaussian-toy",
            "n_workers": 3,
            "t_blocks": 30,
            "snr_db": 10.0,
            "trials": 2,
            "seed": 5,
            "schemes": {"gcmc": {}},
        }
        cfg_path.write_text(json.dumps(doc))
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out_path)]) == 0
        cfg_path.write_text(json.dumps(dict(doc, trials=3, snr_db=0.0)))
        argv = ["run", "--config", str(cfg_path), "--seed", "99", "--out", str(out_path)]
        assert cli.main(argv) == 0
        with open(out_path) as fh:
            rows = list(csv.DictReader(fh))
        runs = json.loads((tmp_path / "rows.manifest.json").read_text())
        assert [run["rows_written"] for run in runs] == [2, 3]
        assert [run["master_seed"] for run in runs] == [5, 99]
        assert [run["config"]["snr_db"] for run in runs] == [10.0, 0.0]
        assert [r["seed"] for r in rows] == ["5"] * 2 + ["99"] * 3

    def test_seed_override_changes_results(self, tmp_path):
        cfg_path = tmp_path / "toy.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "scenario": "gaussian-toy",
                    "n_workers": 3,
                    "t_blocks": 30,
                    "snr_db": 10.0,
                    "trials": 1,
                    "seed": 5,
                    "schemes": {"gcmc": {}},
                }
            )
        )
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        cli.main(["run", "--config", str(cfg_path), "--out", str(out_a)])
        cli.main(["run", "--config", str(cfg_path), "--seed", "99", "--out", str(out_b)])
        rows_a = results.load_rows(out_a)
        rows_b = results.load_rows(out_b)
        assert rows_a[0]["err2"] != rows_b[0]["err2"]


def test_runner_import_leaves_scipy_linalg_out():
    # a run's set-up imports the runner; nothing on that path needs scipy.linalg
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = "import sys, wcmc.harness.runner; print('scipy.linalg' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
