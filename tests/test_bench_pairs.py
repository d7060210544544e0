"""The paired-benchmark script, driven by a stub benchmark command in two fake checkouts."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

# Logs its checkout, workload, seed and trace flag, then prints a result line
# whose trial_s is the seed's last digit plus 10 on the parent and plus 5 on
# the change, except that the change loses pair 3.  A traced run reports
# wvcmc.run_s as the seed's last digit plus 2 on the parent and plus 1 on the
# change, wvcmc.grad_s as 0, and channel.transmit_s only on seed 2.
STUB = """\
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
side = Path.cwd().name
with open(Path.cwd().parent / "calls.log", "a") as fh:
    fh.write(f"{side} {args['--workload']} {args['--seed']} {args['--trace']}\\n")
seed = int(args["--seed"])
trial = seed % 10 + (10.0 if side == "parent" else 5.0) + (20.0 if side == "change" and seed % 10 == 3 else 0.0)
metrics = {
    "trial_s": {"value": trial, "unit": "s"},
    "setup_s": {"value": 0.3, "unit": "s"},
    "peak_rss_mb": {"value": 60.0 if side == "parent" else 50.0, "unit": "MB"},
}
if args["--trace"] == "1":
    metrics = {
        "wvcmc.run_s": {"value": seed % 10 + (2.0 if side == "parent" else 1.0), "unit": "s"},
        "wvcmc.grad_s": {"value": 0.0, "unit": "s"},
    }
    if seed % 10 == 2:
        metrics["channel.transmit_s"] = {"value": 0.5, "unit": "s"}
print("a line the script must skip")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}))
"""


BOUNDS = (0.1, 0.25, 0.05)  # trial_s, setup_s, peak_rss_mb


@pytest.fixture
def checkouts(tmp_path):
    out = {}
    for side in bench_pairs.SIDES:
        root = tmp_path / side
        root.mkdir()
        (root / "stub.py").write_text(STUB)
        bench = {
            "command": ["python3", "stub.py"],
            "run_seconds": 2,
            "workloads": [{"name": "toy-snr"}],
            "end_to_end": [{"name": m, "bound": b} for m, b in zip(bench_pairs.METRICS, BOUNDS)],
        }
        (root / "BENCHMARK.json").write_text(json.dumps(bench))
        out[side] = root
    return out


def test_pairs_alternate_and_interleave(checkouts, tmp_path):
    runs = bench_pairs.run_pairs(checkouts, ["toy-snr", "probit-sweep"], 3, 100, 1.0)
    calls = (tmp_path / "calls.log").read_text().splitlines()
    assert calls == [
        "parent toy-snr 100 0", "change toy-snr 100 0", "parent probit-sweep 100 0", "change probit-sweep 100 0",
        "change toy-snr 101 0", "parent toy-snr 101 0", "change probit-sweep 101 0", "parent probit-sweep 101 0",
        "parent toy-snr 102 0", "change toy-snr 102 0", "parent probit-sweep 102 0", "change probit-sweep 102 0",
    ]
    assert [f"{r['side']} {r['workload']} {r['seed']} 0" for r in runs] == calls


def test_summary_medians_quartiles_and_wins(checkouts):
    runs = bench_pairs.run_pairs(checkouts, ["toy-snr"], 5, 0, 1.0)
    bounds = dict(zip(bench_pairs.METRICS, BOUNDS))
    entry = bench_pairs.summarize(runs, ["toy-snr"], bounds)["toy-snr"]
    trial = entry["trial_s"]
    assert trial["parent"] == {"median": 12.0, "q1": 11.0, "q3": 13.0, "runs": [10.0, 11.0, 12.0, 13.0, 14.0]}
    assert trial["change"]["runs"] == [5.0, 6.0, 7.0, 28.0, 9.0]
    assert trial["change"]["median"] == 7.0
    assert trial["change_better_in_pairs"] == 4  # pair 3 goes to the parent
    assert trial["parent_median_over_change_median"] == round(12.0 / 7.0, 3)
    assert entry["setup_s"]["change_better_in_pairs"] == 0  # a tie is no win
    assert entry["peak_rss_mb"]["parent_median_over_change_median"] == 1.2
    # 4 of 5 pairs is below nine tenths, and the parent's q3 - q1 of 2 is
    # 17 % of its median, past trial_s's 10 % bound; the memory gain is 5 of 5
    # pairs, by 10 MB against a q3 - q1 of 0
    assert not trial["gain_shown"] and not trial["resolved"]
    assert entry["peak_rss_mb"]["gain_shown"] and entry["peak_rss_mb"]["resolved"]
    assert not entry["setup_s"]["gain_shown"] and entry["setup_s"]["resolved"]
    assert entry["correct"] and entry["failed_operations"] == 0 and entry["pairs"] == 5
    assert entry["attempted_operations"] == {"parent": 15, "change": 15}


def test_main_writes_the_record(checkouts, tmp_path):
    out = tmp_path / "BENCH_X.json"
    bench = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    bench["end_to_end"][0]["bound"] = 0.01
    (checkouts["parent"] / "BENCHMARK.json").write_text(json.dumps(bench))
    # the workloads and the run length come from the change's BENCHMARK.json
    argv = ["--parent", str(checkouts["parent"]), "--change", str(checkouts["change"]),
            "--pairs", "2", "--seed-base", "2", "--trace-seed", "1", "--label", "stub", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    record = json.loads(out.read_text())
    assert record["change"] == "stub"
    assert record["command"] == "python3 stub.py --workload W --seed S --seconds 2 --trace 0"
    assert set(record["workloads"]["toy-snr"]) == {
        "correct", "failed_operations", "attempted_operations", "attempted_per_run",
        "trial_s", "setup_s", "peak_rss_mb", "pairs",
    }
    # the bound is the change's: the parent's trial_s runs 12 and 13 spread
    # 4 % of their median, within the change's 10 % and past the parent's 1 %,
    # and the change's 28 in pair 1 is no better than either
    assert record["workloads"]["toy-snr"]["trial_s"]["resolved"]
    # three traced rounds on seeds 1, 2 and 3, the sides alternating as in the pairs
    traced = record["traced_rounds"]
    assert traced["command"] == "python3 stub.py --workload W --seed S --seconds 2 --trace 1"
    assert traced["seeds"] == [1, 2, 3]
    assert (tmp_path / "calls.log").read_text().splitlines()[-6:] == [
        "parent toy-snr 1 1", "change toy-snr 1 1",
        "change toy-snr 2 1", "parent toy-snr 2 1",
        "parent toy-snr 3 1", "change toy-snr 3 1",
    ]
    # per side, each metric's median and quartiles over the rounds; a metric that
    # is zero in every run is left out, and one missing from a run counts as 0 there
    assert traced["toy-snr"]["parent"]["wvcmc.run_s"] == {"median": 4.0, "q1": 3.5, "q3": 4.5, "runs": [3.0, 4.0, 5.0]}
    assert traced["toy-snr"]["change"]["wvcmc.run_s"] == {"median": 3.0, "q1": 2.5, "q3": 3.5, "runs": [2.0, 3.0, 4.0]}
    assert traced["toy-snr"]["change"]["channel.transmit_s"]["runs"] == [0.0, 0.5, 0.0]
    assert set(traced["toy-snr"]["parent"]) == {"wvcmc.run_s", "channel.transmit_s"}


def test_each_runs_attempted_count_in_pair_order(checkouts):
    # the parent's runs attempt the seed's count of operations, the change's ten more
    for side, extra in (("parent", ""), ("change", " + 10")):
        stub = STUB.replace('"attempted": 3', f'"attempted": seed{extra}')
        (checkouts[side] / "stub.py").write_text(stub)
    runs = bench_pairs.run_pairs(checkouts, ["toy-snr"], 4, 20, 1.0)
    entry = bench_pairs.summarize(runs, ["toy-snr"], dict(zip(bench_pairs.METRICS, BOUNDS)))["toy-snr"]
    assert entry["attempted_per_run"] == {"parent": [20, 21, 22, 23], "change": [30, 31, 32, 33]}
    assert entry["attempted_operations"] == {"parent": 86, "change": 126}


@pytest.mark.parametrize(
    "change, shown",
    [
        ([5.0] * 9 + [20.0], True),  # 9 of 10 pairs
        ([5.0] * 8 + [20.0] * 2, False),  # 8 of 10
        ([5.0] * 8 + [13.0, 13.0], False),  # 8 wins and 2 ties: a tie counts for neither
        ([11.9] * 10, False),  # 10 of 10, but 0.6 below a median whose q3 - q1 is 1
    ],
)
def test_gain_needs_nine_tenths_of_pairs_and_a_gap_past_the_parent_spread(change, shown):
    parent = [12.0, 12.0, 12.0, 12.5, 12.5, 12.5, 13.0, 13.0, 13.0, 13.0]  # q1 12, q3 13
    assert bench_pairs.verdict(parent, change, 0.25)["gain_shown"] is shown


@pytest.mark.parametrize(
    "change, bound, resolved",
    [
        ([91.0, 95.0, 90.0, 94.0], 0.05, False),  # parent q3 - q1 6 % of its median
        ([91.0, 95.0, 90.0, 94.0], 0.07, True),
        ([80.0, 85.0, 84.0, 86.0], 0.05, True),  # every change run below every parent run
    ],
)
def test_a_spread_past_the_bound_is_unresolved(change, bound, resolved):
    parent = [89.0, 95.0, 90.0, 97.0]  # q1 89.75, median 92.5, q3 95.5
    verdict = bench_pairs.verdict(parent, change, bound)
    assert verdict["resolved"] is resolved
    assert verdict["change_better_in_pairs"] == sum(c < p for p, c in zip(parent, change))


def test_command_names_each_side_when_they_differ(checkouts):
    bench = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    (checkouts["parent"] / "BENCHMARK.json").write_text(json.dumps({**bench, "command": ["python", "stub.py"]}))
    assert bench_pairs.command_line(checkouts, "S", 2, 0) == (
        "parent: python stub.py --workload W --seed S --seconds 2 --trace 0; "
        "change: python3 stub.py --workload W --seed S --seconds 2 --trace 0"
    )


def test_failed_run_stops_with_its_stderr(checkouts):
    (checkouts["change"] / "stub.py").write_text("import sys\nsys.exit('benchmark broke')\n")
    with pytest.raises(RuntimeError, match="benchmark broke"):
        bench_pairs.run_pairs(checkouts, ["toy-snr"], 2, 0, 1.0)


def test_machine_names_the_blas_and_its_thread_variables(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    blas = bench_pairs.np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert bench_pairs.machine().endswith(
        f"BLAS {blas['name']} {blas['version']}, "
        "OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=unset, MKL_NUM_THREADS=unset"
    )
