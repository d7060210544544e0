"""Run the benchmark in alternating parent/change pairs and write the paired record.

    python tools/bench_pairs.py --parent ../parent --change . --pairs 10 \\
        --seed-base 12000 --out BENCH_12.json --label "what the change does"

Each checkout runs its own ``BENCHMARK.json`` command (``benchmarks/run.py``,
unchanged) from its own root, with ``--trace 0``, for the change's
``run_seconds``, on the workloads the change declares unless ``--workloads``
names others.  Pair i runs seed ``seed_base + i`` on both sides, the parent
first in even pairs and the change first in odd pairs, with the workloads
interleaved within each pair, so a drift in machine load falls on both
sides alike.  The record holds, per workload and end-to-end metric, each
side's median, quartiles (inclusive method) and runs in pair order, the
operations each side attempted in all and per run in pair order (a metric
that grows with the rounds a run made, such as ``peak_rss_mb``, is read
beside them), the number of pairs the change won, the parent-over-change
median ratio and two verdicts: ``gain_shown``, true when the change won at
least nine tenths of the pairs and its median is below the parent's by more
than the parent's interquartile distance, and ``resolved``, false when that
distance exceeds the metric's bound in the change's ``BENCHMARK.json`` times
the parent's median, unless every change run reads better than every parent
run.  ``--trace-seed N`` adds traced rounds on seeds N, N+1 and N+2, each
side and workload once per seed, with the sides alternating as in the
pairs; the record holds each per-layer metric's median, quartiles and runs
per side, leaving out metrics that read zero in every traced run.
Progress goes to stderr; nothing is written but ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

SIDES = ("parent", "change")
METRICS = ("trial_s", "setup_s", "peak_rss_mb")  # all lower-is-better
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TRACED_ROUNDS = 3  # on seeds N, N+1, ...: enough for a median and quartiles per side


def pair_order(i: int) -> tuple[str, str]:
    """Which side runs first in pair i: the parent in even pairs, the change in odd ones."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def declared(checkout: Path) -> dict:
    """The checkout's ``BENCHMARK.json``."""
    return json.loads((checkout / "BENCHMARK.json").read_text())


def benchmark_command(checkout: Path) -> list[str]:
    """The checkout's declared benchmark command, run by this interpreter."""
    command = declared(checkout)["command"]
    return [sys.executable if command[0] in ("python", "python3") else command[0], *command[1:]]


def run_options(workload, seed, seconds: float, trace) -> list[str]:
    """The options the benchmark command gets for one run."""
    options = {"--workload": workload, "--seed": seed, "--seconds": f"{seconds:g}", "--trace": trace}
    return [str(x) for pair in options.items() for x in pair]


def command_line(checkouts: dict, seed, seconds: float, trace: int) -> str:
    """The declared command both sides ran, W standing for the workload; one
    entry per side when their ``BENCHMARK.json`` commands differ."""
    lines = {
        side: " ".join(declared(checkouts[side])["command"] + run_options("W", seed, seconds, trace))
        for side in SIDES
    }
    if lines["parent"] == lines["change"]:
        return lines["change"]
    return "; ".join(f"{side}: {line}" for side, line in lines.items())


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in ``checkout``: the JSON result it prints last."""
    argv = benchmark_command(checkout) + run_options(workload, seed, seconds, trace)
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(argv)} in {checkout} exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def run_pairs(checkouts: dict, workloads, pairs: int, seed_base: int, seconds: float) -> list[dict]:
    """Every run, in the order it ran: pair, seed, side, workload and result."""
    runs = []
    for i in range(pairs):
        for workload in workloads:
            for side in pair_order(i):
                seed = seed_base + i
                result = run_once(checkouts[side], workload, seed, seconds, 0)
                runs.append(
                    {"pair": i, "seed": seed, "side": side, "workload": workload, "result": result}
                )
                print(f"pair {i} {workload} {side}: {json.dumps(result['metrics'])}", file=sys.stderr)
    return runs


def side_summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    runs = [round(v, 4) for v in values]
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4), "runs": runs}


def verdict(parent: list[float], change: list[float], bound: float) -> dict:
    """The paired-run rules for one lower-is-better metric, runs in pair order.

    A gain is shown when the change wins at least nine tenths of the pairs,
    ties counting for neither side, and the medians differ by more than the
    parent's interquartile distance.  The metric is resolved when that
    distance is within ``bound`` relative to the parent's median, or when
    every change run reads better than every parent run.
    """
    q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    won = sum(c < p for p, c in zip(parent, change))
    return {
        "change_better_in_pairs": won,
        "gain_shown": won >= 0.9 * len(parent) and median - statistics.median(change) > q3 - q1,
        "resolved": (q3 - q1) <= bound * median or max(change) < min(parent),
    }


def summarize(runs: list[dict], workloads, bounds: dict) -> dict:
    """Per workload: correctness, operation counts and each metric's paired summary.

    ``runs`` come in the order ``run_pairs`` made them, so each side's are in
    pair order; ``bounds`` maps each metric to its relative regression bound.
    """
    out = {}
    for workload in workloads:
        mine = [r["result"] for r in runs if r["workload"] == workload]
        by_side = {
            side: [r["result"] for r in runs if r["workload"] == workload and r["side"] == side]
            for side in SIDES
        }
        entry = {
            "correct": all(r["correct"] for r in mine),
            "failed_operations": sum(r["failed"] for r in mine),
            "attempted_operations": {
                side: sum(r["attempted"] for r in by_side[side]) for side in SIDES
            },
            "attempted_per_run": {side: [r["attempted"] for r in by_side[side]] for side in SIDES},
        }
        for metric in METRICS:
            values = {
                side: [r["metrics"][metric]["value"] for r in by_side[side]] for side in SIDES
            }
            medians = {side: statistics.median(values[side]) for side in SIDES}
            entry[metric] = {
                **{side: side_summary(values[side]) for side in SIDES},
                "parent_median_over_change_median": round(medians["parent"] / medians["change"], 3),
                **verdict(values["parent"], values["change"], bounds[metric]),
            }
        entry["pairs"] = len(by_side["change"])
        out[workload] = entry
    return out


def traced_rounds(checkouts: dict, workloads, seed: int, seconds: float) -> dict:
    """``TRACED_ROUNDS`` traced rounds on seeds ``seed``, ``seed`` + 1, ..., ordered
    like the pairs: per workload and side, the summary of each per-layer metric
    that is non-zero in some traced run (a run without it counts as 0)."""
    values = {workload: {side: [] for side in SIDES} for workload in workloads}
    for i in range(TRACED_ROUNDS):
        for workload in workloads:
            for side in pair_order(i):
                metrics = run_once(checkouts[side], workload, seed + i, seconds, 1)["metrics"]
                values[workload][side].append({name: m["value"] for name, m in metrics.items()})
    out = {}
    for workload, sides in values.items():
        runs = [run for side_runs in sides.values() for run in side_runs]
        names = sorted({name for run in runs for name, value in run.items() if value})
        out[workload] = {
            side: {name: side_summary([run.get(name, 0.0) for run in side_runs]) for name in names}
            for side, side_runs in sides.items()
        }
    return out


def machine() -> str:
    """CPUs, Python, numpy and scipy, the BLAS numpy was built against and the
    BLAS thread variables, which the benchmark runs inherit."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ", ".join(f"{name}={os.environ.get(name, 'unset')}" for name in THREAD_VARIABLES)
    return (
        f"{os.cpu_count()}-CPU {platform.machine()}, Python {platform.python_version()}, "
        f"numpy {np.__version__}, scipy {scipy.__version__}, "
        f"BLAS {blas.get('name')} {blas.get('version')}, {threads}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument(
        "--workloads", help="comma-separated; default: those BENCHMARK.json declares"
    )
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--label", default="", help="one line on what the change does")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = declared(checkouts["change"])
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w]
    else:
        workloads = [w["name"] for w in bench["workloads"]]

    runs = run_pairs(checkouts, workloads, args.pairs, args.seed_base, seconds)
    record = {
        "change": args.label,
        "command": command_line(checkouts, "S", seconds, 0),
        "method": (
            f"{args.pairs} pairs per workload; pair i runs seed {args.seed_base}+i on both "
            "sides, the parent first in even pairs and the change first in odd pairs, "
            "workloads interleaved within each pair. Each side ran its own checkout's "
            "benchmark command. Times are reference seconds (speed-probe scaled). Medians "
            "and quartiles (inclusive method) over each side's runs; 'runs' and "
            "'attempted_per_run' list them in pair order. gain_shown: the change won at "
            "least 9/10 of the pairs and the medians differ by more than the parent's "
            "q3 - q1. resolved: false when the parent's q3 - q1 exceeds the metric's "
            "BENCHMARK.json bound times its median, unless every change run beats every "
            "parent run. Written by tools/bench_pairs.py."
        ),
        "machine": machine(),
        "workloads": summarize(runs, workloads, bounds),
    }
    if args.trace_seed is not None:
        seeds = list(range(args.trace_seed, args.trace_seed + TRACED_ROUNDS))
        record["traced_rounds"] = {
            "command": command_line(checkouts, "S", seconds, 1),
            "seeds": seeds,
            "note": f"round i runs seed {args.trace_seed}+i on both sides, in the pairs' "
            "side order; span times are wall seconds, runner.trial_s is reference "
            "seconds; per side, the median, quartiles (inclusive method) and runs in "
            "round order of each metric, leaving out metrics zero in every run",
            **traced_rounds(checkouts, workloads, args.trace_seed, seconds),
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
