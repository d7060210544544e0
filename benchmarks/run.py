"""Benchmark of the wcmc experiment runner.

    python3 benchmarks/run.py --workload toy-snr --seed 1 --seconds 15 --trace 0

Runs whole rounds of one workload (``wcmcbench/workloads.py``) through the
public runner API until ``--seconds`` have passed, checks every output
against references computed without the library, and prints one JSON line
last: the end-to-end metrics with ``--trace 0``, the per-layer metrics of
traced rounds with ``--trace 1``.  Times are taken next to a speed probe
and reported in reference seconds (``wcmcbench/speed.py``).  Run it from
the repository root; the library is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from wcmcbench.checks import RoundRecord, check_round, check_run
from wcmcbench.layers import COUNTS, PER_LAYER, SPAN_SELF, SPAN_TOTALS
from wcmcbench.speed import REFERENCE_S, SpeedProbe
from wcmcbench.trace import Observer, Patches, Tracer, wcmc_modules
from wcmcbench.workloads import WORKLOADS, round_seed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Fresh processes timed for setup_s: one before the measured rounds, one
# after each round until there are this many, the rest after the last
# round.  Their median is reported.
SETUP_PROCESSES = 8

# What a user's process does before its first trial: start the interpreter,
# import the library and parse the experiment configs.
SETUP_CHILD = """\
import json, sys
from wcmc.harness import config, runner
for doc in json.loads(sys.argv[1]):
    config.parse_config(doc)
print("ready", flush=True)
"""


def measure_setup(docs: list[dict], count: int, probe: SpeedProbe) -> list[float]:
    """Reference seconds from starting a fresh interpreter until it is ready for its first trial."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    times = []
    for _ in range(count):
        proc = None

        def start_and_wait_ready():
            nonlocal proc
            proc = subprocess.Popen(
                [sys.executable, "-c", SETUP_CHILD, json.dumps(docs)],
                cwd=HERE.parent,
                env=env,
                stdout=subprocess.PIPE,
                text=True,
            )
            return proc.stdout.readline()

        try:
            line, _, elapsed = probe.measure(start_and_wait_ready, sample=False)
            proc.stdout.close()
        finally:
            code = proc.wait(timeout=60) if proc is not None else None
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup process exited with code {code} before it was ready")
        times.append(elapsed)
    return times


def run_round(workload, seed: int, config, modules, probe: SpeedProbe, traced: bool):
    """One trial of every config in the workload: (record, reference seconds, tracer or None).

    Spans of a traced round are wall seconds with the probe's kernel runs cut out.
    """
    jobs = workload.jobs(seed)
    observer = Observer()
    tracer = Tracer(probe.clock) if traced else None
    record = RoundRecord(seed=seed, jobs=jobs, rows=[], events=observer.events)

    def body():
        try:
            for job in jobs:
                span = tracer.open("runner.experiment") if tracer else None
                try:
                    record.rows.append(job.run(config, modules[0]))
                finally:
                    if tracer:
                        tracer.close(span)
        except Exception:  # a round that raises counts all its operations as failed
            record.error = traceback.format_exc()

    with Patches() as patches:
        observer.install(patches, modules)
        if tracer:
            tracer.install(patches, modules)
        _, _, elapsed = probe.measure(body)
    return record, elapsed, tracer


def layer_values(record, tracer, trial_s: float) -> dict:
    """Per-layer metrics of one traced round, as sums over the round."""
    total, own = tracer.totals()
    out = {"runner.trial_s": trial_s}
    out.update({metric: total.get(span, 0.0) for metric, span in SPAN_TOTALS.items()})
    out.update({metric: own.get(span, 0.0) for metric, span in SPAN_SELF.items()})
    out.update({metric: float(tracer.counts.get(metric, 0)) for metric in COUNTS})
    for rows in record.rows:
        for row in rows:
            key = f"runner.scheme.{row['scheme']}_s"
            out[key] = out.get(key, 0.0) + row["wall_ms"] / 1000.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, str(SRC))
    try:
        import wcmc
        from wcmc.harness import config
    except ImportError as exc:
        print(f"cannot import the wcmc library from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(wcmc.__file__).resolve().parent.parent != SRC:
        print(f"wcmc was imported from {wcmc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    modules = wcmc_modules()
    probe = SpeedProbe()

    setup_docs = [job.doc for job in workload.jobs(round_seed(args.seed, 0))]
    setup_wanted = 0 if args.trace else SETUP_PROCESSES
    setup_times = measure_setup(setup_docs, min(1, setup_wanted), probe)

    records, trial_s, layers = [], [], []
    start = time.perf_counter()
    while len(records) < workload.min_rounds or time.perf_counter() - start < args.seconds:
        seed = round_seed(args.seed, len(records))
        record, elapsed, tracer = run_round(workload, seed, config, modules, probe, bool(args.trace))
        records.append(record)
        if record.error is None:
            trial_s.append(elapsed / sum(job.passes for job in record.jobs))
            if args.trace:
                layers.append(layer_values(record, tracer, trial_s[-1]))
        if len(setup_times) < setup_wanted:
            setup_times += measure_setup(setup_docs, 1, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_times += measure_setup(setup_docs, setup_wanted - len(setup_times), probe)

    # A round that raised counts all its operations as failed, an output
    # that fails a check counts as one; either makes the run not correct.
    attempted = failed = 0
    wrong = False
    results = []
    for record in records:
        attempted += record.operations
        if record.error is not None:
            failed += record.operations
            wrong = True
            print(f"round seed {record.seed} raised:\n{record.error}", file=sys.stderr)
            continue
        results += check_round(workload, record)
    check_run(results)
    err2 = defaultdict(list)
    for _, row, fails in results:
        err2[(row["scheme"], row["snr_db"])].append(row["err2"])
        if fails:
            failed += 1
            wrong = True
        for reason in fails:
            print(f"FAIL {row['scheme']} at {row['snr_db']} dB, seed {row['seed']}: {reason}", file=sys.stderr)
    for (scheme, snr), values in sorted(err2.items()):
        print(f"{workload.name} {scheme:<12} {snr:5.1f} dB  err2 {statistics.mean(values):.4f}  ({len(values)} trials)")
    print(f"{workload.name}: {len(records)} rounds, {attempted} operations, {failed} failed")
    print("reference seconds per pass, by round: " + " ".join(f"{t:.4f}" for t in trial_s))
    print("reference seconds per set-up process: " + " ".join(f"{t:.4f}" for t in setup_times))
    kernel_ms = sorted(1000.0 * t for t in probe.kernel_times)
    print(
        f"speed probe: {len(kernel_ms)} kernel runs, median {statistics.median(kernel_ms):.2f} ms, "
        f"fastest {kernel_ms[0]:.2f} ms, slowest {kernel_ms[-1]:.2f} ms (reference {1000.0 * REFERENCE_S:.2f} ms)"
    )
    if not trial_s:
        print("no round completed", file=sys.stderr)
        return 1

    # Times are reference seconds (wcmcbench/speed.py), which repeat under
    # other tenants' load, so medians over the run are reported.  The
    # per-layer metrics are those of the round with the median trial_s.
    if args.trace:
        middle = sorted(range(len(trial_s)), key=trial_s.__getitem__)[(len(trial_s) - 1) // 2]
        result = {name: {"value": layers[middle].get(name, 0.0), "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        result = {
            "trial_s": {"value": statistics.median(trial_s), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
