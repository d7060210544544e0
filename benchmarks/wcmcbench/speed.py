"""Timing at a reference machine speed, for a machine shared with other load.

Other tenants' load slows a shared host's cores in bursts of seconds to
minutes: one toy-snr pass on fixed inputs took 0.36-0.88 s within a
minute, and process CPU time slows with wall time, so neither clock repeats.  ``SpeedProbe`` times a fixed
kernel next to the work instead and scales the work by how slow the kernel
ran.  While the work runs, a ``SIGALRM`` handler runs the kernel every
``PERIOD`` seconds, on the same core at the same moments; the kernel also
runs right before and right after the work.  Each stretch of work between
two kernel runs counts ``REFERENCE_S / mean(two kernel times)`` times its
wall time, and the kernel's own time is left out.  The result is the
work's time at the speed at which the kernel takes ``REFERENCE_S``.

The kernel uses numpy and scipy only, never the library, so a change to the
library moves the work and not the kernel.  It mixes what the workloads
spend their time on: a Python loop of small dense linear algebra (the
wvcmc loop) and vector ``ndtr``/``ndtri``/``exp`` over 8 500 rows (a Gibbs
sweep).
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy import special

# Seconds between kernel runs while the work runs.  One kernel run takes
# 9-20 ms here, so the probe adds about 5 % to the wall time of a run and
# nothing to the reported times.
PERIOD = 0.25

# The kernel's time on an unloaded stretch of the reference machine (a
# 2-vCPU Intel Xeon guest, see README.md): the fastest of 400 runs.
REFERENCE_S = 0.009

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((10, 10))
_SOLVE = _rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
_ROWS = _rng.standard_normal((8500, 5))
_UNIFORM = _rng.uniform(0.01, 0.99, 8500)
_THETA = _rng.standard_normal(5)


def kernel() -> float:
    """The fixed unit of work whose time measures the machine's speed."""
    total = 0.0
    for _ in range(200):
        singular = np.linalg.svd(_SMALL, compute_uv=False)
        x = np.linalg.solve(_SOLVE, singular[:5])
        total += float(x @ x)
    for _ in range(12):
        mean = _ROWS @ _THETA
        z = special.ndtri(_UNIFORM * special.ndtr(mean)) + mean
        total += float(z @ z) + float(np.exp(-0.5 * mean * mean).sum())
    return total


class SpeedProbe:
    """Times calls at the reference speed; see the module docstring."""

    def __init__(self):
        self._runs: list[tuple[float, float]] = []  # (start, end) of each kernel run
        self._busy = False
        self._kernel_s = 0.0  # time spent in all kernel runs so far
        self.kernel_times: list[float] = []  # every kernel run's seconds, for the report
        kernel()  # first calls load and warm what the kernel uses

    def clock(self) -> float:
        """``time.perf_counter`` with the kernel runs cut out, for spans inside measured work."""
        return time.perf_counter() - self._kernel_s

    def _run_kernel(self, *_signal_args) -> None:
        if self._busy:  # a tick that arrives while the kernel runs is dropped
            return
        self._busy = True
        try:
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            self._runs.append((start, end))
            self._kernel_s += end - start
            self.kernel_times.append(end - start)
        finally:
            self._busy = False

    def measure(self, fn, sample: bool = True):
        """Call ``fn()``; return (its result, wall seconds, reference seconds).

        Wall seconds leave out the kernel runs.  With ``sample`` False the
        kernel runs only before and after the call, for work that waits on
        another process, which the kernel must not run beside.
        """
        self._runs = []
        self._run_kernel()
        if sample:
            previous = signal.signal(signal.SIGALRM, self._run_kernel)
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        start = time.perf_counter()
        try:
            out = fn()
        finally:
            end = time.perf_counter()
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
                signal.signal(signal.SIGALRM, previous)
        self._run_kernel()
        before, *inside, after = self._runs
        runs = [before] + [run for run in inside if start <= run[0] < end] + [after]
        wall = reference = 0.0
        for (s0, e0), (s1, e1) in zip(runs, runs[1:]):
            stretch = max(min(s1, end) - max(e0, start), 0.0)
            wall += stretch
            reference += stretch * REFERENCE_S / (0.5 * ((e0 - s0) + (e1 - s1)))
        return out, wall, reference
