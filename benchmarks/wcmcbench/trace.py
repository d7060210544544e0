"""Observation of the library from outside: attribute patches, spans, counts.

The library is never edited.  A patch replaces a public function with a
wrapper in every ``wcmc`` module that holds it, so calls made through a
module's own global name (``runner.gibbs_probit_sampler`` as well as
``posteriors.gibbs_probit_sampler``) go through the wrapper, and the
original binding is restored when the patch set closes.

``Observer`` records the few values the correctness checks need and runs in
every round.  ``Tracer`` times spans around calls into each layer and runs
only in traced rounds.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter, defaultdict

import numpy as np


def wcmc_modules():
    from wcmc import aggregators, baselines, channel, metrics, posteriors, wvcmc
    from wcmc.harness import data, runner

    return (runner, data, posteriors, channel, aggregators, wvcmc, baselines, metrics)


class Patches:
    """Attribute replacements that are undone when the with-block ends."""

    def __init__(self):
        self._saved = []

    def wrap(self, attr: str, make_wrapper, modules) -> bool:
        """Wrap the function ``attr`` wherever one of ``modules`` binds it.

        Each distinct function object gets one wrapper, shared by every
        module that binds it.  Returns False when no module binds ``attr``.
        """
        holders = [m for m in modules if callable(getattr(m, attr, None))]
        if not holders:
            return False
        originals = {id(getattr(m, attr)): getattr(m, attr) for m in holders}
        wrappers = {key: make_wrapper(fn) for key, fn in originals.items()}
        for m in holders:
            self._saved.append((m, attr, getattr(m, attr)))
            setattr(m, attr, wrappers[id(getattr(m, attr))])
        return True

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()
        return False


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Observer:
    """Values the checks need from inside a round.

    ``events`` is in call order: ("data", covariates, labels) for each
    generated probit data set, and ("err2", record) for each
    ``second_order_error`` call, with the produced samples' count, finiteness
    and second moment, the reference moment and the result.
    """

    def __init__(self):
        self.events: list[tuple] = []

    def install(self, patches: Patches, modules) -> None:
        events = self.events

        def on_err2(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                x = np.asarray(_arg(args, kwargs, 0, "samples"), dtype=float)
                ref = np.array(_arg(args, kwargs, 1, "reference_moment"), dtype=float)
                events.append(
                    (
                        "err2",
                        {
                            "n": x.shape[0],
                            "finite": bool(np.isfinite(x).all()),
                            "moment": x.T @ x / x.shape[0],
                            "reference": ref,
                            "value": float(getattr(out, "error", out)),
                        },
                    )
                )
                return out

            return wrapper

        def on_data(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                events.append(("data", np.array(out.covariates), np.array(out.labels)))
                return out

            return wrapper

        for attr, make in (("second_order_error", on_err2), ("gen_probit_data", on_data)):
            if not patches.wrap(attr, make, modules):
                raise AttributeError(f"no wcmc module defines {attr!r}")


class Tracer:
    """Spans kept in memory as [name, start, end, parent] plus named counts.

    ``clock`` gives the span times: ``SpeedProbe.clock``, which leaves out
    the probe's kernel runs.
    """

    def __init__(self, clock):
        self._clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._n_data = None  # size of the last generated data set

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self._clock(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = self._clock()
        self._open.pop()

    def call(self, name: str, fn, args, kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def totals(self) -> tuple[dict, dict]:
        """Per span name: summed duration and summed self time (duration minus children)."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, own = defaultdict(float), defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
        return total, own

    def install(self, patches: Patches, modules) -> None:
        """Spans around the public functions of every layer a trial calls.

        A function the library no longer has is skipped, and its metrics read 0.
        """
        counts = self.counts

        def timed(name, count=None):
            def make(fn):
                @functools.wraps(fn)
                def wrapper(*args, **kwargs):
                    out = self.call(name, fn, args, kwargs)
                    if count is not None:
                        count(args, kwargs, out)
                    return out

                return wrapper

            return make

        def remember_size(args, kwargs, out):
            self._n_data = out.size

        def gibbs(fn):
            default_burn_in = inspect.signature(fn).parameters["burn_in"].default

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                # the reference chain is the one over the whole data set
                shard = _arg(args, kwargs, 0, "shard")
                kind = "reference" if shard.size == self._n_data else "worker"
                burn_in = _arg(args, kwargs, 3, "burn_in", default_burn_in)
                sweeps = _arg(args, kwargs, 1, "n_samples") + burn_in
                counts[f"posteriors.{kind}_chains"] += 1
                counts[f"posteriors.{kind}_sweeps"] += sweeps
                return self.call(f"posteriors.{kind}", fn, args, kwargs)

            return wrapper

        def callback(name, rows_of):
            # factories return closures (thetas, idx=None); wrap the closure
            def make(factory):
                @functools.wraps(factory)
                def build(*args, **kwargs):
                    inner = factory(*args, **kwargs)
                    n_rows = rows_of(args, kwargs)

                    def wrapped(thetas, idx=None):
                        out = self.call(name, inner, (thetas, idx), {})
                        batch = n_rows if idx is None else len(idx)
                        counts[f"{name}_points"] += np.atleast_2d(thetas).shape[0] * batch
                        return out

                    return wrapped

                return build

            return make

        def data_rows(args, kwargs):
            return len(_arg(args, kwargs, 0, "covariates"))

        def one_row(args, kwargs):
            return 1

        def draws(args, kwargs, out):
            counts["posteriors.truncnorm_draws"] += np.size(out)

        def grad_call(args, kwargs, out):
            counts["wvcmc.iterations"] += 1

        def sgld_iterations(args, kwargs, out):
            counts["baselines.sgld_iterations"] += _arg(args, kwargs, 1, "schedule").n_iterations

        def kl_points(args, kwargs, out):
            ref = _arg(args, kwargs, 1, "reference_samples")
            test = np.atleast_2d(_arg(args, kwargs, 2, "test_covariates"))
            counts["metrics.kl_points"] += len(ref) * len(test)

        plan = {
            "gen_probit_data": timed("data.generate", remember_size),
            "gen_gaussian_scenario": timed("data.generate"),
            "partition": timed("data.partition"),
            "gibbs_probit_sampler": gibbs,
            "sample_truncated_normal": timed("posteriors.truncnorm", draws),
            "ml_estimate_probit": timed("posteriors.ml_start"),
            "probit_joint_grad_fn": callback("posteriors.joint_grad", data_rows),
            "gaussian_joint_grad_fn": callback("posteriors.joint_grad", one_row),
            "probit_log_joint_fn": callback("posteriors.log_joint", data_rows),
            "gaussian_log_joint_fn": callback("posteriors.log_joint", one_row),
            "knn_entropy": timed("posteriors.knn_entropy"),
            "power_scale": timed("channel.power_scale"),
            "transmit_oma": timed("channel.transmit"),
            "transmit_noma": timed("channel.transmit"),
            "gcmc_weights": timed("aggregators.fit"),
            "wgcmc_oma": timed("aggregators.fit"),
            "wgcmc_noma": timed("aggregators.fit"),
            "run_wvcmc": timed("wvcmc.run"),
            "grad_oma": timed("wvcmc.grad", grad_call),
            "grad_noma": timed("wvcmc.grad", grad_call),
            "free_energy_oma": timed("wvcmc.objective"),
            "free_energy_noma": timed("wvcmc.objective"),
            "sgld_run": timed("baselines.sgld", sgld_iterations),
            "best_single_worker": timed("baselines.best_single"),
            "second_order_error": timed("metrics.err2"),
            "kl_ensemble": timed("metrics.kl", kl_points),
        }
        for attr, make in plan.items():
            patches.wrap(attr, make, modules)
        # scheme-level aggregation only: the wvcmc loop's own products stay wvcmc time
        patches.wrap("apply_weights", timed("aggregators.apply"), modules[:1])
