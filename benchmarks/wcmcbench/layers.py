"""Per-layer metrics of a traced round and the spans and counts they come from.

Times are seconds summed over one round (one trial of every config in the
workload); counts are per round too.  ``runner.trial_s`` is the traced
wall time per (config, trial) pass: its excess over the end-to-end
``trial_s`` of untraced runs is the tracing overhead.
"""

from .checks import SCHEMES

# Spans whose summed duration is reported as ``<span>_s``.
SPANS = (
    "data.generate",
    "data.partition",
    "posteriors.reference",
    "posteriors.worker",
    "posteriors.truncnorm",
    "posteriors.ml_start",
    "posteriors.joint_grad",
    "posteriors.log_joint",
    "posteriors.knn_entropy",
    "channel.power_scale",
    "channel.transmit",
    "aggregators.fit",
    "aggregators.apply",
    "wvcmc.run",
    "wvcmc.grad",
    "wvcmc.objective",
    "baselines.sgld",
    "baselines.best_single",
    "metrics.err2",
    "metrics.kl",
)
SPAN_TOTALS = {f"{span}_s": span for span in SPANS}

# Self time: the span's duration minus the part its child spans cover.  For
# the benchmark's own span around run_experiment / sweep that is the trial
# time no layer span accounts for.
SPAN_SELF = {
    "wvcmc.self_s": "wvcmc.run",
    "runner.unattributed_s": "runner.experiment",
}

COUNTS = (
    "posteriors.reference_chains",
    "posteriors.reference_sweeps",
    "posteriors.worker_chains",
    "posteriors.worker_sweeps",
    "posteriors.truncnorm_draws",
    "posteriors.joint_grad_points",
    "posteriors.log_joint_points",
    "wvcmc.iterations",
    "baselines.sgld_iterations",
    "metrics.kl_points",
)

PER_LAYER = {
    **{name: "s" for name in SPAN_TOTALS},
    **{name: "s" for name in SPAN_SELF},
    **{name: "count" for name in COUNTS},
    **{f"runner.scheme.{name}_s": "s" for name in SCHEMES},
    "runner.trial_s": "s",
}
