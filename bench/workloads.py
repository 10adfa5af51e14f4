"""Workloads and metric names of the benchmark.

A workload is a stock profile plus command-line overrides, run exactly as
a user would run it with `psmco run`.  Why each one exists, and which
layer it stresses, is recorded next to its name in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str
    overrides: Tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        # 100,000 worker-steps of 50 particles x 1 component: per-call
        # dispatch in parallel/sampler/core dominates.
        Workload("mixture-5.1", "mixture-5.1"),
        # 1000 O(n) full-cost emissions at only a handful of distinct thetas.
        Workload("sigmoid-5.2", "sigmoid-5.2"),
        # 1,600 worker-steps of 400 x 500 kernel evaluations and a single
        # emission: the sigmoid kernel dominates, dispatch does not matter.
        Workload(
            "sigmoid-wide",
            "sigmoid-5.2",
            ("m_workers=8", "n_particles=400", "batch_size=500", "estimate_every=null"),
        ),
    )
}

# name -> unit.  BENCHMARK.json lists the same names and units; the
# self-test checks that the two agree.
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
}

PER_LAYER = {
    "parallel.worker_steps": "count",
    "parallel.setup_s": "s",
    "parallel.loop_self_s": "s",
    "sampler.step_self_s": "s",
    "sampler.jitter_s": "s",
    "sampler.weight_self_s": "s",
    "sampler.resample_s": "s",
    "sampler.moved_frac": "frac",
    "sampler.degenerate_steps": "count",
    "core.potential_calls": "count",
    "core.potential_self_s": "s",
    "problems.kernel_s.step": "s",
    "problems.kernel_s.emit": "s",
    "problems.kernel_evals.step": "count",
    "problems.kernel_evals.emit": "count",
    "problems.kernel_evals_per_s.step": "1/s",
    "problems.kernel_evals_per_s.emit": "1/s",
    "core.full_cost_calls": "count",
    "core.full_cost_s": "s",
    "core.full_cost_distinct_frac": "frac",
    "kde.mode_calls": "count",
    "kde.mode_s": "s",
    "cli.serialize_s": "s",
    "cli.trace_bytes": "bytes",
    "result.f_final": "cost",
    "trace.overhead_frac": "frac",
    "trace.coverage": "frac",
}
