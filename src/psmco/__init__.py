"""Parallel sequential Monte Carlo minimizer for finite-sum costs.

A population of samplers explores the search space using only pointwise
component evaluations of the cost; each worker jitters, reweights, and
resamples its particles against a private mini-batch schedule, and the
worker with the largest accumulated normalizer supplies the final point
estimate through a kernel density mode search.
"""

from .core import (
    CostModel,
    EvaluationError,
    SearchSpace,
    build_schedule,
    clip_to_space,
    log_potentials,
    normalize_log_weights,
)
from .kde import bandwidth_rule, kde_log_eval, map_estimate
from .parallel import (
    OptimizerConfig,
    RunFailureError,
    RunRecord,
    run_psmco,
    select_best_worker,
)
from .sampler import (
    JitterKernelSpec,
    ParticleSystem,
    init_particles,
    jitter,
    resample_multinomial,
    sampler_step,
    weight_and_accumulate,
)

__version__ = "0.1.0"

__all__ = [
    "CostModel",
    "EvaluationError",
    "JitterKernelSpec",
    "OptimizerConfig",
    "ParticleSystem",
    "RunFailureError",
    "RunRecord",
    "SearchSpace",
    "bandwidth_rule",
    "build_schedule",
    "clip_to_space",
    "init_particles",
    "jitter",
    "kde_log_eval",
    "log_potentials",
    "map_estimate",
    "normalize_log_weights",
    "resample_multinomial",
    "run_psmco",
    "sampler_step",
    "select_best_worker",
    "weight_and_accumulate",
]
