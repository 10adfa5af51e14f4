"""Multi-worker optimizer: independent samplers ranked by accumulated
normalizer estimates, with the point estimate read off the best worker.

Workers never exchange particles.  Each one owns an RNG stream spawned
from the master seed, builds its own mini-batch schedule, and runs the
same number of steps; a worker's trajectory therefore depends only on
the seed and its index.  All workers advance together: their states are
stacked into one ParticleSystem and each step is one sampler_step over
the (M, K) batches of that step and the step's draws, which step_draws
takes from the workers' streams a block of steps at a time (stream
format v3: each worker's uniforms, then noise for its moved particles).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import CostModel, SearchSpace, build_schedule, schedule_dtype
from .kde import KernelDensitySpec, bandwidth_rule, map_estimate
from .sampler import JitterKernelSpec, init_particles, jitter_epsilon, sampler_step, step_draws


class NoViableWorkerError(RuntimeError):
    """Every worker's accumulated normalizer is -inf; none can be ranked."""


class RunFailureError(RuntimeError):
    """The whole run degenerated.  Carries the per-step normalizer trace
    for diagnosis."""

    def __init__(self, message: str, log_z_by_step: np.ndarray):
        self.log_z_by_step = np.asarray(log_z_by_step)
        super().__init__(message)


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for a full multi-worker run.

    estimate_every=None emits a single estimate at the final step;
    estimate_every=1 emits one per step.  Worker m draws from child m of
    SeedSequence(seed).spawn(m_workers), which does not depend on
    m_workers.  The jitter settings are checked by jitter_epsilon, the
    same rule the run's JitterKernelSpec applies.
    """

    m_workers: int
    n_particles: int
    batch_size: int
    proposal_std: float
    epsilon: Optional[float] = None
    seed: int = 0
    estimate_every: Optional[int] = None
    init_point: Optional[Tuple[float, ...]] = None
    init_std: float = 0.0
    keep_final_particles: bool = False

    def __post_init__(self):
        if self.m_workers < 1:
            raise ValueError("m_workers must be at least 1")
        jitter_epsilon(self.proposal_std, self.n_particles, self.epsilon)
        if not (self.init_std >= 0 and math.isfinite(self.init_std)):
            raise ValueError("init_std must be finite and non-negative")
        if self.init_point is not None and not all(math.isfinite(v) for v in self.init_point):
            raise ValueError("init_point must be finite")
        if self.estimate_every is not None and self.estimate_every < 1:
            raise ValueError("estimate_every must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class EstimateRow:
    iteration: int
    worker: int
    log_z: np.ndarray  # (M,) cumulative per worker: a row of RunRecord.log_z
    theta: np.ndarray
    f_value: float


@dataclass
class RunRecord:
    problem: str
    config: OptimizerConfig
    rows: List[EstimateRow]
    log_z: np.ndarray  # (E, M) cumulative log Z at each of the E emissions
    log_z_by_step: np.ndarray  # (T, M) per-step normalizer estimates
    wall_time: float
    final_particles: Optional[np.ndarray] = None  # (M, N, d) when kept


def select_best_worker(log_z: Sequence[float]) -> int:
    """Index of the highest accumulated normalizer; ties pick the lowest
    index.  All -inf raises NoViableWorkerError; NaN is rejected."""
    arr = np.asarray(log_z, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("need a non-empty 1-d array of values")
    if np.isnan(arr).any():
        raise ValueError("NaN normalizer value")
    if (arr == -np.inf).all():
        raise NoViableWorkerError("all workers have log Z = -inf")
    return int(np.argmax(arr))


def run_psmco(
    model: CostModel,
    space: SearchSpace,
    config: OptimizerConfig,
) -> Tuple[EstimateRow, RunRecord]:
    """Run M independent samplers over one pass of the data; returns the
    final estimate, the last emission row, plus the full record.

    Every worker consumes its own schedule of T = ceil(n/K) disjoint
    batches.  At each emission the workers are ranked by cumulative
    log-normalizer, the winner's particle cloud is summarized by its
    KDE mode (bandwidth from the population-size rule), and the full
    cost is evaluated there.  RunFailureError is raised at the first
    step after which every worker's cumulative log Z is -inf.
    """
    start = time.perf_counter()
    m_workers = config.m_workers
    seq = np.random.SeedSequence(config.seed)
    rngs = [np.random.default_rng(child) for child in seq.spawn(m_workers)]

    init_point = None
    if config.init_point is not None:
        init_point = np.asarray(config.init_point, dtype=float)

    kernel = JitterKernelSpec(
        space=space,
        proposal_std=config.proposal_std,
        n_particles=config.n_particles,
        epsilon=config.epsilon,
    )
    # row m is worker m's permutation; step t's batches are its columns
    # [t*K, (t+1)*K), the last step taking the remainder
    schedule = np.empty((m_workers, model.n), dtype=schedule_dtype(model.n))
    for m, rng in enumerate(rngs):  # row by row: one permutation held at a time
        schedule[m] = build_schedule(model.n, config.batch_size, rng)
    system = init_particles(
        space, config.n_particles, rngs, init_point=init_point, init_std=config.init_std
    )

    batch_size = config.batch_size
    total_steps = -(-model.n // batch_size)
    stride = config.estimate_every if config.estimate_every is not None else total_steps
    log_z_by_step = np.empty((total_steps, m_workers))
    log_z_emitted = np.empty((-(-total_steps // stride), m_workers))
    rows: List[EstimateRow] = []
    kde_spec = KernelDensitySpec(
        dim=space.dim, bandwidth=bandwidth_rule(config.n_particles, space.dim)
    )
    costs = {}  # theta bytes -> full cost; emissions repeat thetas often

    def emit(iteration: int) -> None:
        cumulative = log_z_emitted[len(rows)]
        cumulative[:] = system.log_z_cumulative
        winner = select_best_worker(cumulative)
        _, theta = map_estimate(kde_spec, system.particles[winner], system.labels[winner])
        key = theta.tobytes()
        if key not in costs:
            costs[key] = model.total_cost(theta)
        rows.append(
            EstimateRow(
                iteration=iteration,
                worker=winner,
                log_z=cumulative,
                theta=theta,
                f_value=costs[key],
            )
        )

    for t, draws in enumerate(step_draws(system, kernel, total_steps)):
        batches = schedule[:, t * batch_size:(t + 1) * batch_size]
        log_z_by_step[t] = sampler_step(system, model, batches, kernel, draws)
        if (system.log_z_cumulative == -math.inf).all():
            message = f"every worker's cumulative log Z is -inf by iteration {t + 1}"
            raise RunFailureError(message, log_z_by_step[:t + 1])
        if (t + 1) % stride == 0 or t + 1 == total_steps:
            emit(t + 1)

    final_particles = system.particles if config.keep_final_particles else None
    record = RunRecord(
        problem=model.name,
        config=config,
        rows=rows,
        log_z=log_z_emitted,
        log_z_by_step=log_z_by_step,
        wall_time=time.perf_counter() - start,
        final_particles=final_particles,
    )
    return rows[-1], record
