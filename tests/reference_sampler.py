"""Reference sampler: one worker at a time, in plain loops.

This is the single-worker jitter / weight / resample step the stacked
engine in psmco.sampler replaced, kept as a test oracle.  It shares no
code with the engine's phases: the engine must reproduce it bit for bit,
consuming each worker's random stream in the same order (stream format
v3: after its schedule and initial draws, a worker draws B steps at a
time, first each step's jitter uniforms and resampling uniforms, then
one noise row per moved particle, step by step).  `run` drives M of
these samplers exactly as psmco.parallel.run_psmco documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from psmco.core import (
    CostModel,
    EvaluationError,
    SearchSpace,
    build_schedule,
    clip_to_space,
)
from psmco.kde import KernelDensitySpec, bandwidth_rule, map_estimate
from psmco.parallel import OptimizerConfig, RunFailureError, select_best_worker
from psmco.sampler import JitterKernelSpec


@dataclass
class ParticleSystem:
    particles: np.ndarray  # (N, d)
    space: SearchSpace
    rng: np.random.Generator
    log_z_cumulative: float = 0.0
    log_z_steps: list = field(default_factory=list)
    pending: list = field(default_factory=list)  # drawn steps not yet run


def init_particles(space, n_particles, rng, init_point=None, init_std=0.0) -> ParticleSystem:
    d = space.dim
    if init_point is None:
        pts = space.lower + rng.random((n_particles, d)) * (space.upper - space.lower)
    else:
        pts = np.asarray(init_point, dtype=float) + rng.normal(0.0, init_std, size=(n_particles, d))
        pts = clip_to_space(pts, space)
    return ParticleSystem(particles=pts, space=space, rng=rng)


def next_draws(system: ParticleSystem, kernel: JitterKernelSpec, steps_left: int):
    """This step's (jitter uniforms, noise rows, resampling uniforms).  A
    block covers B = max(1, 2048 // (2 * N)) steps, or the steps left."""
    if not system.pending:
        n, d = system.particles.shape
        b = min(max(1, 2048 // (2 * n)), steps_left)
        u = system.rng.random((b, 2, n))
        noise = system.rng.normal(0.0, kernel.proposal_std, size=(int((u[:, 0] < kernel.epsilon).sum()), d))
        row = 0
        for u_jitter, u_resample in u:
            moved = int((u_jitter < kernel.epsilon).sum())
            system.pending.append((u_jitter, noise[row:row + moved], u_resample))
            row += moved
    return system.pending.pop(0)


def jitter(system: ParticleSystem, kernel: JitterKernelSpec, u, noise) -> int:
    move = u < kernel.epsilon
    assert len(noise) == move.sum()
    out = system.particles.copy()
    out[move] += noise
    system.particles = clip_to_space(out, system.space)
    return int(move.sum())


def component_sum(model: CostModel, batch: np.ndarray, theta: np.ndarray) -> float:
    """The batch's component values at theta, added in batch order."""
    total = 0.0
    for i in batch:
        v = float(model.component_eval(int(i), theta))
        if not np.isfinite(v):
            raise EvaluationError(int(i), theta, v)
        total += v
    return total


def log_potentials(model: CostModel, batch: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """log G at each row of thetas, through the model's single-worker
    batch_eval when it has one, else one component at a time."""
    if model.batch_eval is None:
        return np.array([-component_sum(model, batch, t) for t in thetas])
    sums = np.asarray(model.batch_eval(batch, thetas), dtype=float)
    bad = ~np.isfinite(sums)
    if bad.any():
        for p in np.nonzero(bad)[0]:
            for i in batch:
                v = float(model.component_eval(int(i), thetas[p]))
                if not np.isfinite(v):
                    raise EvaluationError(int(i), thetas[p], v)
        sums = sums.copy()
        sums[bad & (sums > 0)] = np.inf
    return -sums


def normalize_log_weights(log_w: np.ndarray):
    """(log total, normalized log-weights), or (-inf, None) when every
    weight is zero: None is this oracle's degenerate sentinel."""
    m = np.max(log_w)
    if m == -np.inf:
        return -math.inf, None
    shifted = log_w - m
    log_norm = np.log(np.sum(np.exp(shifted)))
    return m + log_norm, shifted - log_norm


def weight_and_accumulate(system: ParticleSystem, model: CostModel, batch: np.ndarray):
    """The normalized log-weights, None for a degenerate worker."""
    log_g = log_potentials(model, batch, system.particles)
    log_total, log_w = normalize_log_weights(log_g)
    log_z_t = float(log_total - math.log(system.particles.shape[0]))
    system.log_z_steps.append(log_z_t)
    system.log_z_cumulative += log_z_t
    return log_w


def draw_ancestors(log_w: np.ndarray, u: np.ndarray) -> np.ndarray:
    cum = np.cumsum(np.exp(log_w))
    cum[-1] = 1.0
    return np.searchsorted(cum, u, side="left")


def resample_multinomial(system: ParticleSystem, log_w: np.ndarray, u: np.ndarray) -> None:
    idx = draw_ancestors(log_w, u)
    system.particles = system.particles[idx].copy()


def sampler_step(system, model, batch, kernel, steps_left) -> float:
    u_jitter, noise, u_resample = next_draws(system, kernel, steps_left)
    jitter(system, kernel, u_jitter, noise)
    log_w = weight_and_accumulate(system, model, batch)
    if log_w is not None:  # a degenerate worker's resampling uniforms go unused
        resample_multinomial(system, log_w, u_resample)
    return system.log_z_steps[-1]


def run(model: CostModel, space: SearchSpace, config: OptimizerConfig):
    """(log_z_by_step (T, M), final particles (M, N, d), emission rows as
    (iteration, worker, log_z tuple, theta, f_value)) of a run_psmco run."""
    rngs = [np.random.default_rng(c) for c in np.random.SeedSequence(config.seed).spawn(config.m_workers)]
    kernel = JitterKernelSpec(space, config.proposal_std, config.n_particles, config.epsilon)
    schedules, systems = [], []
    k = config.batch_size
    for rng in rngs:
        perm = build_schedule(model.n, k, rng)
        schedules.append([perm[start:start + k] for start in range(0, model.n, k)])
        systems.append(init_particles(space, config.n_particles, rng, config.init_point, config.init_std))
    total = len(schedules[0])
    stride = config.estimate_every or total
    kde = KernelDensitySpec(dim=space.dim, bandwidth=bandwidth_rule(config.n_particles, space.dim))
    log_z_by_step = np.empty((total, config.m_workers))
    rows = []
    for t in range(total):
        for m, system in enumerate(systems):
            log_z_by_step[t, m] = sampler_step(system, model, schedules[m][t], kernel, total - t)
        if all(s.log_z_cumulative == -math.inf for s in systems):
            raise RunFailureError("every worker's cumulative log Z is -inf", log_z_by_step[:t + 1])
        if (t + 1) % stride == 0 or t + 1 == total:
            cumulative = tuple(s.log_z_cumulative for s in systems)
            winner = select_best_worker(cumulative)
            _, theta = map_estimate(kde, systems[winner].particles)
            rows.append((t + 1, winner, cumulative, theta, model.total_cost(theta)))
    return log_z_by_step, np.stack([s.particles for s in systems]), rows
