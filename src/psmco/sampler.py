"""Stacked particle samplers: jitter, weight, resample.

A ParticleSystem holds M independent workers' populations in one
(M, N, d) array.  One step processes one mini-batch per worker: every
particle is jittered, weighted by its worker's batch potential, and each
population is resampled from its own normalized weights.  Each phase is
one array operation over all workers; only the random draws loop over
workers, each from its own generator, so a worker's stream is consumed
exactly as if it ran alone.  The per-step normalizer estimates are
accumulated in the log domain so workers can later be ranked.  A
single-worker experiment is M=1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import (
    CostModel,
    DegenerateWeightsError,
    SearchSpace,
    clip_to_space,
    log_potentials,
    normalize_log_weights,
)


def jitter_epsilon(proposal_std: float, n_particles: int, epsilon: Optional[float]) -> float:
    """The move probability of a valid jitter setting: epsilon, or the cap
    1/sqrt(n_particles) when epsilon is None.  epsilon may not exceed the
    cap, which keeps the per-step perturbation small enough for the
    population size; an invalid setting raises ValueError naming it."""
    if n_particles < 1:
        raise ValueError("n_particles must be at least 1")
    if not (proposal_std >= 0.0 and math.isfinite(proposal_std)):
        raise ValueError("proposal_std must be finite and non-negative")
    cap = 1.0 / math.sqrt(n_particles)
    eps = cap if epsilon is None else epsilon
    if not 0.0 < eps <= cap:  # cap <= 1, so eps is a probability
        raise ValueError(f"epsilon must lie in (0, 1/sqrt(n_particles)={cap:.6g}], got {eps}")
    return eps


@dataclass(frozen=True)
class JitterKernelSpec:
    """Sticky Gaussian move: keep the particle with probability 1-epsilon,
    otherwise add isotropic N(0, proposal_std**2 I) noise and clip back
    into the box.

    The settings obey jitter_epsilon; an omitted epsilon becomes the cap
    1/sqrt(n_particles) itself.
    """

    space: SearchSpace
    proposal_std: float
    n_particles: int
    epsilon: Optional[float] = None

    def __post_init__(self):
        eps = jitter_epsilon(self.proposal_std, self.n_particles, self.epsilon)
        object.__setattr__(self, "epsilon", eps)


@dataclass
class ParticleSystem:
    """Mutable state of M workers' particle populations.

    particles is (M, N, d) and rngs[m] is worker m's stream.
    log_z_steps holds one (M,) array of step normalizer estimates per
    step, and log_z_cumulative, of shape (M,), is their running sum,
    accumulated in step order so it equals sum(log_z_steps) exactly.
    """

    particles: np.ndarray
    space: SearchSpace
    rngs: Tuple[np.random.Generator, ...]
    iteration: int = 0
    log_z_cumulative: Optional[np.ndarray] = None
    log_z_steps: list = field(default_factory=list)

    def __post_init__(self):
        if self.log_z_cumulative is None:
            self.log_z_cumulative = np.zeros(self.m_workers)

    @property
    def m_workers(self) -> int:
        return self.particles.shape[0]

    @property
    def n_particles(self) -> int:
        return self.particles.shape[1]


def init_particles(
    space: SearchSpace,
    n_particles: int,
    rngs: Sequence[np.random.Generator],
    init_point: Optional[np.ndarray] = None,
    init_std: float = 0.0,
) -> ParticleSystem:
    """Draw the initial populations, one per generator in rngs.

    Default is uniform over the box.  When init_point is given each
    population is Gaussian around that point with the given std, clipped
    into the box.
    """
    if n_particles < 1:
        raise ValueError("need at least one particle")
    rngs = tuple(rngs)
    if not rngs:
        raise ValueError("need at least one worker")
    d = space.dim
    shape = (n_particles, d)
    if init_point is None:
        width = space.upper - space.lower
        if not (width > 0).all():
            raise ValueError("box must have positive width in every coordinate")
        pts = space.lower + np.array([rng.random(shape) for rng in rngs]) * width
    else:
        center = np.asarray(init_point, dtype=float)
        if center.shape != (d,):
            raise ValueError("init_point has the wrong dimension")
        pts = center + np.array([rng.normal(0.0, init_std, size=shape) for rng in rngs])
        pts = clip_to_space(pts, space)
    return ParticleSystem(particles=pts, space=space, rngs=rngs)


def jitter(system: ParticleSystem, kernel: JitterKernelSpec) -> int:
    """Apply the sticky Gaussian move in place; returns how many
    particles moved, over all workers.

    The uniform mask and the full noise matrix are always drawn, so each
    stream advances identically whatever the mask turns out to be.
    """
    m_workers, n, d = system.particles.shape
    u = np.empty((m_workers, n))
    noise = np.empty((m_workers, n, d))
    for u_m, noise_m, rng in zip(u, noise, system.rngs):
        rng.random(out=u_m)
        noise_m[:] = rng.normal(0.0, kernel.proposal_std, size=(n, d))
    move = u < kernel.epsilon
    moved = np.where(move[..., None], system.particles + noise, system.particles)
    system.particles = clip_to_space(moved, system.space)
    return int(move.sum())


def weight_and_accumulate(
    system: ParticleSystem, model: CostModel, batches: np.ndarray
) -> np.ndarray:
    """Weight each population by its worker's batch potential; returns
    the (M, N) normalized log-weights.  batches is (M, K): row m is
    worker m's batch.

    Records each worker's normalizer estimate for the step, the mean
    potential log Z_t = log((1/N) sum_i G(theta_i)), and adds it to the
    running totals.  A worker whose potentials are all -inf records -inf,
    so it still counts toward its cumulative value, and keeps log-weights
    of -inf; when that holds for every worker, DegenerateWeightsError is
    raised after recording.
    """
    log_g = log_potentials(model, batches, system.particles)
    try:
        log_total, log_w = normalize_log_weights(log_g)
    except DegenerateWeightsError:
        log_total, log_w = np.full(system.m_workers, -math.inf), None
    log_z_t = log_total - math.log(system.n_particles)
    system.log_z_steps.append(log_z_t)
    system.log_z_cumulative = system.log_z_cumulative + log_z_t
    if log_w is None:
        raise DegenerateWeightsError("every worker's potentials are -inf")
    return log_w


def inverse_cdf(log_w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Categorical indices by inverse CDF, row by row: the uniforms
    u (M, D) against normalized log-weights (M, N).

    u lands in the first slot whose cumulative weight reaches it, so a u
    exactly on a boundary selects the lower index.
    """
    cum = np.cumsum(np.exp(log_w), axis=-1)
    cum[:, -1] = 1.0  # guard against round-off shortfall at the top
    # One search over all rows: complex numbers sort by real part, then
    # imaginary part, so the keys row + 1j * value keep every row in a
    # block of its own, and each value is kept exactly.
    rows = np.arange(cum.shape[0])[:, None]
    keys, probes = np.empty(cum.shape, complex), np.empty(u.shape, complex)
    keys.real, keys.imag = rows, cum
    probes.real, probes.imag = rows, u
    flat = np.searchsorted(keys.ravel(), probes.ravel(), side="left")
    return flat.reshape(u.shape) - rows * cum.shape[1]


def draw_ancestors(
    log_w: np.ndarray, n_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """n_draws iid categorical indices from one population's normalized
    log-weights (N,), by inverse_cdf."""
    return inverse_cdf(np.asarray(log_w)[None], rng.random(n_draws)[None])[0]


def resample_multinomial(system: ParticleSystem, log_w: np.ndarray) -> None:
    """Replace each population with N draws from its weighted self, given
    the (M, N) normalized log-weights.  A degenerate worker, whose
    log-weights are all -inf, keeps its population and draws nothing."""
    live = np.flatnonzero(log_w.max(axis=1) > -math.inf)
    n = system.n_particles
    u = np.empty((live.size, n))
    for row, m in zip(u, live):
        system.rngs[m].random(out=row)
    idx = inverse_cdf(log_w[live], u)
    system.particles[live] = system.particles[live[:, None], idx]


def sampler_step(
    system: ParticleSystem,
    model: CostModel,
    batches: np.ndarray,
    kernel: JitterKernelSpec,
) -> np.ndarray:
    """One full jitter/weight/resample iteration of every worker; returns
    this step's (M,) normalizer estimates.  batches is (M, K).

    A worker whose potentials all underflow to -inf keeps its population
    as jittered (no resampling) and contributes -inf to its cumulative
    total; the run carries on.
    """
    jitter(system, kernel)
    try:
        log_w = weight_and_accumulate(system, model, batches)
    except DegenerateWeightsError:
        pass
    else:
        resample_multinomial(system, log_w)
    system.iteration += 1
    return system.log_z_steps[-1]
