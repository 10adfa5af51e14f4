"""Stacked particle samplers: jitter, weight, resample.

A ParticleSystem holds M independent workers' populations in one
(M, N, d) array.  One step processes one mini-batch per worker: every
particle is jittered, weighted by its worker's batch potential, and each
population is resampled from its own normalized weights.  Each phase is
one array operation over all workers.  The random draws (stream format
v2) are taken a block of steps at a time by draw_block, each worker from
its own generator, so a worker's stream never depends on the others.
The per-step normalizer estimates are accumulated in the log domain so
workers can later be ranked.  A single-worker experiment is M=1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    log_z_cumulative, of shape (M,), is the running sum of the step
    normalizer estimates, accumulated in step order.
    """

    particles: np.ndarray
    space: SearchSpace
    rngs: Tuple[np.random.Generator, ...]
    iteration: int = 0
    log_z_cumulative: Optional[np.ndarray] = None

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


# Stream format v2: a worker draws its randomness B steps at a time, with
# B = max(1, BLOCK_ELEMENTS // (N * (d + 2))), which depends on N and d only.
BLOCK_ELEMENTS = 2**11


def draw_block(
    system: ParticleSystem, kernel: JitterKernelSpec, steps: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every worker's draws for the next b = min(B, steps) steps: the
    jitter uniforms (M, b, N), the jitter noise (M, b, N, d) and the
    resampling uniforms (M, b, N), drawn in that order from each
    worker's own stream."""
    m_workers, n, d = system.particles.shape
    b = min(max(1, BLOCK_ELEMENTS // (n * (d + 2))), steps)
    u_jitter, u_resample = np.empty((m_workers, b, n)), np.empty((m_workers, b, n))
    noise = np.empty((m_workers, b, n, d))
    for rng, u_j, z, u_r in zip(system.rngs, u_jitter, noise, u_resample):
        rng.random(out=u_j)
        z[:] = rng.normal(0.0, kernel.proposal_std, size=(b, n, d))
        rng.random(out=u_r)
    return u_jitter, noise, u_resample


def step_draws(system: ParticleSystem, kernel: JitterKernelSpec, steps: int):
    """Yield the draws of each of the next `steps` steps, as sampler_step
    takes them, drawing a block at a time with draw_block."""
    while steps > 0:
        block = draw_block(system, kernel, steps)
        steps -= block[0].shape[1]
        yield from zip(*(np.moveaxis(a, 1, 0) for a in block))


def jitter(system: ParticleSystem, kernel: JitterKernelSpec, u: np.ndarray, noise: np.ndarray) -> int:
    """Apply the sticky Gaussian move in place, given the step's (M, N)
    uniforms and (M, N, d) noise; returns how many particles moved, over
    all workers."""
    move = u < kernel.epsilon
    moved = np.where(move[..., None], system.particles + noise, system.particles)
    system.particles = clip_to_space(moved, system.space)
    return int(move.sum())


def weight_and_accumulate(
    system: ParticleSystem, model: CostModel, batches: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Weight each population by its worker's batch potential; returns
    this step's (M,) normalizer estimates and the (M, N) normalized
    log-weights.  batches is (M, K): row m is worker m's batch.

    Each worker's normalizer estimate for the step is the mean potential
    log Z_t = log((1/N) sum_i G(theta_i)), added to the running totals.
    A worker whose potentials are all -inf records -inf, so it still
    counts toward its cumulative value, and keeps log-weights of -inf;
    when that holds for every worker, DegenerateWeightsError is raised
    after recording.
    """
    log_g = log_potentials(model, batches, system.particles)
    try:
        log_total, log_w = normalize_log_weights(log_g)
    except DegenerateWeightsError:
        log_total, log_w = np.full(system.m_workers, -math.inf), None
    log_z_t = log_total - math.log(system.n_particles)
    system.log_z_cumulative = system.log_z_cumulative + log_z_t
    if log_w is None:
        raise DegenerateWeightsError("every worker's potentials are -inf")
    return log_z_t, log_w


def inverse_cdf(log_w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Categorical indices by inverse CDF, row by row: the uniforms
    u (M, D) against normalized log-weights (M, N).

    u lands in the first slot whose cumulative weight reaches it, so a u
    exactly on a boundary selects the lower index.  Every u must lie on
    Generator.random's grid, k * 2**-53 with 0 <= k < 2**53; anything
    else raises ValueError.
    """
    scaled = u * 2.0**53
    k = scaled.astype(np.int64)
    if (k != scaled).any() or (k >> 53).any():
        raise ValueError("uniforms must be multiples of 2**-53 in [0, 1)")
    # u <= c exactly when k <= floor(c * 2**53), so the search runs on
    # exact int64 keys; a slot before the last may round above 1, and
    # clipping keeps it out of the next row's key range.
    cum = np.minimum(np.cumsum(np.exp(log_w), axis=-1), 1.0)
    cum[:, -1] = 1.0  # guard against round-off shortfall at the top
    # One search per chunk of 1023 rows: the r-th row of a chunk has its
    # keys and probes offset by r * (2**53 + 1), below 2**63, which keeps
    # every row in a block of its own.
    offset = np.arange(len(cum))[:, None] % 1023 * (2**53 + 1)
    keys, probes = (cum * 2.0**53).astype(np.int64) + offset, k + offset
    out = np.empty(u.shape, dtype=np.intp)
    for c in range(0, len(cum), 1023):
        flat = np.searchsorted(keys[c:c + 1023].ravel(), probes[c:c + 1023].ravel())
        out[c:c + 1023] = flat.reshape(out[c:c + 1023].shape)
    return out % cum.shape[1]


def resample_multinomial(system: ParticleSystem, log_w: np.ndarray, u: np.ndarray) -> None:
    """Replace each population with N draws from its weighted self, given
    the (M, N) normalized log-weights and the step's (M, N) uniforms.  A
    degenerate worker, whose log-weights are all -inf, keeps its
    population; its uniforms go unused."""
    live = np.flatnonzero(log_w.max(axis=1) > -math.inf)
    idx = inverse_cdf(log_w[live], u[live])
    system.particles[live] = system.particles[live[:, None], idx]


def sampler_step(
    system: ParticleSystem,
    model: CostModel,
    batches: np.ndarray,
    kernel: JitterKernelSpec,
    draws: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """One full jitter/weight/resample iteration of every worker; returns
    this step's (M,) normalizer estimates.  batches is (M, K) and draws
    the step's (jitter uniforms, noise, resampling uniforms), one step
    of draw_block's output.

    A worker whose potentials all underflow to -inf keeps its population
    as jittered (no resampling) and contributes -inf to its cumulative
    total; the run carries on.
    """
    jitter(system, kernel, *draws[:2])
    try:
        log_z_t, log_w = weight_and_accumulate(system, model, batches)
    except DegenerateWeightsError:
        log_z_t = np.full(system.m_workers, -math.inf)
    else:
        resample_multinomial(system, log_w, draws[2])
    system.iteration += 1
    return log_z_t
