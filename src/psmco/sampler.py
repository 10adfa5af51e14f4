"""Stacked particle samplers: jitter, weight, resample.

A ParticleSystem holds M independent workers' populations in one
(M, N, d) array.  One step processes one mini-batch per worker: every
particle is jittered, weighted by its worker's batch potential, and each
population is resampled from its own normalized weights.  Each phase is
one array operation over all workers.  After the schedules and initial
particles, step_draws alone reads the streams (format v3): a block of
steps at a time, each worker from its own generator in two calls, its
uniforms, then Gaussian noise for only the particles those uniforms
move.  A worker's stream therefore never depends on the others, nor on
its data or weights.  A step returns its (M,) log normalizers; the
caller sums them to rank the workers.  A single-worker experiment is M=1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import (
    CostModel,
    SearchSpace,
    check_labels,
    clip_to_space,
    label_groups,
    log_potentials,
    normalize_log_weights,
    ramp,
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

    particles is (M, N, d) and rngs[m] is worker m's stream.  labels
    (M, N) mark copies, by core.check_labels' rule: particles of one worker
    sharing a label are equal; equal points with different labels only cost
    a duplicate evaluation.  Whoever replaces the particles replaces the labels.
    """

    particles: np.ndarray
    rngs: Tuple[np.random.Generator, ...]
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        self.labels = check_labels(self.labels, self.particles.shape[:2])


def init_particles(
    space: SearchSpace,
    n_particles: int,
    rngs: Sequence[np.random.Generator],
    init_point: Optional[Sequence[float]] = None,
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
        pts = space.lower + np.array([rng.random(shape) for rng in rngs]) * width
    else:
        center = np.asarray(init_point, dtype=float)
        if center.shape != (d,):
            raise ValueError("init_point has the wrong dimension")
        pts = center + np.array([rng.normal(0.0, init_std, size=shape) for rng in rngs])
        pts = clip_to_space(pts, space)
    return ParticleSystem(particles=pts, rngs=rngs)


# Stream format v3: a worker draws its randomness B steps at a time, with
# B = max(1, BLOCK_ELEMENTS // (2 * N)), which depends on N only.
BLOCK_ELEMENTS = 2**11


def step_draws(system: ParticleSystem, kernel: JitterKernelSpec, steps: int):
    """Yield the draws of each of the next `steps` steps, as sampler_step
    takes them: the (M, N) jitter uniforms, the (moved, d) noise rows in
    flat (worker, particle) order, and the (M, N) resampling uniforms.

    The steps are drawn b = min(B, steps left) at a time.  For a block
    each worker makes two calls on its own stream: random((b, 2, N)),
    step j's N jitter uniforms then its N resampling uniforms, and one
    normal(0, proposal_std, (moved, d)), a row for each (step, particle)
    whose jitter uniform is below epsilon, in step then particle order.
    Raises ValueError unless the system has one generator per worker.
    """
    m_workers, n, d = system.particles.shape
    if len(system.rngs) != m_workers:
        raise ValueError(f"{len(system.rngs)} generators for {m_workers} workers")
    while steps > 0:
        b = min(max(1, BLOCK_ELEMENTS // (2 * n)), steps)
        steps -= b
        u = np.empty((m_workers, b, 2, n))
        for rng, u_m in zip(system.rngs, u):
            rng.random(out=u_m)
        moved = np.count_nonzero(u[:, :, 0] < kernel.epsilon, axis=2)  # (M, b)
        noise = np.concatenate([
            rng.normal(0.0, kernel.proposal_std, size=(count, d))
            for rng, count in zip(system.rngs, moved.sum(axis=1).tolist())
        ])
        # the rows come worker by worker; a stable sort by step number
        # puts them step by step, in flat (worker, particle) order
        step_of = np.repeat(np.tile(np.arange(b, dtype=np.int16), m_workers), moved.ravel())
        noise = np.take(noise, np.argsort(step_of, kind="stable"), axis=0)
        rows = np.split(noise, np.cumsum(moved.sum(axis=0))[:-1])
        for j, rows_j in enumerate(rows):
            yield u[:, j, 0], rows_j, u[:, j, 1]


def jitter(system: ParticleSystem, kernel: JitterKernelSpec, u: np.ndarray, noise: np.ndarray) -> int:
    """Apply the sticky Gaussian move, clipped into kernel.space, to copies
    of the particles and labels, given the step's (M, N) uniforms and the
    (moved, d) noise, one row per particle with u < epsilon in flat
    (worker, particle) order; returns how many particles moved, over all
    workers.  Particle j of a worker gets the fresh label N + j when it
    moves.  Raises ValueError when the uniforms are not (M, N), the noise
    not (moved, d), kernel.space of a dimension other than the particles'
    d, or the kernel for another population size than the system's N."""
    m, n, d = system.particles.shape
    if kernel.space.dim != d:
        raise ValueError(f"a {kernel.space.dim}-d kernel box for {d}-d particles")
    if kernel.n_particles != n:
        raise ValueError(f"a kernel for {kernel.n_particles} particles applied to {n}")
    if np.shape(u) != (m, n):
        raise ValueError(f"uniforms of shape {np.shape(u)} for {(m, n)} particles")
    moved = (u < kernel.epsilon).ravel().nonzero()[0]  # an unmoved particle is in the box already
    if np.shape(noise) != (moved.size, d):
        raise ValueError(f"noise rows of shape {np.shape(noise)} for {moved.size} moved {d}-d particles")
    particles = np.array(system.particles, dtype=float, order="C")  # never a caller's array
    labels = np.array(system.labels, order="C")
    flat = particles.reshape(-1, d)  # a view: rows are particles
    flat[moved] = clip_to_space(flat.take(moved, axis=0) + noise, kernel.space)
    labels.reshape(-1)[moved] = moved % n + n
    system.particles, system.labels = particles, labels
    return moved.size


def weight_and_accumulate(
    system: ParticleSystem, model: CostModel, batches: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Weight each population by its worker's batch potential; returns
    this step's (M,) normalizer estimates and the (M, N) normalized
    log-weights.  batches is (M, K): row m is worker m's batch.

    Each worker's normalizer estimate for the step is the mean potential
    log Z_t = log((1/N) sum_i G(theta_i)); the caller keeps any running
    total.  A worker whose potentials are all -inf gets log Z_t = -inf
    and log-weights of -inf.  Each group of copies is evaluated once;
    its label becomes its rank.
    """
    system.labels, *groups = label_groups(system.labels)
    log_g = log_potentials(model, batches, system.particles, groups)
    log_total, log_w = normalize_log_weights(log_g)
    return log_total - math.log(system.particles.shape[1]), log_w


def inverse_cdf(log_w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Categorical indices by inverse CDF, row by row: the uniforms
    u (M, D) against normalized log-weights (M, N).

    u lands in the first slot whose cumulative weight reaches it, so a u
    exactly on a boundary selects the lower index.  Every u must lie on
    Generator.random's grid, k * 2**-53 with 0 <= k < 2**53, and each
    row's weights must sum to 1 within 1e-9 or be all zero (a degenerate
    row, whose indices the caller discards); anything else raises
    ValueError, as do log_w and u other than 2-d with one row count.
    """
    if np.ndim(log_w) != 2 or np.ndim(u) != 2 or len(log_w) != len(u):
        raise ValueError(f"log-weights {np.shape(log_w)} and uniforms {np.shape(u)} need 2-d, equal rows")
    scaled = u * 2.0**53
    k = scaled.astype(np.int64)
    if np.count_nonzero(k != scaled) or np.count_nonzero(k >> 53):
        raise ValueError("uniforms must be multiples of 2**-53 in [0, 1)")
    cum = np.exp(log_w).cumsum(axis=-1)
    total = cum[:, -1]
    if np.count_nonzero(~(abs(total - 1.0) <= 1e-9) & (total != 0.0)):
        raise ValueError("log-weights must be normalized: each row's weights must sum to 1")
    # u <= c exactly when k <= floor(c * 2**53), so the search runs on
    # exact int64 keys; a slot before the last may round above 1, and
    # clipping keeps it out of the next row's key range.
    np.minimum(cum, 1.0, out=cum)
    cum[:, -1] = 1.0  # guard against round-off shortfall at the top
    keys, out = (cum * 2.0**53).astype(np.int64), np.empty(u.shape, dtype=np.intp)
    # One search per chunk of up to 1023 rows: the r-th row of a chunk has
    # its keys and probes offset by r * (2**53 + 1) < 2**63, a block of its
    # own.  The probes go in ascending order, each search starting from the
    # last, and the results, less the r * N keys before, are scattered back.
    for c in range(0, len(out), 1023):
        chunk = out[c:c + 1023]  # a view of the chunk's rows
        offset = ramp(len(chunk), 2**53 + 1)[:, None]
        order = (k[c:c + 1023].argsort(axis=1) + ramp(len(chunk), u.shape[1])[:, None]).ravel()
        chunk.reshape(-1)[order] = (keys[c:c + 1023] + offset).ravel().searchsorted((k[c:c + 1023] + offset).take(order))
        chunk -= ramp(len(chunk), cum.shape[1])[:, None]
    return out


def resample_multinomial(system: ParticleSystem, log_w: np.ndarray, u: np.ndarray) -> None:
    """Replace each population with N draws from its weighted self, given
    the (M, N) normalized log-weights and the step's (M, N) uniforms.  A
    degenerate worker, whose log-weights are all -inf, keeps its
    population; its uniforms go unused.  The labels go with the
    ancestors.  Raises ValueError unless log_w and u are both (M, N)."""
    m, n, d = system.particles.shape
    if np.shape(log_w) != (m, n) or np.shape(u) != (m, n):
        raise ValueError(f"log-weights {np.shape(log_w)} and uniforms {np.shape(u)} for {(m, n)} particles")
    live = log_w.max(axis=1, keepdims=True) > -math.inf
    rows = np.where(live, inverse_cdf(log_w, u), ramp(n)) + ramp(m, n)[:, None]
    system.particles = system.particles.reshape(-1, d).take(rows, axis=0)
    system.labels = system.labels.take(rows)


def sampler_step(
    system: ParticleSystem,
    model: CostModel,
    batches: np.ndarray,
    kernel: JitterKernelSpec,
    draws: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """One full jitter/weight/resample iteration of every worker; returns
    this step's (M,) normalizer estimates.  batches is (M, K) and draws
    the step's (jitter uniforms (M, N), noise (moved, d), resampling
    uniforms (M, N)), as step_draws yields them.

    A worker whose potentials all underflow to -inf keeps its population
    as jittered (no resampling) and returns -inf for the step; the run
    carries on.
    """
    jitter(system, kernel, *draws[:2])
    log_z_t, log_w = weight_and_accumulate(system, model, batches)
    resample_multinomial(system, log_w, draws[2])
    return log_z_t
