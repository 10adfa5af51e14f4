"""Single-worker particle sampler: jitter, weight, resample.

One step processes one mini-batch: every particle is jittered, weighted
by the batch potential, and the population is resampled from the
normalized weights.  The per-step normalizer estimates are accumulated
in the log domain so workers can later be ranked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

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
    """Mutable state of one worker's particle population.

    log_z_cumulative is the running sum of per-step normalizer estimates,
    kept equal to sum(log_z_steps) by accumulating in step order.
    """

    particles: np.ndarray
    space: SearchSpace
    rng: np.random.Generator
    iteration: int = 0
    log_z_cumulative: float = 0.0
    log_z_steps: list = field(default_factory=list)

    @property
    def n_particles(self) -> int:
        return self.particles.shape[0]


def init_particles(
    space: SearchSpace,
    n_particles: int,
    rng: np.random.Generator,
    init_point: Optional[np.ndarray] = None,
    init_std: float = 0.0,
) -> ParticleSystem:
    """Draw the initial population.

    Default is uniform over the box.  When init_point is given the
    population is Gaussian around that point with the given std, clipped
    into the box.
    """
    if n_particles < 1:
        raise ValueError("need at least one particle")
    d = space.dim
    if init_point is None:
        width = space.upper - space.lower
        if not (width > 0).all():
            raise ValueError("box must have positive width in every coordinate")
        pts = space.lower + rng.random((n_particles, d)) * width
    else:
        center = np.asarray(init_point, dtype=float)
        if center.shape != (d,):
            raise ValueError("init_point has the wrong dimension")
        pts = center + rng.normal(0.0, init_std, size=(n_particles, d))
        pts = clip_to_space(pts, space)
    return ParticleSystem(particles=pts, space=space, rng=rng)


def jitter(system: ParticleSystem, kernel: JitterKernelSpec) -> int:
    """Apply the sticky Gaussian move in place; returns how many moved.

    The uniform mask and the full noise matrix are always drawn, so the
    RNG stream advances identically whatever the mask turns out to be.
    """
    n, d = system.particles.shape
    move = system.rng.random(n) < kernel.epsilon
    noise = system.rng.normal(0.0, kernel.proposal_std, size=(n, d))
    out = system.particles.copy()
    out[move] += noise[move]
    system.particles = clip_to_space(out, system.space)
    return int(move.sum())


def weight_and_accumulate(
    system: ParticleSystem, model: CostModel, batch: np.ndarray
) -> np.ndarray:
    """Weight the population by the batch potential; returns the
    normalized log-weights.

    Records the per-step normalizer estimate, the mean potential
    log Z_t = log((1/N) sum_i G(theta_i)), and adds it to the running
    total.  When every potential is -inf the step records -inf, so it
    still counts toward the cumulative value, and DegenerateWeightsError
    is raised.
    """
    log_g = log_potentials(model, batch, system.particles)
    try:
        log_total, log_w = normalize_log_weights(log_g)
    except DegenerateWeightsError:
        system.log_z_steps.append(-math.inf)
        system.log_z_cumulative += -math.inf
        raise
    log_z_t = float(log_total - math.log(system.n_particles))
    system.log_z_steps.append(log_z_t)
    system.log_z_cumulative += log_z_t
    return log_w


def draw_ancestors(
    log_w: np.ndarray, n_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """n_draws iid categorical indices from normalized log-weights.

    Inverse-CDF draws: u lands in the first slot whose cumulative weight
    reaches it, so a u exactly on a boundary selects the lower index.
    """
    cum = np.cumsum(np.exp(log_w))
    cum[-1] = 1.0  # guard against round-off shortfall at the top
    u = rng.random(n_draws)
    return np.searchsorted(cum, u, side="left")


def resample_multinomial(system: ParticleSystem, log_w: np.ndarray) -> None:
    """Replace the population with N draws from the weighted one, given
    its normalized log-weights."""
    idx = draw_ancestors(log_w, system.n_particles, system.rng)
    system.particles = system.particles[idx].copy()


def sampler_step(
    system: ParticleSystem,
    model: CostModel,
    batch: np.ndarray,
    kernel: JitterKernelSpec,
) -> float:
    """One full jitter/weight/resample iteration; returns this step's
    normalizer estimate.

    When every potential underflows to -inf the population is kept as
    jittered (no resampling) and the step contributes -inf to the
    cumulative total; the run carries on.
    """
    jitter(system, kernel)
    try:
        log_w = weight_and_accumulate(system, model, batch)
    except DegenerateWeightsError:
        pass
    else:
        resample_multinomial(system, log_w)
    system.iteration += 1
    return system.log_z_steps[-1]
