"""Gaussian kernel density estimate over a particle cloud, and the
particle-restricted mode search used to read off a point estimate."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import label_groups, logsumexp


@dataclass(frozen=True)
class KernelDensitySpec:
    """Gaussian product kernel with a single scalar bandwidth."""

    dim: int
    bandwidth: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        if not (self.bandwidth > 0.0 and math.isfinite(self.bandwidth)):
            raise ValueError("bandwidth must be positive and finite")


def bandwidth_rule(n_particles: int, dim: int) -> float:
    """h = 1 / floor(N ** (1 / (2 (d + 1)))).

    The floor is computed exactly in integer arithmetic; a naive float
    power misrounds perfect powers (64 ** (1/6) comes out just under 2).
    """
    if n_particles < 1:
        raise ValueError("need at least one particle")
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    p = 2 * (dim + 1)
    k = max(1, int(n_particles ** (1.0 / p)))
    while (k + 1) ** p <= n_particles:
        k += 1
    while k > 1 and k ** p > n_particles:
        k -= 1
    return 1.0 / k


def kde_log_eval(
    spec: KernelDensitySpec, particles: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Log-density of the particle KDE at each query row, shape (P,).

    density(x) = (1/N) sum_i h^-d k((x - x_i)/h) with k the standard
    Gaussian; the sum over particles runs through logsumexp.
    """
    particles = np.asarray(particles, dtype=float)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = particles.shape
    if d != spec.dim or points.shape[1] != spec.dim:
        raise ValueError("dimension mismatch")
    h = spec.bandwidth
    const = -math.log(n) - d * math.log(h) - 0.5 * d * math.log(2.0 * math.pi)
    out = np.empty(points.shape[0])
    # chunk the P x N distance matrix to bound memory
    chunk = max(1, (1 << 21) // max(1, n))
    for start in range(0, points.shape[0], chunk):
        block = points[start:start + chunk]
        diff = block[:, None, :] - particles[None, :, :]
        sq = np.einsum("pnd,pnd->pn", diff, diff)
        out[start:start + block.shape[0]] = logsumexp(-sq / (2.0 * h * h))
    return out + const


def map_estimate(
    spec: KernelDensitySpec, particles: np.ndarray, labels: Optional[np.ndarray] = None
) -> Tuple[int, np.ndarray]:
    """(index, particle) of the highest KDE value; ties go to the lowest
    index.

    Searches only over the particles themselves, not the continuous
    space.  labels, a worker's row of ParticleSystem.labels, mark copies:
    the KDE of all N particles is queried once per label (None: at every
    particle), and every copy gets its point's value.  Raises ValueError
    unless labels are N integers in [0, 2N).
    """
    particles = np.asarray(particles, dtype=float)
    n = len(particles)
    labels = np.arange(n) if labels is None else np.asarray(labels)
    if labels.shape != (n,) or not np.issubdtype(labels.dtype, np.integer) or ((labels < 0) | (labels >= 2 * n)).any():
        raise ValueError(f"labels must be {n} integers in [0, {2 * n})")
    _, slots, rows = label_groups(labels[None])
    logs = kde_log_eval(spec, particles, particles[rows])[slots[0]]
    best = int(np.argmax(logs))
    return best, particles[best].copy()
