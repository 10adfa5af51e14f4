"""Gaussian kernel density estimate over a particle cloud, and the
particle-restricted mode search used to read off a point estimate."""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .core import label_groups, logsumexp


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


def kde_log_eval(particles: np.ndarray, points: np.ndarray, bandwidth: float) -> np.ndarray:
    """Log-density of the particle KDE at each query row, shape (P,).

    density(x) = (1/N) sum_i h^-d k((x - x_i)/h) with k the standard
    Gaussian and h the bandwidth; the sum over particles runs through
    logsumexp.  Raises ValueError unless h is positive and finite and
    the points have the particles' d.
    """
    particles = np.asarray(particles, dtype=float)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = particles.shape
    if points.shape[1] != d:
        raise ValueError(f"points of dimension {points.shape[1]} for particles of dimension {d}")
    h = float(bandwidth)
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth!r}")
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
    particles: np.ndarray, bandwidth: float, labels: Optional[np.ndarray] = None
) -> Tuple[int, np.ndarray]:
    """(index, particle) of the highest value of the particles' KDE at
    the given bandwidth; ties go to the lowest index.

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
    logs = kde_log_eval(particles, particles[rows], bandwidth)[slots[0]]
    best = int(np.argmax(logs))
    return best, particles[best].copy()
