"""Gaussian kernel density estimate over a particle cloud, and the
particle-restricted mode search used to read off a point estimate."""

from __future__ import annotations

import math
from typing import Optional, Tuple, Union

import numpy as np

from . import core
from .core import label_groups, logsumexp, ramp


def bandwidth_rule(n_particles: int, dim: int) -> float:
    """h = 1 / floor(N ** (1 / (2 (d + 1)))).

    The floor is counted up from 1 in integer arithmetic; a naive float
    power misrounds perfect powers (64 ** (1/6) comes out just under 2).
    """
    if n_particles < 1:
        raise ValueError("need at least one particle")
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    p, k = 2 * (dim + 1), 1
    while (k + 1) ** p <= n_particles:
        k += 1
    return 1.0 / k


def kde_log_eval(
    particles: np.ndarray, points: np.ndarray, bandwidth: float, owner: Optional[np.ndarray] = None
) -> np.ndarray:
    """Log-density of the particle KDE at each query row, shape (P,).

    density(x) = (1/N) sum_i h^-d k((x - x_i)/h) with k the standard
    Gaussian and h the bandwidth; the sum over particles runs through
    logsumexp.  Stacked clouds (E, N, d) take owner (P,), the cloud of
    each row; one (N, d) cloud is the case E = 1.  Raises ValueError
    unless N, d >= 1, h is positive and finite, the points have the
    particles' d and owner, with stacked clouds only, is (P,) integers in [0, E).
    """
    particles = np.asarray(particles, dtype=float)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = particles.shape[-2:]
    if n < 1 or d < 1:
        raise ValueError(f"particles {particles.shape}: a cloud needs at least one particle of dimension >= 1")
    stacked = owner is not None  # else one cloud, E = 1, every owner 0 (zeros: no slot of ramp's cache per P)
    clouds, owner = (particles, np.asarray(owner)) if stacked else (particles[None], np.zeros(len(points), np.intp))
    if (particles.ndim != 2 + stacked or points.shape[1] != d or owner.shape != points.shape[:1]
            or owner.dtype.kind not in "iu" or len(owner) and not 0 <= owner.min() <= owner.max() < len(clouds)):
        raise ValueError(f"points of dimension {points.shape[1]} and owner {owner.shape} "
                         f"(integers in [0, {len(clouds)}) with stacked clouds) for {particles.shape}")
    h = float(bandwidth)
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth!r}")
    const = -math.log(n) - d * math.log(h) - 0.5 * d * math.log(2.0 * math.pi)
    out = np.empty(len(points))
    # rows of the P x N distances go in chunks under the budget; each adds its squares one
    # coordinate at a time (einsum("pnd,pnd->pn")'s order at d <= 2), gathered per row
    chunk = max(1, core.STACK_BUDGET // n)
    for start in range(0, len(points), chunk):
        rows = slice(start, start + chunk)
        sq = sum(np.square(points[rows, j, None] - c.take(owner[rows], axis=0))
                 for j, c in enumerate(np.moveaxis(clouds, -1, 0)))
        out[rows] = logsumexp(sq / (-2.0 * h * h))
    return out + const


def map_estimate(
    particles: np.ndarray, bandwidth: float, labels: Optional[np.ndarray] = None
) -> Tuple[Union[int, np.ndarray], np.ndarray]:
    """(index, particle) of the highest value of the particles' KDE at
    the given bandwidth; ties go to the lowest index.  Stacked clouds
    (E, N, d), with labels (E, N), give each cloud's: (E,) indices and
    (E, d) modes, in one pass over all their distinct points.

    Searches only over the particles themselves, not the continuous
    space.  labels, a worker's row of ParticleSystem.labels, mark copies:
    the KDE of all N particles is queried once per label (None: at every
    particle), and every copy gets its point's value.  Raises ValueError
    unless N, d >= 1 and labels are N integers in [0, 2N) per cloud.
    """
    particles = np.asarray(particles, dtype=float)
    stacked = particles.ndim == 3
    clouds = particles if stacked else particles[None]
    e, n, d = clouds.shape
    if n < 1 or d < 1:
        raise ValueError(f"particles {particles.shape}: a cloud needs at least one particle of dimension >= 1")
    labels = np.broadcast_to(ramp(n), (e, n)) if labels is None else np.asarray(labels if stacked else [labels])
    if labels.shape != (e, n) or labels.dtype.kind not in "iu" or not 0 <= labels.min() <= labels.max() < 2 * n:
        raise ValueError(f"labels must be {n} integers in [0, {2 * n}) per cloud")
    _, slots, rows = label_groups(labels)
    values = kde_log_eval(clouds, clouds.reshape(-1, d).take(rows, axis=0), bandwidth, rows // n)
    best = values.take(slots).argmax(axis=1)
    return (best, clouds[np.arange(e), best]) if stacked else (int(best[0]), particles[best[0]].copy())
