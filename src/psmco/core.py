"""Search spaces, finite-sum cost models, mini-batch schedules, log-weights.

Everything downstream works in the log domain: batch potentials are
log-potentials, weights are log-weights, and normalization subtracts the
max before exponentiating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np


def logsumexp_last(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis via the max-shift trick.

    Lean replacement for the general scipy routine on hot paths; inputs
    are log-values in [-inf, inf).  Rows that are all -inf map to -inf.
    """
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=-1, keepdims=True)
    # freeze all--inf rows so the subtraction below cannot produce NaN;
    # those rows then reduce to 0 + log(0) = -inf, which is the answer
    safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        return safe[..., 0] + np.log(np.sum(np.exp(a - safe), axis=-1))


class EvaluationError(RuntimeError):
    """A cost component returned a non-finite value.

    Carries the component index and the point so the caller can report
    which evaluation blew up.
    """

    def __init__(self, index: int, theta: np.ndarray, value: float):
        self.index = int(index)
        self.theta = np.asarray(theta, dtype=float).copy()
        self.value = float(value)
        super().__init__(
            f"component {self.index} returned non-finite value {self.value!r} "
            f"at theta={self.theta.tolist()}"
        )


class DegenerateWeightsError(RuntimeError):
    """All log-weights are -inf; there is nothing to normalize."""


@dataclass(frozen=True)
class SearchSpace:
    """Axis-aligned box in R^d."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.ndim != 1 or upper.ndim != 1:
            raise ValueError("bounds must be 1-d arrays")
        if lower.shape != upper.shape:
            raise ValueError("lower and upper must have the same length")
        if lower.size < 1:
            raise ValueError("dimension must be at least 1")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("bounds must be finite")
        if not (lower < upper).all():
            raise ValueError("need lower[j] < upper[j] for every coordinate")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, thetas: np.ndarray) -> bool:
        """True if the point, or every row of an array of points, lies
        inside the box, bounds included."""
        t = np.asarray(thetas, dtype=float)
        return bool((t >= self.lower).all() and (t <= self.upper).all())


def clip_to_space(thetas: np.ndarray, space: SearchSpace) -> np.ndarray:
    """Project points onto the box, coordinate-wise."""
    return np.clip(np.asarray(thetas, dtype=float), space.lower, space.upper)


@dataclass(frozen=True)
class CostModel:
    """Finite-sum cost f(theta) = sum_{i=1}^{n} f_i(theta).

    component_eval(i, theta) evaluates a single component; indices are
    0-based internally.  batch_eval, when given, takes (indices, thetas)
    with thetas of shape (P, d) and returns the (P,) array of summed
    component values over the batch; it must agree with component_eval.
    stacked=True declares that batch_eval also takes the stacked form,
    indices (W, K) and thetas (W, N, d) -> (W, N), whose row w equals
    batch_eval(indices[w], thetas[w]) bit for bit; sums then evaluates
    all workers in one call instead of one call per worker.
    Evaluations must be deterministic; name labels a run's trace rows.
    """

    n: int
    component_eval: Callable[[int, np.ndarray], float]
    batch_eval: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    name: str = "cost"
    stacked: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one component")

    def sums(self, indices: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        """Batch sums stacked over workers, the one evaluation path:
        indices (W, K) and thetas (W, P, d) give (W, P), row w summing
        f_i over indices[w] at each of thetas[w].  A stacked batch_eval
        is called once, any other batch_eval once per worker, and a bare
        component_eval is summed in batch order."""
        indices = np.asarray(indices)
        thetas = np.asarray(thetas, dtype=float)
        if self.batch_eval is None:
            out = np.empty(thetas.shape[:2])
            for w, p in np.ndindex(out.shape):
                total = 0.0  # a Python float overflows to inf without a warning
                for i in indices[w]:
                    total += float(self.component_eval(int(i), thetas[w, p]))
                out[w, p] = total
            return out
        if self.stacked:
            return np.asarray(self.batch_eval(indices, thetas), dtype=float)
        return np.array([self.batch_eval(b, pts) for b, pts in zip(indices, thetas)], dtype=float)

    def batch_cost(self, indices: np.ndarray, theta: np.ndarray) -> float:
        """Sum of f_i(theta) over i in indices, for a single point."""
        return float(self.sums([indices], [[theta]])[0, 0])

    def total_cost(self, theta: np.ndarray) -> float:
        """Full cost f(theta); an O(n) sweep."""
        return self.batch_cost(np.arange(self.n), theta)

    def total_cost_many(self, thetas: np.ndarray) -> np.ndarray:
        """Full cost at each row of thetas."""
        return self.sums([np.arange(self.n)], [thetas])[0]


def build_schedule(
    n: int, batch_size: int, rng: np.random.Generator
) -> Tuple[np.ndarray, ...]:
    """Chunk a uniformly random permutation of the n indices into batches.

    Returns the tuple of T = ceil(n / batch_size) index arrays: every
    batch holds batch_size indices except the last, which holds the
    remainder.  Raises ValueError when batch_size is 0, negative, or
    larger than n.
    """
    if batch_size < 1 or batch_size > n:
        raise ValueError(f"batch_size must be in [1, n={n}], got {batch_size}")
    perm = rng.permutation(n)
    return tuple(perm[start:start + batch_size] for start in range(0, n, batch_size))


def log_potentials(model: CostModel, batch: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """log G = -(batch sum), never exponentiated, stacked over workers:
    batch (W, K) and thetas (W, N, d) give (W, N), row w holding worker
    w's batch potentials at its particles; batch (K,) and thetas (P, d)
    give (P,).  The sums come from one CostModel.sums call; a non-finite
    sum triggers a component-by-component rescan that raises
    EvaluationError with the offending index and point.
    """
    batch = np.asarray(batch)
    thetas = np.asarray(thetas, dtype=float)
    if batch.ndim == 1:
        return log_potentials(model, batch[None], thetas[None])[0]
    sums = model.sums(batch, thetas)
    bad = ~np.isfinite(sums)
    if bad.any():
        # Rescan component-by-component at the bad points, in worker then
        # particle order, to attribute the failure.  A batch sum of +inf
        # with every component finite is plain overflow and stays, giving
        # log G = -inf instead of an error.
        for w, p in zip(*np.nonzero(bad)):
            for i in batch[w]:
                v = float(model.component_eval(int(i), thetas[w, p]))
                if not np.isfinite(v):
                    raise EvaluationError(int(i), thetas[w, p], v)
        still_bad = ~np.isfinite(sums) & ~(sums == np.inf)
        if still_bad.any():
            w, p = (int(a[0]) for a in np.nonzero(still_bad))
            raise EvaluationError(-1, thetas[w, p], float(sums[w, p]))
    return -sums


def normalize_log_weights(log_w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Normalize log-weights over the last axis by the max-shift trick.

    With m = max(log_w) and log_norm = log(sum(exp(log_w - m))) per row,
    returns (m + log_norm, (log_w - m) - log_norm): the log of each row's
    plain-domain total, and log-weights whose exp sums to one along the
    row.  Shift-invariant by construction.  A row that is all -inf is
    degenerate: its total is -inf and its log-weights stay -inf.  Raises
    DegenerateWeightsError when every row is degenerate, and ValueError
    on NaN or +inf.
    """
    log_w = np.asarray(log_w, dtype=float)
    if np.isnan(log_w).any() or (log_w == np.inf).any():
        raise ValueError("log-weights must be in [-inf, inf)")
    m = np.max(log_w, axis=-1, keepdims=True)
    live = m > -np.inf
    if not live.any():
        raise DegenerateWeightsError("all log-weights are -inf")
    shifted = log_w - np.where(live, m, 0.0)  # degenerate rows stay -inf
    log_norm = np.log(np.where(live, np.sum(np.exp(shifted), axis=-1, keepdims=True), 1.0))
    return np.where(live, m + log_norm, -np.inf)[..., 0], shifted - log_norm
