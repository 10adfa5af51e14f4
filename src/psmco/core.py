"""Search spaces, finite-sum cost models, mini-batch schedules, log-weights.

Everything downstream works in the log domain: batch potentials are
log-potentials, weights are log-weights, and normalization subtracts the
max before exponentiating.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

_LOWEST = float(np.finfo(float).min)


def logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(sum(exp(a))) over one axis via the max-shift trick.

    Lean replacement for the general scipy routine on hot paths; inputs
    are log-values in [-inf, inf).  Rows that are all -inf map to -inf.
    """
    a = np.asarray(a, dtype=float)
    m = a.max(axis=axis, keepdims=True)
    # an all--inf row, shifted by _LOWEST, stays -inf; its total 0 is the only
    # one under the exp(0) = 1 each other row holds, and becomes 1: -inf + log(1)
    total = np.exp(a - np.maximum(m, _LOWEST)).sum(axis=axis)
    return m.squeeze(axis) + np.log(np.maximum(total, 1.0))


@functools.lru_cache(maxsize=64)
def ramp(count: int, step: int = 1) -> np.ndarray:
    """arange(count) * step, read-only: a step's index constant, built once."""
    out = np.arange(count) * step
    out.flags.writeable = False
    return out


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

    def __reduce__(self):
        return type(self), (self.index, self.theta, self.value)


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


def clip_to_space(thetas: np.ndarray, space: SearchSpace) -> np.ndarray:
    """Project points (..., d) onto the box, coordinate-wise.  Raises
    ValueError unless their last axis is the box's d."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.shape[-1:] != space.lower.shape:
        raise ValueError(f"points of shape {thetas.shape} for a {space.dim}-d box")
    return thetas.clip(space.lower, space.upper)


@dataclass(frozen=True)
class CostModel:
    """Finite-sum cost f(theta) = sum_{i=1}^{n} f_i(theta).

    component_eval(i, theta) evaluates a single component; indices are
    0-based internally.  batch_eval, when given, takes the ragged form:
    indices (W, K), thetas (R, d) and a nondecreasing owner (R,) in
    [0, W) give the (R,) sums, row r summing f_i over indices[owner[r]]
    at thetas[r]; it must agree with component_eval.  A kernel of points
    f(indices (R, K), thetas (R, d)) adapts as
    lambda idx, th, owner: f(np.take(idx, owner, axis=0), th).  A run's
    schedule indices are of dtype schedule_dtype(n), int32 up to
    n = 2**31.  Evaluations must be deterministic and a point's bits
    must not depend on a call's other points, nor on whether it is
    alone: the sampler evaluates each group of copies once, in one row.
    The stock kernels in problems meet this layout contract.  run_psmco
    may call both callables in forked children: the caller sees none of
    their side effects, such as counters or caches, and no bit changes.
    """

    n: int
    component_eval: Callable[[int, np.ndarray], float]
    batch_eval: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one component")

    def sums(self, indices: np.ndarray, thetas: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """Batch sums over workers' own points, the one evaluation path:
        indices (W, K), thetas (R, d) and owner (R,) give (R,), row r
        summing f_i over indices[owner[r]] at thetas[r].  indices and
        thetas must be 2-d and owner R integers, nondecreasing, in [0, W);
        else ValueError.  batch_eval is called once, and must return R sums
        (else ValueError); a bare component_eval is summed row by row in
        batch order."""
        indices = np.asarray(indices)
        thetas = np.asarray(thetas, dtype=float)
        owner = np.asarray(owner)
        if indices.ndim != 2 or thetas.ndim != 2:
            raise ValueError(f"indices (W, K) and thetas (R, d) must be 2-d, got {indices.shape}, {thetas.shape}")
        if (owner.shape != thetas.shape[:1] or owner.dtype.kind not in "iu"
                or np.count_nonzero(owner[1:] < owner[:-1])
                or owner.size and not 0 <= owner[0] <= owner[-1] < len(indices)):
            raise ValueError(f"owner must hold {len(thetas)} nondecreasing workers in [0, {len(indices)})")
        if self.batch_eval is None:
            out = np.empty(len(thetas))
            for r, (w, theta) in enumerate(zip(owner, thetas)):
                total = 0.0  # a Python float overflows to inf without a warning
                for i in indices[w]:
                    total += float(self.component_eval(int(i), theta))
                out[r] = total
            return out
        out = np.asarray(self.batch_eval(indices, thetas, owner), dtype=float)
        if out.shape != owner.shape:
            raise ValueError(f"batch_eval returned shape {out.shape}, not one sum per row {owner.shape}")
        return out

    def total_cost(self, theta: np.ndarray) -> float:
        """Full cost f(theta); an O(n) sweep."""
        return float(self.total_cost_many([theta])[0])

    def total_cost_many(self, thetas: np.ndarray) -> np.ndarray:
        """Full cost at each row of thetas."""
        index = np.arange(self.n, dtype=schedule_dtype(self.n))[None]
        return self.sums(index, thetas, np.zeros(len(thetas), dtype=np.intp))


def schedule_dtype(n: int) -> type:
    """int32, half intp's memory, while it holds every index below n."""
    return np.int32 if n <= 2**31 else np.intp


def step_count(n: int, batch_size: int) -> int:
    """ceil(n / batch_size) steps, or ValueError unless 1 <= batch_size <= n."""
    if batch_size < 1 or batch_size > n:
        raise ValueError(f"batch_size must be in [1, n={n}], got {batch_size}")
    return -(-n // batch_size)


def build_schedule(n: int, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random permutation of the n indices, to be read as a
    schedule of mini-batches of batch_size consecutive entries, the last
    holding the remainder; step_count's ValueError unless 1 <= batch_size <= n."""
    step_count(n, batch_size)
    return rng.permutation(n)


def label_groups(labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Groups of copies from lineage labels (W, N) in [0, 2N), by a
    table over the W * 2N keys: the labels renumbered to [0, U_w), each
    particle's group in [0, R), groups in worker order, and a member's
    flat row for each of the R = sum U_w groups."""
    w_count, n = labels.shape
    keys = labels + ramp(w_count, 2 * n)[:, None]
    rank = np.full(w_count * 2 * n, -1)
    rank[keys.ravel()] = ramp(w_count * n)  # a member's row: copies are equal
    groups = (rank >= 0).nonzero()[0]
    rows = rank.take(groups)
    rank[groups] = np.arange(len(groups))  # each key's group
    slots = rank.take(keys)
    return slots - slots.min(axis=1, keepdims=True), slots, rows


def log_potentials(model: CostModel, batch: np.ndarray, thetas: np.ndarray, groups=None) -> np.ndarray:
    """log G = -(batch sum), never exponentiated, stacked over workers:
    batch (W, K) and thetas (W, N, d) give (W, N), row w holding worker
    w's batch potentials at its particles; a batch that is not 2-d, or a
    batch count other than W, raises ValueError.  Each group
    of groups, label_groups' last two results (None: every particle), is
    evaluated once, in one sums call on a point per group owned by its
    worker; the layout contract of CostModel gives every copy the bits of
    its own evaluation.  A non-finite sum triggers a component-by-component
    rescan that raises EvaluationError with the offending index and point.
    """
    batch = np.asarray(batch)
    thetas = np.asarray(thetas, dtype=float)
    if batch.ndim != 2:
        raise ValueError(f"batch must be (W, K), got shape {batch.shape}")
    w_count, n, d = thetas.shape
    if len(batch) != w_count:
        raise ValueError(f"{len(batch)} batches for {w_count} workers")
    slots, rows = groups or (ramp(w_count * n).reshape(w_count, n), ramp(w_count * n))
    sums = model.sums(batch, thetas.reshape(-1, d).take(rows, axis=0), rows // n).take(slots)
    bad = ~np.isfinite(sums)
    if np.count_nonzero(bad):
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
    ValueError on NaN or +inf.
    """
    log_w = np.asarray(log_w, dtype=float)
    m = log_w.max(axis=-1, keepdims=True)  # NaN or +inf when a row holds one
    if not (m < np.inf).all():
        raise ValueError("log-weights must be in [-inf, inf)")
    shifted = log_w - np.maximum(m, _LOWEST)  # a degenerate row, as in logsumexp
    total = np.exp(shifted).sum(axis=-1, keepdims=True)
    log_norm = np.log(np.maximum(total, 1.0, out=total))
    return (m + log_norm)[..., 0], shifted - log_norm
