"""Benchmark problems and the stochastic-gradient baseline.

Two finite-sum costs are provided: a two-dimensional Gaussian-mixture
landscape with four wells, and a one-feature sigmoid regression whose
cost surface has large flat regions.  Both expose exact per-component
evaluation plus a vectorized batch path, and both are generated from a
seed so datasets are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from . import core
from .core import CostModel, SearchSpace, build_schedule, logsumexp, schedule_dtype, step_count


def _pairwise_slabs(block_eval, width: int, indices, thetas, owner) -> np.ndarray:
    """block_eval's sums over the K columns of indices, in slabs of at
    most width >= 128 columns added in numpy's pairwise order (above 128
    elements .sum() adds its halves, the first rounded down to a multiple
    of 8), so that a row keeps the bits of one .sum() over it."""
    if indices.shape[1] <= width:
        return block_eval(indices, thetas, owner)
    half = indices.shape[1] // 16 * 8  # K // 2, rounded down to a multiple of 8
    left = _pairwise_slabs(block_eval, width, indices[:, :half], thetas, owner)
    with np.errstate(over="ignore"):  # as a whole-row .sum() would overflow to inf
        return left + _pairwise_slabs(block_eval, width, indices[:, half:], thetas, owner)


def _batch_kernel(block_eval, per_pair: int):
    """A CostModel batch_eval over block_eval(indices (V, K), thetas
    (C, d), owner (C,)) -> (C,) row sums, each one .sum(), called on at
    most max(128, core.STACK_BUDGET // per_pair) (point, index) pairs at a time.

    The ragged call, indices (W, K), thetas (R, d) and owner (R,), is cut
    into chunks of rows and pairwise column slabs under that bound; a
    chunk gets only the batches of the workers it spans, owner shifted to
    match, so block_eval can gather each worker's batch once.  block_eval
    must give a point the same bits whatever else the call holds, as both
    stock kernels do.
    """

    def batch_eval(indices: np.ndarray, thetas: np.ndarray, owner: np.ndarray) -> np.ndarray:
        out = np.empty(len(thetas))
        width = max(128, core.STACK_BUDGET // per_pair)
        chunk = max(1, core.STACK_BUDGET // (per_pair * max(1, min(indices.shape[1], width))))
        for c in range(0, len(thetas), chunk):
            own = owner[c:c + chunk]
            out[c:c + chunk] = _pairwise_slabs(block_eval, width, indices[own[0]:own[-1] + 1], thetas[c:c + chunk],
                                               own - own[0])
        return out

    return batch_eval


def _check_common(spec) -> None:
    """Rules shared by both problem specs: n, half_width and the data seed."""
    if spec.n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 < spec.half_width < math.inf:
        raise ValueError("half_width must be positive and finite")
    if spec.seed < 0:
        raise ValueError("the data seed must be non-negative")


# ---------------------------------------------------------------------------
# four-well Gaussian mixture cost


@dataclass(frozen=True)
class MixtureProblemSpec:
    """Finite sum of per-datum mixture surprisals.

    Component i is -(1/lam) * log of a 4-part equal-weight Gaussian
    mixture with isotropic covariance r*I in 2-d; the 4 centers for each
    datum are drawn once around the base centers with variance mean_var.
    """

    n: int = 1000
    lam: float = 10.0
    r: float = 0.2
    mean_var: float = 0.5
    base_means: Tuple[Tuple[float, float], ...] = (
        (4.0, 4.0),
        (-4.0, -4.0),
        (-4.0, 4.0),
        (4.0, -4.0),
    )
    seed: int = 0
    half_width: float = 50.0
    dim = 2  # the normalizer in make_mixture_problem is the 2-d one

    def __post_init__(self):
        _check_common(self)
        if not all(v > 0 and math.isfinite(v) for v in (self.lam, self.r)):
            raise ValueError("lam and r must be positive and finite")
        if not (self.mean_var >= 0 and math.isfinite(self.mean_var)):
            raise ValueError("mean_var must be finite and non-negative")


@dataclass(frozen=True)
class MixtureProblem:
    spec: MixtureProblemSpec
    model: CostModel
    space: SearchSpace
    means: np.ndarray  # (n, 4, 2) mixture centers per component


def make_mixture_problem(spec: MixtureProblemSpec) -> MixtureProblem:
    """Draw the per-component centers and wrap the cost as a CostModel."""
    rng = np.random.default_rng(spec.seed)
    base = np.asarray(spec.base_means, dtype=float)  # (4, 2)
    k_parts, d = base.shape
    means = base[None, :, :] + rng.normal(
        0.0, math.sqrt(spec.mean_var), size=(spec.n, k_parts, d)
    )
    inv_two_r = 1.0 / (2.0 * spec.r)
    log_norm = math.log(2.0 * math.pi * spec.r)  # 2-d isotropic normalizer
    # coordinate-major centers, so the kernel reduces over leading axes
    by_coord = np.ascontiguousarray(means.transpose(2, 1, 0))  # (d, 4, n)

    def component_eval(i: int, theta: np.ndarray) -> float:
        diff = np.asarray(theta, dtype=float)[None, :] - means[i]  # (4, 2)
        sq = np.einsum("kd,kd->k", diff, diff)
        return float(-(logsumexp(-sq * inv_two_r) - log_norm) / spec.lam)

    def block_eval(indices: np.ndarray, thetas: np.ndarray, owner: np.ndarray) -> np.ndarray:
        # (d, 4, C, K) centers minus (d, 1, C, 1) points; every reduction
        # runs over a leading axis of (C, K) slabs
        diff = by_coord.take(indices.take(owner, axis=0), axis=2)
        diff -= thetas.T[:, None, :, None]
        with np.errstate(over="ignore"):
            a = np.square(diff, out=diff).sum(axis=0) * -inv_two_r  # (4, C, K)
        return (logsumexp(a, axis=0) - log_norm).sum(axis=-1)

    # diff holds k_parts * d elements per pair; the extra half is tuned against page faults (README)
    inner_sums = _batch_kernel(block_eval, k_parts * d * 3 // 2)
    model = CostModel(
        n=spec.n,
        component_eval=component_eval,
        batch_eval=lambda indices, thetas, owner: inner_sums(indices, thetas, owner) / -spec.lam,
    )
    space = SearchSpace(
        lower=np.full(d, -spec.half_width), upper=np.full(d, spec.half_width)
    )
    return MixtureProblem(spec=spec, model=model, space=space, means=means)


def find_grid_minima(
    model: CostModel,
    lower: np.ndarray,
    upper: np.ndarray,
    num_points: int = 200,
) -> Tuple[np.ndarray, np.ndarray]:
    """Locate interior local minima of the total cost on a regular 2-d grid.

    A grid node is a minimum when strictly below all 8 neighbors (edges
    padded with +inf).  Returns (coords, values) sorted by ascending
    value.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    xs = np.linspace(lower[0], upper[0], num_points)
    ys = np.linspace(lower[1], upper[1], num_points)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    vals = model.total_cost_many(pts).reshape(num_points, num_points)
    padded = np.pad(vals, 1, constant_values=np.inf)
    is_min = np.ones_like(vals, dtype=bool)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            if dx == 0 and dy == 0:
                continue
            neighbor = padded[1 + dx:1 + dx + num_points, 1 + dy:1 + dy + num_points]
            is_min &= vals < neighbor
    ii, jj = np.nonzero(is_min)
    coords = np.column_stack([xs[ii], ys[jj]])
    found = vals[ii, jj]
    order = np.argsort(found)
    return coords[order], found[order]


# ---------------------------------------------------------------------------
# sigmoid regression cost


@dataclass(frozen=True)
class SigmoidProblemSpec:
    """Squared-error fit of a two-parameter sigmoid to scalar data.

    g_i(theta) = sigmoid(theta_0 + theta_1 * x_i) and component i is
    (y_i - g_i)^2.  Inputs are uniform on [x_low, x_high]; targets are
    the noiseless sigmoid at theta_true unless noise_std > 0.
    """

    n: int = 100000
    x_low: float = -2.5
    x_high: float = 2.5
    theta_true: Tuple[float, float] = (1.0, -2.0)
    noise_std: float = 0.0
    seed: int = 0
    half_width: float = 200.0
    dim = 2  # theta = (intercept, slope)

    def __post_init__(self):
        _check_common(self)
        if not (math.isfinite(self.x_low) and math.isfinite(self.x_high) and self.x_low < self.x_high):
            raise ValueError("need finite x_low < x_high")
        if len(self.theta_true) != self.dim:
            raise ValueError(f"theta_true must have {self.dim} coordinates")
        if not all(math.isfinite(v) for v in self.theta_true):
            raise ValueError("theta_true must be finite")
        if not (self.noise_std >= 0 and math.isfinite(self.noise_std)):
            raise ValueError("noise_std must be finite and non-negative")


@dataclass(frozen=True)
class SigmoidProblem:
    spec: SigmoidProblemSpec
    model: CostModel
    space: SearchSpace
    x: np.ndarray
    y: np.ndarray

    def mean_gradient(self, theta: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Average gradient of the components in `indices` at theta,
        stacked: theta (..., 2) and indices (..., K) give (..., 2)."""
        from scipy.special import expit
        theta = np.asarray(theta, dtype=float)
        xb = self.x[indices]
        yb = self.y[indices]
        g = expit(theta[..., 0, None] + theta[..., 1, None] * xb)
        common = -2.0 * (yb - g) * g * (1.0 - g)
        return np.stack([common.mean(axis=-1), (common * xb).mean(axis=-1)], axis=-1)


def make_sigmoid_problem(spec: SigmoidProblemSpec) -> SigmoidProblem:
    from scipy.special import expit  # only the sigmoid problem needs scipy
    rng = np.random.default_rng(spec.seed)
    x = rng.uniform(spec.x_low, spec.x_high, size=spec.n)
    t0, t1 = spec.theta_true
    y = expit(t0 + t1 * x)
    if spec.noise_std > 0:
        y = y + rng.normal(0.0, spec.noise_std, size=spec.n)

    def component_eval(i: int, theta: np.ndarray) -> float:
        theta = np.asarray(theta, dtype=float)
        g = expit(theta[0] + theta[1] * x[i])
        return float((y[i] - g) ** 2)

    def block_eval(indices: np.ndarray, thetas: np.ndarray, owner: np.ndarray) -> np.ndarray:
        z = x[indices].take(owner, axis=0)  # (C, K)
        z *= thetas[:, 1, None]
        z += thetas[:, 0, None]
        resid = y[indices].take(owner, axis=0)
        resid -= expit(z, out=z)
        # a contiguous last axis is summed pairwise row by row, so a
        # point's bits do not depend on the call's other points
        return np.square(resid, out=resid).sum(axis=-1)

    model = CostModel(
        n=spec.n,
        component_eval=component_eval,
        batch_eval=_batch_kernel(block_eval, 1),
    )
    space = SearchSpace(
        lower=np.full(2, -spec.half_width), upper=np.full(2, spec.half_width)
    )
    return SigmoidProblem(spec=spec, model=model, space=space, x=x, y=y)


# ---------------------------------------------------------------------------
# parallel stochastic-gradient baseline


@dataclass(frozen=True)
class PSGDConfig:
    """Independent gradient-descent chains on the same finite sum.

    Each chain starts at init_point plus Gaussian noise of std init_std
    and uses the decaying step eta_t = step_size / sqrt(t); step_size=0
    freezes the chains at their starting points.  Batches follow the
    sampler's pass: step_count(n, batch_size) steps, the last holding the
    remainder, over a fresh build_schedule permutation per chain each pass,
    so run_psgd_baseline refuses a batch_size above n as the sampler does.
    """

    n_chains: int = 25
    step_size: float = 0.5
    init_point: Tuple[float, float] = (0.0, 0.0)
    init_std: float = 0.0
    batch_size: int = 100
    iterations: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.n_chains < 1:
            raise ValueError("need at least one chain")
        if self.batch_size < 1:
            raise ValueError("batch size must be positive")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if not (self.step_size >= 0 and math.isfinite(self.step_size)):
            raise ValueError("step_size must be finite and non-negative")
        if not (self.init_std >= 0 and math.isfinite(self.init_std)):
            raise ValueError("init_std must be finite and non-negative")
        if not all(math.isfinite(v) for v in self.init_point):
            raise ValueError("init_point must be finite")


@dataclass
class PSGDRecord:
    f_best: np.ndarray        # (iterations + 1,), entry t is min over chains after t updates
    thetas: np.ndarray        # (n_chains, 2) final chain positions
    f_final: np.ndarray       # (n_chains,) final full costs


def run_psgd_baseline(problem: SigmoidProblem, config: PSGDConfig) -> PSGDRecord:
    """Run all chains in lockstep; tracks min-over-chains full cost.

    Chains never talk to each other; the only aggregate is the reported
    best cost at each iteration, which gives the baseline the benefit of
    oracle chain selection.
    """
    rng = np.random.default_rng(config.seed)
    m = config.n_chains
    n = problem.spec.n
    k = config.batch_size
    steps = step_count(n, k)
    thetas = np.asarray(config.init_point, dtype=float)[None, :] + rng.normal(
        0.0, config.init_std, size=(m, 2)
    )
    costs = problem.model.total_cost_many(thetas)
    f_best = [costs.min()]

    perms = np.empty((m, n), dtype=schedule_dtype(n))
    for t in range(1, config.iterations + 1):
        s = (t - 1) % steps  # step s of the pass reads columns [sK, (s+1)K)
        if s == 0:
            for c in range(m):
                perms[c] = build_schedule(n, k, rng)
        grad = problem.mean_gradient(thetas, perms[:, s * k:(s + 1) * k])
        before, thetas = thetas, thetas - (config.step_size / math.sqrt(t)) * grad
        moved = (thetas.view(np.int64) != before.view(np.int64)).any(axis=1)
        if moved.any():  # a row's cost does not depend on the call's other rows
            costs[moved] = problem.model.total_cost_many(thetas[moved])
        f_best.append(costs.min())

    return PSGDRecord(
        f_best=np.array(f_best),
        thetas=thetas,
        f_final=costs,
    )
