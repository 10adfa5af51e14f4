"""Multi-worker optimizer: independent samplers ranked by accumulated
normalizer estimates, with the point estimate read off the best worker.

Workers never exchange particles.  Each one owns an RNG stream spawned
from the master seed, builds its own mini-batch schedule, and runs the
same number of steps; a worker's trajectory therefore depends only on
the seed and its index.  So the M workers run in P = min(M, usable CPUs)
contiguous parts, part 0 here and each other one in a child forked at
the start of the run that pipes its results back.  A part stacks its
workers into one ParticleSystem; each step is one sampler_step over the
step's batches and draws.  step_draws is the one reader of the workers'
streams after their schedules and initial particles: it takes them a
block of steps at a time (stream format v3: each worker's uniforms, then
noise for its moved particles).  A part returns its per-step normalizers,
best worker's KDE mode per emission, final particles and error.  The caller
sums the normalizers into cumulative log Z, ranks all workers, evaluates the
full cost and raises what one process would raise first: no byte depends on P.
It returns the run as one RunRecord of per-emission and per-step arrays.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing
import os
import pickle
import sys
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import CostModel, SearchSpace, build_schedule, schedule_dtype, step_count
from .kde import bandwidth_rule, map_estimate
from .sampler import JitterKernelSpec, init_particles, jitter_epsilon, sampler_step, step_draws


class RunFailureError(RuntimeError):
    """The whole run degenerated.  Carries the per-step normalizer trace
    for diagnosis."""

    def __init__(self, message: str, log_z_by_step: np.ndarray):
        self.log_z_by_step = np.array(log_z_by_step)  # its own rows, not a view of the run's
        super().__init__(message)

    def __reduce__(self):
        return type(self), (self.args[0], self.log_z_by_step)


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for a full multi-worker run.

    estimate_every=None emits a single estimate at the final step;
    estimate_every=1 emits one per step.  Worker m draws from child m of
    SeedSequence(seed).spawn(m_workers), which does not depend on
    m_workers.  The jitter settings are checked by jitter_epsilon, the
    same rule the run's JitterKernelSpec applies.
    """

    m_workers: int
    n_particles: int
    batch_size: int
    proposal_std: float
    epsilon: Optional[float] = None
    seed: int = 0
    estimate_every: Optional[int] = None
    init_point: Optional[Tuple[float, ...]] = None
    init_std: float = 0.0

    def __post_init__(self):
        if self.m_workers < 1:
            raise ValueError("m_workers must be at least 1")
        jitter_epsilon(self.proposal_std, self.n_particles, self.epsilon)
        if not (self.init_std >= 0 and math.isfinite(self.init_std)):
            raise ValueError("init_std must be finite and non-negative")
        if self.init_point is not None and not all(math.isfinite(v) for v in self.init_point):
            raise ValueError("init_point must be finite")
        if self.estimate_every is not None and self.estimate_every < 1:
            raise ValueError("estimate_every must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class RunRecord:
    iterations: np.ndarray  # (E,) the step after which each of the E emissions was made
    winners: np.ndarray  # (E,) select_best_worker of each row of log_z
    thetas: np.ndarray  # (E, d) the winner's KDE mode
    f_values: np.ndarray  # (E,) the full cost at thetas
    log_z: np.ndarray  # (E, M) cumulative log Z at each emission
    log_z_by_step: np.ndarray  # (T, M) per-step normalizer estimates
    final_particles: np.ndarray  # (M, N, d) after the last step
    wall_time: float
    parts: int  # P, the processes the workers ran in


def select_best_worker(log_z: Sequence[float]) -> Union[int, np.ndarray]:
    """Index of the highest accumulated normalizer; ties pick the lowest
    index.  An (E, M) stack gives the (E,) indices of its rows.  Raises
    ValueError on an empty row, a NaN, or a row all -inf, the first bad row's
    error (run_psmco stops with RunFailureError before an emission can
    see all -inf)."""
    arr = np.asarray(log_z, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] < 1:
        raise ValueError("need a non-empty 1-d array of values, or a stack of them")
    rows = arr.reshape(-1, arr.shape[-1])
    nan = np.isnan(rows).any(axis=1)
    bad = (nan | (rows == -np.inf).all(axis=1)).nonzero()[0]
    if len(bad):
        raise ValueError("NaN normalizer value" if nan[bad[0]] else "all workers have log Z = -inf")
    return rows.argmax(axis=1) if arr.ndim == 2 else int(arr.argmax())


def _usable_cpus() -> int:
    """How many CPUs this process may run on: the most parts a run takes."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _fork_is_quiet() -> bool:
    """Whether this process can fork without a warning.  Python 3.12 and
    later warn when a process with more than one thread forks, and numpy's
    BLAS may start threads; without /proc they go uncounted."""
    if sys.version_info < (3, 12) or not hasattr(os, "fork"):
        return hasattr(os, "fork")
    return os.path.isdir("/proc/self/task") and len(os.listdir("/proc/self/task")) == 1


def _send_result(conn, function, args) -> None:
    conn.send(function(*args))


def _in_processes(function, arg_tuples):
    """function's result for each tuple of arguments, in order: the first
    computed here, each other in a child forked for it.  A child that ends
    with no result that can be read raises RuntimeError; no child outlives
    the call."""
    context = multiprocessing.get_context("fork")
    results, children = [], []
    try:
        for args in arg_tuples[1:]:
            reader, writer = context.Pipe(duplex=False)
            child = context.Process(target=_send_result, args=(writer, function, args))
            child.start()
            children.append((child, reader))
            writer.close()
        results.append(function(*arg_tuples[0]))
        for part, (child, reader) in enumerate(children, 1):
            try:
                results.append(reader.recv())
            except Exception as e:  # no result, or one that cannot be unpickled
                child.join()
                raise RuntimeError(f"worker part {part} ended with no result, exit code {child.exitcode}") from e
        return results
    finally:
        for part, (child, reader) in enumerate(children, 1):
            reader.close()
            if part >= len(results):  # its result is no longer wanted
                child.terminate()
            child.join()


def _picklable(e: Exception) -> Exception:
    """e, or a RuntimeError naming it if it cannot be pickled and loaded
    back (pickling may run any code of its class)."""
    try:
        pickle.loads(pickle.dumps(e))
    except Exception:
        return RuntimeError(f"{type(e).__name__}: {e}")
    return e


def _run_part(model: CostModel, space: SearchSpace, config: OptimizerConfig, emissions: List[int],
              lo: int, hi: int, marks: np.ndarray, part: int):
    """Run workers lo..hi-1 stacked for T = emissions[-1] steps: returns their
    (T, W) per-step log Z, best worker's KDE mode after each step in emissions,
    final particles and the exception that stopped them (a RuntimeError if it
    cannot be pickled) or None.  marks (2, P), shared, from T, get the part's
    first step with every cumulative log Z -inf (it stays so) and the step that
    raised, -1 in the setup; the part stops once the marks end the run.  Each
    emission copies the best cloud; one map_estimate call finds a block's modes."""
    log_z_by_step = np.empty((emissions[-1], hi - lo))
    cumulative = np.zeros(hi - lo)  # the running sum of log_z_by_step's rows, the part's only one
    n, block = config.n_particles, max(1, 2**15 // config.n_particles**2)  # <= 2**15 distances a call
    thetas, clouds = np.empty((len(emissions), space.dim)), np.empty((block, n, space.dim))
    labels = np.empty((block, n), dtype=np.intp)
    done = emitted = 0  # emissions with a mode, emissions copied

    def modes():
        nonlocal done
        if emitted > done:
            thetas[done:emitted] = map_estimate(clouds[:emitted - done], bandwidth, labels[:emitted - done])[1]
            done = emitted
        return thetas[:done]

    t = -1
    try:
        seeds = np.random.SeedSequence(config.seed).spawn(config.m_workers)[lo:hi]
        rngs = [np.random.default_rng(child) for child in seeds]
        kernel = JitterKernelSpec(space, config.proposal_std, config.n_particles, config.epsilon)
        # row m is worker lo + m's permutation; step t's batches are its
        # columns [t*K, (t+1)*K), the last step taking the remainder
        schedule = np.empty((hi - lo, model.n), dtype=schedule_dtype(model.n))
        for m, rng in enumerate(rngs):  # row by row: one permutation held at a time
            schedule[m] = build_schedule(model.n, config.batch_size, rng)
        system = init_particles(space, config.n_particles, rngs, config.init_point, config.init_std)
        bandwidth = bandwidth_rule(config.n_particles, space.dim)
        for t, draws in enumerate(step_draws(system, kernel, len(log_z_by_step))):
            batches = schedule[:, t * config.batch_size:(t + 1) * config.batch_size]
            log_z_by_step[t] = sampler_step(system, model, batches, kernel, draws)
            with np.errstate(over="ignore"):  # a sum sunk to -inf fails the run, see run_psmco
                np.add(cumulative, log_z_by_step[t], out=cumulative)
            if cumulative.max() == -math.inf:
                marks[0, part] = min(marks[0, part], t)
            if t + 1 == emissions[emitted]:
                best = int(cumulative.argmax())  # select_best_worker's pick, where it has one
                clouds[emitted - done], labels[emitted - done] = system.particles[best], system.labels[best]
                emitted += 1
                if emitted - done == block:
                    modes()
            if min(max(marks[0].tolist()), min(marks[1].tolist())) <= t:
                break
    except Exception as e:  # the caller raises it if it is the run's first
        marks[1, part] = t
        return log_z_by_step, modes(), None, _picklable(e)
    return log_z_by_step, modes(), system.particles, None


def run_psmco(
    model: CostModel,
    space: SearchSpace,
    config: OptimizerConfig,
) -> RunRecord:
    """Run M independent samplers over one pass of the data; returns the
    run's record.

    Every worker consumes its own schedule of T = ceil(n/K) disjoint
    batches.  At each emission the workers are ranked by cumulative
    log-normalizer, the running sum of the per-step ones, the winner's
    particle cloud is summarized by its KDE mode (bandwidth from the
    population-size rule), and the full cost is evaluated there.
    RunFailureError is raised at the first step after which every
    worker's cumulative log Z is -inf.  Of the errors of the P parts
    (module docstring), the one of the earliest step, then of the lowest
    worker, is raised.
    """
    start = time.perf_counter()
    total_steps = step_count(model.n, config.batch_size)
    stride = config.estimate_every or total_steps
    emissions = [*range(stride, total_steps, stride), total_steps]
    parts = min(config.m_workers, _usable_cpus()) if _fork_is_quiet() else 1
    marks = np.frombuffer(mmap.mmap(-1, 16 * parts), dtype=np.int64).reshape(2, parts)
    marks[:] = total_steps
    bounds = [config.m_workers * j // parts for j in range(parts + 1)]
    by_step, part_thetas, particles, errors = zip(*_in_processes(_run_part, [
        (model, space, config, emissions, bounds[j], bounds[j + 1], marks, j) for j in range(parts)
    ]))
    log_z_by_step = np.concatenate(by_step, axis=1)
    failed, raised = int(marks[0].max()), int(marks[1].min())
    ended = min(failed, raised)  # T when the run went through
    with np.errstate(over="ignore"):  # the same additions as _run_part's
        cumulative = np.cumsum(log_z_by_step[:max(ended, 0)], axis=0)
    # the emissions' rows, owning their memory: at stride 1 all of cumulative, uncopied
    log_z = cumulative if stride == 1 else cumulative[[e - 1 for e in emissions if e <= ended]]
    iterations = np.array(emissions[:len(log_z)])
    winners = select_best_worker(log_z)
    modes = np.stack([thetas[:len(log_z)] for thetas in part_thetas])  # (P, E, d)
    thetas = modes[np.searchsorted(bounds, winners, side="right") - 1, np.arange(len(log_z))]
    keys = [theta.tobytes() for theta in thetas]  # emissions repeat thetas often
    try:  # one full cost per distinct theta, in the order first emitted
        costs = {key: model.total_cost(theta) for key, theta in dict(zip(keys, thetas)).items()}
    except Exception as error:  # the route of an error in a part
        raise _picklable(error)
    f_values = np.array([costs[key] for key in keys])
    if raised == ended < total_steps:
        raise errors[int(np.argmin(marks[1]))]
    if failed == ended < total_steps:
        message = f"every worker's cumulative log Z is -inf by iteration {failed + 1}"
        raise RunFailureError(message, log_z_by_step[:failed + 1])
    final_particles = np.concatenate(particles)
    return RunRecord(iterations, winners, thetas, f_values, log_z, log_z_by_step, final_particles,
                     time.perf_counter() - start, parts)
