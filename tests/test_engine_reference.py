"""The stacked engine against the single-worker reference sampler.

run_psmco advances all workers together; reference_sampler.run steps
them one at a time with the plain single-worker code.  Every per-step
normalizer, final particle and emission row must agree bit for bit, so
both consume each worker's stream in stream format v3's order.
"""

import numpy as np
import pytest

import psmco.problems as problems
import reference_sampler
from psmco.core import CostModel, SearchSpace
from psmco.parallel import OptimizerConfig, run_psmco
from psmco.problems import (
    MixtureProblemSpec,
    SigmoidProblemSpec,
    make_mixture_problem,
    make_sigmoid_problem,
)


def assert_matches_reference(model, space, config):
    _, record = run_psmco(model, space, config)
    log_z, particles, rows = reference_sampler.run(model, space, config)
    assert record.log_z_by_step.tobytes() == log_z.tobytes()
    assert record.final_particles.tobytes() == particles.tobytes()
    assert len(record.rows) == len(rows)
    for got, (iteration, worker, cumulative, theta, f_value) in zip(record.rows, rows):
        assert (got.iteration, got.worker, tuple(got.log_z.tolist()), got.f_value) == (
            iteration, worker, cumulative, f_value
        )
        assert got.theta.tobytes() == theta.tobytes()
    return record


STOCK = {
    # n is not a multiple of batch_size=5, so the last batch is short
    "mixture": lambda: make_mixture_problem(MixtureProblemSpec(n=23)),
    "sigmoid": lambda: make_sigmoid_problem(SigmoidProblemSpec(n=47)),
}


@pytest.mark.parametrize("m_workers", [1, 3])
@pytest.mark.parametrize("name", sorted(STOCK))
def test_stock_problems_match_reference_at_any_block_size(name, m_workers, monkeypatch):
    """The stock kernels evaluate all workers in one block by default; an
    element budget of one worker per block gives the same traces."""
    problem = STOCK[name]()
    config = OptimizerConfig(
        m_workers=m_workers, n_particles=12, batch_size=5, proposal_std=0.5, seed=4,
        estimate_every=2, keep_final_particles=True,
    )
    default = assert_matches_reference(problem.model, problem.space, config)
    monkeypatch.setattr(problems, "STACK_BUDGET", 1)
    one_per_block = assert_matches_reference(problem.model, problem.space, config)
    assert one_per_block.log_z_by_step.tobytes() == default.log_z_by_step.tobytes()
    assert one_per_block.final_particles.tobytes() == default.final_particles.tobytes()
    assert [r.theta.tobytes() for r in one_per_block.rows] == [r.theta.tobytes() for r in default.rows]


def test_draw_blocks_match_reference():
    """N=100 draws B = 2048 // 200 = 10 steps at a time: T=23 runs two
    full blocks, then a partial last block of 3 steps."""
    problem = STOCK["mixture"]()
    config = OptimizerConfig(
        m_workers=3, n_particles=100, batch_size=1, proposal_std=0.5, seed=7,
        estimate_every=5, keep_final_particles=True,
    )
    record = assert_matches_reference(problem.model, problem.space, config)
    assert record.log_z_by_step.shape == (23, 3)


# Components 3 and 11 cost 1e308 where theta > 0 and nothing elsewhere;
# the rest pull theta towards 0.5.  A batch holding both overflows to
# +inf, so log G = -inf, at every particle with theta > 0.
POISON = (3, 11)


def component(i, theta):
    if i in POISON:
        return 1e308 if theta[0] > 0 else 0.0
    d = theta[0] - 0.5
    return float(d * d)


def batch(indices, thetas, owner=None):
    """Sum of component values over the batch, added in batch order as
    a component-only model does, for (K,)/(P, 1) or ragged (W, K)/(R, 1)/(R,)."""
    rows = np.asarray(indices) if owner is None else np.take(indices, owner, axis=0)
    theta = thetas[:, 0]
    d = theta - 0.5
    total = np.zeros(theta.shape)
    with np.errstate(over="ignore"):
        for k in range(rows.shape[-1]):
            poison = np.isin(rows[..., k], POISON)
            total = total + np.where(poison, np.where(theta > 0, 1e308, 0.0), d * d)
    return total


MODELS = {
    "stacked batch_eval": CostModel(n=21, component_eval=component, batch_eval=batch, stacked=True),
    "single-worker batch_eval": CostModel(n=21, component_eval=component, batch_eval=batch),
    "component_eval only": CostModel(n=21, component_eval=component),
}


@pytest.mark.parametrize("form", sorted(MODELS))
def test_degenerate_worker_matches_reference(form):
    """Worker 1 degenerates at step 4 of 6 (the last batch is short); it
    records -inf, keeps its jittered particles, and the others run on.
    Every model form evaluates the same sums, so all give this run."""
    space = SearchSpace(np.array([-1.0]), np.array([1.0]))
    config = OptimizerConfig(
        m_workers=3, n_particles=8, batch_size=4, proposal_std=0.3, seed=3,
        estimate_every=1, keep_final_particles=True,
    )
    record = assert_matches_reference(MODELS[form], space, config)
    dead = (record.log_z_by_step == -np.inf).tolist()
    assert dead == [[False] * 3] * 3 + [[False, True, False]] + [[False] * 3] * 2
    assert [r.log_z[1] == -np.inf for r in record.rows] == [False] * 3 + [True] * 3
    assert all(np.isfinite(r.log_z[0]) and np.isfinite(r.log_z[2]) for r in record.rows)
