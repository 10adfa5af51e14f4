import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

import psmco.parallel as parallel
from psmco.core import CostModel, SearchSpace, build_schedule, log_potentials, schedule_dtype
from psmco.parallel import (
    OptimizerConfig,
    RunFailureError,
    run_psmco,
    select_best_worker,
)
from psmco.problems import (
    MixtureProblemSpec,
    PSGDConfig,
    SigmoidProblemSpec,
    make_mixture_problem,
    make_sigmoid_problem,
    run_psgd_baseline,
)


def small_mixture(n=40):
    return make_mixture_problem(MixtureProblemSpec(n=n))


def small_config(**kw):
    base = dict(m_workers=4, n_particles=16, batch_size=3, proposal_std=0.5, seed=0)
    base.update(kw)
    return OptimizerConfig(**base)


# ---------------------------------------------------------------------------
# worker selection


def test_select_examples():
    assert select_best_worker([-5.0, -3.2, -9.1]) == 1
    assert select_best_worker([-2.0, -2.0, -2.0]) == 0
    assert select_best_worker([-np.inf, -10.0]) == 1
    assert select_best_worker([0.0]) == 0


def test_select_all_minus_inf():
    with pytest.raises(ValueError, match="-inf"):
        select_best_worker([-np.inf, -np.inf])


def test_select_rejects_nan_and_empty():
    with pytest.raises(ValueError):
        select_best_worker([0.0, np.nan])
    with pytest.raises(ValueError):
        select_best_worker([])


def test_select_on_a_stack_is_the_rule_per_row():
    """An (E, M) stack gives each row's winner, and raises the error the
    first bad row raises alone: rows are checked in order."""
    rng = np.random.default_rng(1)
    for _ in range(200):
        rows = rng.choice([-np.inf, -1.0, 0.0, 2.0, np.nan], p=[0.3, 0.25, 0.2, 0.2, 0.05], size=rng.integers(1, 6, 2))
        want = []
        for row in rows:
            try:
                want.append(select_best_worker(row))
            except ValueError as e:
                with pytest.raises(ValueError) as caught:
                    select_best_worker(rows)
                assert str(caught.value) == str(e)
                break
        else:
            got = select_best_worker(rows)
            assert got.shape == (len(rows),) and got.tolist() == want
    assert select_best_worker(np.zeros((0, 3))).shape == (0,)
    with pytest.raises(ValueError):
        select_best_worker(np.zeros((2, 0)))


def test_select_shift_invariant():
    rng = np.random.default_rng(0)
    for _ in range(25):
        vals = np.round(rng.normal(size=6), 6)  # spacing far above ulp(1e3)
        base = select_best_worker(vals)
        for c in (-1e3, 1e3):
            assert select_best_worker(vals + c) == base


# ---------------------------------------------------------------------------
# orchestration


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(m_workers=0)
    with pytest.raises(ValueError):
        small_config(n_particles=0)
    with pytest.raises(ValueError):
        small_config(estimate_every=0)


def test_emission_iterations_stride():
    prob = small_mixture(n=10)
    cfg = small_config(batch_size=1, estimate_every=3)
    rec = run_psmco(prob.model, prob.space, cfg)
    assert rec.iterations.tolist() == [3, 6, 9, 10]
    # the emitted cumulative log Z is one (E, M) array, one row per emission
    assert rec.log_z.shape == (4, 4)
    assert_columns_agree(rec, prob.model, [3, 6, 9, 10])
    rec = run_psmco(prob.model, prob.space, small_config(batch_size=1))
    assert rec.iterations.tolist() == [10]
    rec = run_psmco(prob.model, prob.space, small_config(batch_size=1, estimate_every=1))
    assert rec.iterations.tolist() == list(range(1, 11))


def test_rows_satisfy_selection_invariant():
    prob = small_mixture(n=30)
    cfg = small_config(batch_size=4, estimate_every=2)
    rec = run_psmco(prob.model, prob.space, cfg)
    assert_columns_agree(rec, prob.model, [2, 4, 6, 8])
    assert rec.winners.tolist() == np.argmax(rec.log_z, axis=1).tolist()
    assert (prob.space.lower <= rec.thetas).all() and (rec.thetas <= prob.space.upper).all()
    for theta, f_value in zip(rec.thetas, rec.f_values):
        assert f_value == pytest.approx(prob.model.total_cost(theta), rel=1e-12)
    assert rec.log_z_by_step.shape == (8, 4)
    assert rec.wall_time > 0.0


def test_constant_cost_ties_select_first_worker():
    model = CostModel(n=12, component_eval=lambda i, th: 0.0)
    space = SearchSpace(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    cfg = small_config(batch_size=3, estimate_every=1)
    rec = run_psmco(model, space, cfg)
    assert rec.winners.tolist() == [0] * len(rec.log_z)
    assert rec.log_z.tolist() == [[0.0, 0.0, 0.0, 0.0]] * len(rec.log_z)


def test_single_worker_reduces_to_plain_sampler():
    """M=1 must equal one hand-driven sampler sharing the rng stream."""
    from psmco.kde import bandwidth_rule, map_estimate
    from psmco.sampler import JitterKernelSpec, init_particles, sampler_step, step_draws

    prob = small_mixture(n=24)
    cfg = OptimizerConfig(
        m_workers=1, n_particles=20, batch_size=2, proposal_std=0.5, seed=11
    )
    rec = run_psmco(prob.model, prob.space, cfg)

    rng = np.random.default_rng(np.random.SeedSequence(11).spawn(1)[0])
    perm = build_schedule(24, 2, rng)
    sched = [perm[start:start + 2] for start in range(0, 24, 2)]
    system = init_particles(prob.space, 20, [rng])
    kernel = JitterKernelSpec(space=prob.space, proposal_std=0.5, n_particles=20)
    steps = [sampler_step(system, prob.model, batch[None], kernel, draws)
             for batch, draws in zip(sched, step_draws(system, kernel, len(sched)))]
    _, theta = map_estimate(system.particles[0], bandwidth_rule(20, 2))

    np.testing.assert_array_equal(rec.thetas[-1], theta)
    assert rec.log_z_by_step.tolist() == np.array(steps).tolist()
    assert rec.log_z[-1].tolist() == sum(steps).tolist()  # the running sum, in step order
    assert rec.winners[-1] == 0
    # the record keeps the final particles with no option asked for
    assert rec.final_particles.shape == (1, 20, 2)
    assert rec.final_particles.tobytes() == system.particles.tobytes()


def test_run_deterministic_across_repeats():
    prob = small_mixture(n=36)
    outs = []
    for _ in range(3):
        cfg = small_config(batch_size=3, estimate_every=2)
        rec = run_psmco(prob.model, prob.space, cfg)
        outs.append(rec)
    for other in outs[1:]:
        assert len(outs[0].iterations) == len(other.iterations)
        assert outs[0].log_z.tobytes() == other.log_z.tobytes()
        np.testing.assert_array_equal(outs[0].thetas, other.thetas)
        assert outs[0].f_values.tolist() == other.f_values.tolist()
        assert outs[0].winners.tolist() == other.winners.tolist()
        np.testing.assert_array_equal(outs[0].log_z_by_step, other.log_z_by_step)
        np.testing.assert_array_equal(outs[0].final_particles, other.final_particles)


def test_worker_trajectory_independent_of_worker_count():
    """No cross-worker state: worker m's stream is child m of the seed's
    spawn, whatever M is, so the first workers of a larger run repeat a
    smaller run exactly."""
    prob = small_mixture(n=30)
    cfg_small = small_config(m_workers=3, batch_size=5, estimate_every=1)
    cfg_big = small_config(m_workers=5, batch_size=5, estimate_every=1)
    small = run_psmco(prob.model, prob.space, cfg_small)
    big = run_psmco(prob.model, prob.space, cfg_big)
    np.testing.assert_array_equal(big.log_z_by_step[:, :3], small.log_z_by_step)
    np.testing.assert_array_equal(big.final_particles[:3], small.final_particles)
    assert len(big.iterations) == len(small.iterations) == 6
    np.testing.assert_array_equal(big.log_z[:, :3], small.log_z)


def test_worker_trajectory_independent_of_worker_count_across_draw_blocks():
    """The same across draw blocks: N=40 draws B = 2048 // 80 = 25 steps
    at a time, so T=30 runs blocks of 25 and 5."""
    prob = small_mixture(n=30)
    small, big = (
        run_psmco(prob.model, prob.space, small_config(
            m_workers=m, n_particles=40, batch_size=1, estimate_every=1,
        ))
        for m in (2, 5)
    )
    assert big.log_z_by_step.shape == (30, 5)
    np.testing.assert_array_equal(big.log_z_by_step[:, :2], small.log_z_by_step)
    np.testing.assert_array_equal(big.final_particles[:2], small.final_particles)
    assert len(big.iterations) == len(small.iterations) == 30
    np.testing.assert_array_equal(big.log_z[:, :2], small.log_z)


def assert_columns_agree(record, model, emission_steps):
    """The per-emission columns: one entry per row of log_z, made at the
    emission steps, each an array of its own; winners rank log_z and
    f_values are the full costs at thetas, bit for bit."""
    columns = (record.iterations, record.winners, record.thetas, record.f_values)
    assert [len(column) for column in columns] == [len(record.log_z)] * 4
    assert all(column.base is None for column in columns)
    assert record.iterations.tolist() == emission_steps
    assert record.winners.tolist() == [select_best_worker(row) for row in record.log_z]
    for theta, f_value in zip(record.thetas, record.f_values):
        assert f_value.tobytes() == np.float64(model.total_cost(theta)).tobytes()


def owns_its_rows(array):
    """Not a view that keeps a larger array alive."""
    return array.base is None or array.base.shape == array.shape


def poisoned(i, theta):
    """Components 0-2 cost 1e308 where theta > 0, so a batch of two of them
    overflows to log G = -inf there; the rest pull theta towards 0.5."""
    return 1e308 if (i < 3 and theta[0] > 0) else 20.0 * (theta[0] - 0.5) ** 2


@pytest.mark.parametrize("estimate_every", [1, 3, None])
@pytest.mark.parametrize("case", ["healthy", "one worker degenerates"])
def test_step_normalizers_telescope_to_emitted_log_z(case, estimate_every):
    """The per-step normalizers of each worker sum, in step order, to the
    cumulative log Z of every emission, bit for bit; a worker that
    degenerates mid-run has -inf in both."""
    if case == "healthy":
        prob = small_mixture(n=30)  # 8 steps
        model, space = prob.model, prob.space
        cfg = small_config(batch_size=4, estimate_every=estimate_every)
    else:
        model = CostModel(n=9, component_eval=poisoned)  # 5 steps
        space = SearchSpace(np.array([-1.0]), np.array([1.0]))
        cfg = OptimizerConfig(m_workers=3, n_particles=4, batch_size=2, proposal_std=0.3, seed=0,
                              estimate_every=estimate_every)
    record = run_psmco(model, space, cfg)
    dead = (record.log_z_by_step == -np.inf).tolist()
    if case == "healthy":
        assert not np.any(dead)
    else:
        assert dead == [[False] * 3] * 3 + [[False, True, False]] + [[False] * 3]
    steps = len(record.log_z_by_step)
    stride = estimate_every or steps
    assert_columns_agree(record, model, [*range(stride, steps, stride), steps])
    for array in (record.log_z, record.log_z_by_step, record.final_particles):
        assert owns_its_rows(array)
    for iteration, log_z in zip(record.iterations.tolist(), record.log_z):
        with np.errstate(over="ignore"):  # a sum may sink to -inf, as the cumulative one does
            assert record.log_z_by_step[:iteration].sum(axis=0).tolist() == log_z.tolist()


@pytest.mark.parametrize("batch_size", [0, -5, 11])
def test_batch_size_outside_one_to_n_is_refused_before_any_fork(batch_size, monkeypatch):
    monkeypatch.setattr(parallel, "_in_processes", None)  # a call would raise TypeError
    prob = small_mixture(n=10)
    message = re.escape(f"batch_size must be in [1, n=10], got {batch_size}")
    with pytest.raises(ValueError, match=message):
        run_psmco(prob.model, prob.space, small_config(batch_size=batch_size))


def test_schedules_hold_int32_indices_while_they_fit(monkeypatch):
    assert schedule_dtype(2**31) is np.int32  # indices up to 2**31 - 1
    # the recorder sees only this process's calls: one part runs every worker
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
    assert schedule_dtype(2**31 + 1) is np.intp
    seen = []

    def recording(indices, thetas, owner):
        if indices.shape[1] < 40:  # a step's batch, not a full-cost sweep
            seen.append(indices.dtype)
        return prob.model.batch_eval(indices, thetas, owner)

    prob = small_mixture()
    model = dataclasses.replace(prob.model, batch_eval=recording)
    run_psmco(model, prob.space, small_config())
    assert set(seen) == {np.dtype(np.int32)} and len(seen) == 14

    sig = make_sigmoid_problem(SigmoidProblemSpec(n=50))
    gradient = type(sig).mean_gradient

    class Recording(type(sig)):
        def mean_gradient(self, theta, indices):
            seen.append(indices.dtype)
            return gradient(self, theta, indices)

    seen.clear()
    cfg = PSGDConfig(n_chains=3, batch_size=20, iterations=4)
    rec = run_psgd_baseline(Recording(**vars(sig)), cfg)
    assert set(seen) == {np.dtype(np.int32)} and len(seen) == 4
    np.testing.assert_array_equal(rec.f_best, run_psgd_baseline(sig, cfg).f_best)


def test_schedule_sum_recovers_total_cost_at_random_points():
    """Each worker's batches tile the component set, so the accumulated
    batch potentials, summed component by component, reproduce the
    stock kernel's -f anywhere."""
    prob = make_mixture_problem(MixtureProblemSpec(n=300))
    components = CostModel(n=300, component_eval=prob.model.component_eval)
    rng = np.random.default_rng(42)
    points = rng.uniform(-50, 50, size=(10, 2))
    for worker_seed in (0, 1, 2):
        wrng = np.random.default_rng(worker_seed)
        for k in (1, 7):
            perm = build_schedule(300, k, wrng)
            sched = [perm[start:start + k] for start in range(0, 300, k)]
            for theta in points:
                acc = sum(log_potentials(components, b[None], theta[None, None])[0, 0] for b in sched)
                assert acc == pytest.approx(-prob.model.total_cost(theta), rel=1e-9)


def test_all_workers_degenerate_is_run_failure():
    model = CostModel(n=4, component_eval=lambda i, th: 1e308)
    space = SearchSpace(np.array([-1.0]), np.array([1.0]))
    cfg = OptimizerConfig(m_workers=2, n_particles=8, batch_size=2, proposal_std=0.1, seed=0)
    with pytest.raises(RunFailureError) as exc:
        run_psmco(model, space, cfg)
    assert exc.value.log_z_by_step.shape == (1, 2)  # stops at the first all--inf step
    assert owns_its_rows(exc.value.log_z_by_step)
    assert (exc.value.log_z_by_step == -np.inf).all()


def test_cumulative_overflow_is_run_failure():
    """Every step normalizer is finite, but the second one sinks each
    worker's cumulative log Z to -inf: that is a run failure, raised with
    the per-step trace, not a ranking error at the emission.  The
    expected overflow raises no RuntimeWarning."""
    model = CostModel(n=2, component_eval=lambda i, th: 1e308)
    space = SearchSpace(np.array([-1.0]), np.array([1.0]))
    cfg = OptimizerConfig(m_workers=2, n_particles=8, batch_size=1, proposal_std=0.1, seed=0)
    with warnings.catch_warnings(record=True) as caught, pytest.raises(RunFailureError) as exc:
        warnings.simplefilter("always")
        run_psmco(model, space, cfg)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert exc.value.log_z_by_step.shape == (2, 2)
    assert np.isfinite(exc.value.log_z_by_step).all()


def test_selection_shift_invariance_end_to_end():
    """Adding a constant to every component shifts all workers' log Z
    equally and leaves every selection unchanged."""
    prob = small_mixture(n=25)
    shift = 2.0

    def shifted(i, th):
        return prob.model.component_eval(i, th) + shift

    base_model = prob.model
    shifted_model = CostModel(
        n=base_model.n,
        component_eval=shifted,
        batch_eval=lambda idx, th, owner: base_model.batch_eval(idx, th, owner) + shift * idx.shape[1],
    )
    cfg = small_config(batch_size=5, estimate_every=1)
    rec_a = run_psmco(base_model, prob.space, cfg)
    rec_b = run_psmco(shifted_model, prob.space, cfg)
    assert rec_a.winners.tolist() == rec_b.winners.tolist()
