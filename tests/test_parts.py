"""The run split into parts: run_psmco steps its M workers in
P = min(M, usable CPUs) contiguous parts, part 0 in the caller and each
other part in a forked child.  Whatever P is, the artifacts are the same
bytes and the run raises what one process stepping every worker would
raise first.  parallel._usable_cpus is the seam that forces P here."""

import math
import multiprocessing
import os
import pickle
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import psmco.cli as cli
import psmco.parallel as parallel
import reference_sampler
import test_engine_reference as engine
import test_golden as golden
import test_parallel as one_process
from psmco.core import CostModel, EvaluationError, SearchSpace
from psmco.parallel import OptimizerConfig, RunFailureError, run_psmco
from psmco.problems import MixtureProblemSpec, make_mixture_problem

FORCED = [1, 2, 3, 8]  # 8 is more parts than any run here has workers

needs_fork = pytest.mark.skipif(
    not parallel._fork_is_quiet(), reason="forking would warn here, so every run takes one part"
)


@pytest.fixture
def force_parts(monkeypatch):
    def force(parts):
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: parts)
    return force


def test_engine_errors_survive_pickling():
    theta = np.array([0.25, -1.5])
    error = EvaluationError(3, theta, math.nan)
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is EvaluationError and str(back) == str(error)
    assert (back.index, back.theta.tobytes()) == (3, theta.tobytes()) and math.isnan(back.value)
    log_z = np.array([[-1.0, -np.inf], [2.5, -np.inf]])
    back = pickle.loads(pickle.dumps(RunFailureError("all sank", log_z)))
    assert type(back) is RunFailureError and str(back) == "all sank"
    assert back.log_z_by_step.tobytes() == log_z.tobytes()


# ---------------------------------------------------------------------------
# the same bytes whatever the part count


@pytest.mark.parametrize("parts", FORCED)
@pytest.mark.parametrize("name", sorted(set(golden.CASES) - {"psgd"}))  # psgd never calls run_psmco
def test_golden_digests_whatever_the_part_count(name, parts, force_parts, tmp_path):
    force_parts(parts)
    golden.test_artifact_digests(name, tmp_path)


@pytest.mark.parametrize("parts", FORCED)
@pytest.mark.parametrize("m_workers", [1, 3])
@pytest.mark.parametrize("name", sorted(engine.STOCK))
def test_stock_problems_match_reference_whatever_the_part_count(name, m_workers, parts, force_parts, monkeypatch):
    force_parts(parts)
    engine.test_stock_problems_match_reference_at_any_block_size(name, m_workers, monkeypatch)


@pytest.mark.parametrize("parts", FORCED)
def test_draw_blocks_and_degenerate_workers_match_reference_whatever_the_part_count(parts, force_parts):
    force_parts(parts)
    engine.test_draw_blocks_match_reference()
    for form in sorted(engine.MODELS):
        engine.test_degenerate_worker_matches_reference(form)


@pytest.mark.parametrize("parts", FORCED)
def test_degenerate_runs_whatever_the_part_count(parts, force_parts):
    force_parts(parts)
    one_process.test_all_workers_degenerate_is_run_failure()
    one_process.test_cumulative_overflow_is_run_failure()
    for estimate_every in (1, 3, None):
        one_process.test_step_normalizers_telescope_to_emitted_log_z("one worker degenerates", estimate_every)


def raised(model, space, config):
    with pytest.raises(Exception) as caught:
        run_psmco(model, space, config)
    return caught.value


# Two components of 1e308 overflow a batch sum to +inf, so a worker's
# step normalizer and then its cumulative log Z sink to -inf for good.
SINKING = CostModel(n=12, component_eval=lambda i, th: 1e308 if i < 8 else float(th[0] ** 2))
LINE = SearchSpace(np.array([-1.0]), np.array([1.0]))


@pytest.mark.parametrize("parts", FORCED[1:])
def test_run_fails_when_the_last_part_sinks(parts, force_parts):
    """Workers sink at different steps, so the parts do too: the run
    fails at the step by which every worker has sunk, with the per-step
    normalizers up to it, as in one process."""
    config = OptimizerConfig(m_workers=5, n_particles=6, batch_size=3, proposal_std=0.1, seed=1)
    force_parts(1)
    one = raised(SINKING, LINE, config)
    first_sunk = np.argmax(one.log_z_by_step == -np.inf, axis=0)
    assert type(one) is RunFailureError and len(set(first_sunk.tolist())) > 1
    force_parts(parts)
    got = raised(SINKING, LINE, config)
    assert (type(got), str(got)) == (RunFailureError, str(one))
    assert got.log_z_by_step.tobytes() == one.log_z_by_step.tobytes()


@needs_fork
def test_a_part_stops_once_the_marks_end_the_run(force_parts, monkeypatch):
    """Every worker sinks at the first of 20,000 steps: the run fails
    there, and part 0 stops once the child's mark shows that its worker
    has sunk too, long before the end of the data."""
    step, steps = parallel.sampler_step, []
    monkeypatch.setattr(parallel, "sampler_step", lambda *args: steps.append(1) or step(*args))
    force_parts(2)
    config = OptimizerConfig(m_workers=2, n_particles=4, batch_size=2, proposal_std=0.1, seed=0)
    error = raised(CostModel(n=40_000, component_eval=lambda i, th: 1e308), LINE, config)
    assert type(error) is RunFailureError and error.log_z_by_step.shape == (1, 2)
    assert 1 <= len(steps) < 10_000


# ---------------------------------------------------------------------------
# which error a run raises


NAN_AT = 5


def nan_at(i, theta):
    return math.nan if i == NAN_AT else float((theta[0] - 0.5) ** 2)


def first_nan_steps(config, n, component=NAN_AT):
    """The step at which each worker's batch first holds component, at
    batch size 1: the entry's place in its permutation, the first draw
    of its stream."""
    children = np.random.SeedSequence(config.seed).spawn(config.m_workers)
    return [int(np.flatnonzero(np.random.default_rng(c).permutation(n) == component)[0]) for c in children]


def part_errs_first(part):
    """A config of two parts, workers 0-1 and 2-3, whose given part meets
    the NaN at an earlier step than the other part does."""
    for seed in range(100):
        config = OptimizerConfig(m_workers=4, n_particles=5, batch_size=1, proposal_std=0.3, seed=seed)
        steps = first_nan_steps(config, 8)
        first = [min(steps[:2]), min(steps[2:])]
        if first[part] < first[1 - part]:
            return config
    raise AssertionError("no seed in range(100) orders the errors so")


def run_argv(config, tmp_path, *overrides):
    """psmco run with a config's sizes on a model the test puts in place."""
    argv = ["run", "--profile", "mixture-5.1", "--seed", str(config.seed), "--out", str(tmp_path)]
    for override in ("n=8", "m_workers=4", "n_particles=5", "batch_size=1", "jitter_var=0.09", *overrides):
        argv += ["--override", override]
    return argv


@needs_fork
def test_error_of_the_earliest_step_wins_over_a_lower_part(force_parts, monkeypatch, tmp_path, capsys):
    """Part 0 (workers 0-1) raises first in time but at a later step
    than part 1 (workers 2-3), which is held until part 0 has raised: the
    caller gets part 1's error, as one process would raise it, and the
    command line exits with code 3."""
    model, space = CostModel(n=8, component_eval=nan_at), SearchSpace(np.array([-1.0]), np.array([1.0]))
    config = part_errs_first(1)
    force_parts(1)
    one = raised(model, space, config)
    assert type(one) is EvaluationError and one.index == NAN_AT

    run_part, errors = parallel._run_part, []

    def ordered(*args):
        marks, part = args[-2:]
        deadline = time.monotonic() + 30.0
        while part == 1 and marks[1, 0] == 8 and time.monotonic() < deadline:
            time.sleep(0.001)  # until part 0 has raised: its mark leaves T = 8
        result = run_part(*args)
        errors.append((part, int(marks[1, part]), result[-1]))
        return result

    monkeypatch.setattr(parallel, "_run_part", ordered)
    force_parts(2)
    got = raised(model, space, config)
    assert type(got) is EvaluationError
    assert (got.index, got.theta.tobytes(), str(got)) == (one.index, one.theta.tobytes(), str(one))
    [(part, step, own)] = errors  # part 0's record; part 1's is in its child
    assert part == 0 and step == min(first_nan_steps(config, 8)[:2]) and type(own) is EvaluationError
    assert step > min(first_nan_steps(config, 8)[2:])

    problem = SimpleNamespace(model=model, space=space)
    monkeypatch.setattr(cli, "build_problem", lambda config: problem)
    assert cli.main(run_argv(config, tmp_path)) == 3
    assert capsys.readouterr().err == f"run failed: {one}\n"


class Boom(Exception):
    """Pickles, but cannot be unpickled: its args hold the message, not
    the two arguments __init__ takes."""

    def __init__(self, where, why):
        super().__init__(f"{why} at component {where}")


def boom_at(i, theta):
    if i == NAN_AT:
        raise Boom(i, "boom")
    return float((theta[0] - 0.5) ** 2)


@pytest.mark.parametrize("parts", FORCED)
def test_an_error_that_cannot_be_unpickled_is_named(parts, force_parts, monkeypatch, tmp_path, capsys):
    """Every part turns such an error into a RuntimeError naming it, so
    it crosses the pipe and the run raises the same error whatever P is,
    here from part 1 when there are two; the command exits with code 3.
    The caller's full-cost sweep at an emission meets the Boom first when
    it emits every step, and names it the same way."""
    force_parts(parts)
    model, config = CostModel(n=8, component_eval=boom_at), part_errs_first(1)
    error = raised(model, LINE, config)
    assert (type(error), str(error)) == (RuntimeError, "Boom: boom at component 5")
    monkeypatch.setattr(cli, "build_problem", lambda config: SimpleNamespace(model=model, space=LINE))
    for every in ("null", "1"):  # one emission, at the end, or a full-cost sweep at each step
        assert cli.main(run_argv(config, tmp_path, f"estimate_every={every}")) == 3
        assert capsys.readouterr().err == "run failed: Boom: boom at component 5\n"


@needs_fork
def test_an_earlier_error_wins_over_one_that_cannot_be_unpickled(force_parts, monkeypatch):
    """Part 1 raises a Boom in its child at a later step than part 0's
    EvaluationError, and part 0 is held until it has: the run raises part
    0's error, as one process would."""
    parent = os.getpid()

    def component(i, theta):
        if i == NAN_AT and os.getpid() != parent:
            raise Boom(i, "boom")
        return nan_at(i, theta)

    model, config = CostModel(n=8, component_eval=component), part_errs_first(0)
    force_parts(1)
    one = raised(model, LINE, config)
    assert type(one) is EvaluationError and one.index == NAN_AT

    run_part = parallel._run_part

    def ordered(*args):
        marks, part = args[-2:]
        deadline = time.monotonic() + 30.0
        while part == 0 and marks[1, 1] == 8 and time.monotonic() < deadline:
            time.sleep(0.001)  # until part 1 has raised: its mark leaves T = 8
        return run_part(*args)

    monkeypatch.setattr(parallel, "_run_part", ordered)
    force_parts(2)
    got = raised(model, LINE, config)
    assert type(got) is EvaluationError
    assert (got.index, got.theta.tobytes(), str(got)) == (one.index, one.theta.tobytes(), str(one))


# ---------------------------------------------------------------------------
# emissions found a block at a time

# N = 100 particles give blocks of 2**15 // 100**2 = 3 emissions
STACKED_N, BLOCK = 100, 3


def mid_block(copied):
    """A config of 3 workers of STACKED_N particles on 12 components at
    batch size 1, emitting every step, whose copied(config), the
    emissions copied before the run stops, fills more than two blocks
    and stops inside a block."""
    for seed in range(200):
        config = OptimizerConfig(m_workers=3, n_particles=STACKED_N, batch_size=1, proposal_std=0.3, seed=seed,
                                 estimate_every=1)
        if copied(config) > 2 * BLOCK and copied(config) % BLOCK:
            return config
    raise AssertionError("no seed in range(200) stops the run so")


def nan_step(config):
    return min(first_nan_steps(config, 12))


def reference_error(model, config):
    with pytest.raises(Exception) as caught:
        reference_sampler.run(model, LINE, config)
    return caught.value


def test_modes_are_found_a_block_at_a_time(force_parts, monkeypatch):
    """One map_estimate call per block of emissions, and one for the rest
    at the end; the modes are the one-process reference's."""
    find, calls = parallel.map_estimate, []
    monkeypatch.setattr(parallel, "map_estimate", lambda *args: calls.append(len(args[0])) or find(*args))
    force_parts(1)
    config = OptimizerConfig(m_workers=2, n_particles=STACKED_N, batch_size=1, proposal_std=0.3, seed=0,
                             estimate_every=1)
    model = CostModel(n=14, component_eval=lambda i, th: float((th[0] - 0.1 * i) ** 2))
    engine.assert_matches_reference(model, LINE, config)
    assert calls == [BLOCK] * 4 + [2]


@pytest.mark.parametrize("parts", FORCED[:3])
def test_a_step_error_inside_a_block_is_the_one_process_error(parts, force_parts):
    """A component's NaN stops the run inside the third block of
    emissions or later: the run raises the reference's EvaluationError."""
    config, model = mid_block(nan_step), CostModel(n=12, component_eval=nan_at)
    want = reference_error(model, config)
    force_parts(parts)
    got = raised(model, LINE, config)
    assert type(got) is EvaluationError and got.index == NAN_AT
    assert (got.theta.tobytes(), str(got)) == (want.theta.tobytes(), str(want))


class FullCostError(Exception):
    pass


@pytest.mark.parametrize("parts", FORCED[:3])
def test_a_full_cost_error_inside_a_block_comes_before_a_later_step_error(parts, force_parts):
    """The full cost raises at the first emission of a theta past two
    blocks, and a component's NaN stops a later step of the same run:
    every part's copied emissions get their modes, and the full-cost
    error is raised first, as by the reference."""
    config = mid_block(nan_step)
    benign = CostModel(n=12, component_eval=lambda i, th: nan_at(i, th) if i != NAN_AT else 0.0)
    force_parts(1)
    keys = [theta.tobytes() for theta in run_psmco(benign, LINE, config).thetas[:nan_step(config)]]
    first = next(j for j in range(2 * BLOCK, len(keys)) if keys[j] not in keys[:j])

    def batch(indices, thetas, owner):
        if indices.shape[1] == 12 and thetas[0].tobytes() == keys[first]:
            raise FullCostError(f"full cost at {thetas[0].tolist()}")
        return np.array([sum(nan_at(int(i), theta) for i in indices[w]) for w, theta in zip(owner, thetas)])

    model = CostModel(n=12, component_eval=nan_at, batch_eval=batch)
    want = reference_error(model, config)
    assert type(want) is FullCostError
    force_parts(parts)
    got = raised(model, LINE, config)
    assert (type(got), str(got)) == (FullCostError, str(want))


@pytest.mark.parametrize("parts", FORCED[:3])
def test_a_run_that_sinks_inside_a_block_fails_as_in_one_process(parts, force_parts):
    """Components NAN_AT and 9 cost 1e308 each, so a worker's cumulative
    log Z sinks at the second of them: the run fails inside a block, with
    the reference's per-step normalizers."""
    def cost(i, theta):
        return 1e308 if i in (NAN_AT, 9) else float((theta[0] - 0.5) ** 2)

    def sunk(config):
        return max(map(max, first_nan_steps(config, 12), first_nan_steps(config, 12, 9)))

    config, model = mid_block(lambda config: sunk(config) + 1), CostModel(n=12, component_eval=cost)
    want = reference_error(model, config)
    force_parts(parts)
    got = raised(model, LINE, config)
    assert type(got) is RunFailureError and type(want) is RunFailureError
    assert str(got) == f"every worker's cumulative log Z is -inf by iteration {sunk(config) + 1}"
    assert got.log_z_by_step.tobytes() == want.log_z_by_step.tobytes()


def test_a_record_names_its_part_count(force_parts, monkeypatch, tmp_path, capsys):
    """RunRecord.parts is the P a run took, and psmco run prints it beside
    the wall time; a process that cannot fork quietly takes one part."""
    model = CostModel(n=8, component_eval=lambda i, th: float((th[0] - 0.5) ** 2))
    config = part_errs_first(1)
    monkeypatch.setattr(cli, "build_problem", lambda config: SimpleNamespace(model=model, space=LINE))
    force_parts(3)
    expected = 3 if parallel._fork_is_quiet() else 1
    assert run_psmco(model, LINE, config).parts == expected
    assert cli.main(run_argv(config, tmp_path)) == 0
    assert capsys.readouterr().out.endswith(f" parts={expected}\n")
    monkeypatch.setattr(parallel, "_fork_is_quiet", lambda: False)
    assert run_psmco(model, LINE, config).parts == 1


# ---------------------------------------------------------------------------
# no child outlives a run


def in_children(action):
    """A mixture model whose components call action() in a forked child."""
    problem = make_mixture_problem(MixtureProblemSpec(n=12))
    parent = os.getpid()

    def component(i, theta):
        if os.getpid() != parent:
            action()
        return problem.model.component_eval(i, theta)

    return CostModel(n=12, component_eval=component), problem.space


def raise_value_error():
    raise ValueError("raised in a child")


CHILD_CASES = {  # what the children do -> what the run raises
    "normal": (lambda: None, None),
    "exception in a child": (raise_value_error, (ValueError, "raised in a child")),
    "child dies": (lambda: os._exit(7), (RuntimeError, "worker part 1 ended with no result, exit code 7")),
}


@needs_fork
@pytest.mark.parametrize("case", sorted(CHILD_CASES))
def test_no_child_outlives_a_run(case, force_parts):
    """Three parts, so two children; neither is left running or
    unreaped, and the run warns of nothing."""
    force_parts(3)
    action, expected = CHILD_CASES[case]
    model, space = in_children(action)
    config = OptimizerConfig(m_workers=4, n_particles=6, batch_size=3, proposal_std=0.5, seed=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if expected is None:
            assert run_psmco(model, space, config).final_particles.shape == (4, 6, 2)
        else:
            error = raised(model, space, config)
            assert (type(error), str(error)) == expected
    assert caught == []
    assert multiprocessing.active_children() == []


@needs_fork
def test_a_dead_child_fails_the_command_with_code_3(force_parts, monkeypatch, tmp_path, capsys):
    force_parts(2)
    model, space = in_children(lambda: os._exit(7))
    monkeypatch.setattr(cli, "build_problem", lambda config: SimpleNamespace(model=model, space=space))
    argv = ["run", "--profile", "mixture-5.1", "--override", "n=12", "--override", "m_workers=2",
            "--override", "n_particles=6", "--out", str(tmp_path)]
    assert cli.main(argv) == 3
    assert "worker part 1 ended with no result, exit code 7" in capsys.readouterr().err
    assert multiprocessing.active_children() == []
