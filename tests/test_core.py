import math

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from psmco.core import (
    CostModel,
    EvaluationError,
    SearchSpace,
    build_schedule,
    clip_to_space,
    distinct_points,
    log_potentials,
    logsumexp_last,
    normalize_log_weights,
)
from psmco.sampler import (
    JitterKernelSpec,
    ParticleSystem,
    init_particles,
    jitter,
    sampler_step,
    step_draws,
)


def box(lo, hi, d=2):
    return SearchSpace(np.full(d, float(lo)), np.full(d, float(hi)))


# ---------------------------------------------------------------------------
# SearchSpace


def test_space_basic():
    s = box(-50, 50)
    assert s.dim == 2
    assert s.contains(np.array([0.0, 0.0]))
    assert s.contains(np.array([50.0, -50.0]))  # boundary included
    assert not s.contains(np.array([50.1, 0.0]))
    assert s.contains(np.array([[0.0, 0.0], [50.0, -50.0]]))  # every row
    assert not s.contains(np.array([[0.0, 0.0], [50.1, 0.0]]))


def test_space_rejects_degenerate_box():
    with pytest.raises(ValueError):
        SearchSpace(np.array([0.0, 0.0]), np.array([0.0, 1.0]))


def test_space_rejects_inverted_and_malformed_bounds():
    with pytest.raises(ValueError):
        SearchSpace(np.array([1.0]), np.array([-1.0]))
    with pytest.raises(ValueError):
        SearchSpace(np.array([0.0, 0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        SearchSpace(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        SearchSpace(np.array([0.0]), np.array([np.inf]))


def test_clip_to_space():
    s = box(-50, 50)
    np.testing.assert_array_equal(
        clip_to_space(np.array([0.0, 0.0]), s), [0.0, 0.0]
    )
    np.testing.assert_array_equal(
        clip_to_space(np.array([60.0, -70.0]), s), [50.0, -50.0]
    )
    s1 = SearchSpace(np.array([-1.0]), np.array([1.0]))
    np.testing.assert_array_equal(clip_to_space(np.array([-1.0]), s1), [-1.0])


# ---------------------------------------------------------------------------
# schedules


def slice_batches(perm, k):
    """The schedule's mini-batches: consecutive slices of k indices."""
    return [perm[start:start + k] for start in range(0, len(perm), k)]


def test_schedule_small_example():
    perm = build_schedule(5, 2, np.random.default_rng(0))
    assert perm.shape == (5,)
    sizes = [len(b) for b in slice_batches(perm, 2)]
    assert sizes == [2, 2, 1]
    union = np.sort(np.concatenate(slice_batches(perm, 2)))
    np.testing.assert_array_equal(union, np.arange(5))


def test_schedule_partition_exhaustive():
    """Every index appears exactly once, at the largest supported scale."""
    n = 10_000
    for k in (1, 7, 100, 9_999, 10_000):
        sched = slice_batches(build_schedule(n, k, np.random.default_rng(k)), k)
        t = len(sched)
        assert t == -(-n // k)
        assert all(len(b) == k for b in sched[:-1])
        assert len(sched[-1]) == n - k * (t - 1)
        union = np.sort(np.concatenate(sched))
        np.testing.assert_array_equal(union, np.arange(n))


def test_schedule_invalid_batch_size():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        build_schedule(10, 0, rng)
    with pytest.raises(ValueError):
        build_schedule(10, 11, rng)
    with pytest.raises(ValueError):
        build_schedule(10, -3, rng)


def test_schedule_deterministic_given_stream():
    a = slice_batches(build_schedule(100, 7, np.random.default_rng(42)), 7)
    b = slice_batches(build_schedule(100, 7, np.random.default_rng(42)), 7)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    c = slice_batches(build_schedule(100, 7, np.random.default_rng(43)), 7)
    assert any(
        not np.array_equal(x, y) for x, y in zip(a, c)
    )


# ---------------------------------------------------------------------------
# log potentials


def constant_model(n, value):
    return CostModel(n=n, component_eval=lambda i, th: float(value))


def log_g(model, batch, theta):
    """log G of one batch at one point, through log_potentials."""
    return log_potentials(model, np.asarray(batch), np.asarray(theta, dtype=float)[None])[0]


def test_log_potential_zero_cost():
    model = constant_model(5, 0.0)
    assert log_g(model, [0, 1, 2], np.zeros(2)) == 0.0


def test_log_potential_single_component():
    model = constant_model(3, 2.5)
    assert log_g(model, [1], np.zeros(2)) == -2.5


def test_log_potential_stays_finite_where_exp_underflows():
    # 100 components of cost 10 each: G = exp(-1000) underflows to 0 in
    # the linear domain, but the log-potential is just -1000
    model = constant_model(100, 10.0)
    lp = log_g(model, np.arange(100), np.zeros(2))
    assert lp == -1000.0
    assert np.exp(lp) == 0.0  # the linear domain really does underflow


def test_log_potential_additive_over_disjoint_batches():
    rng = np.random.default_rng(3)
    values = rng.normal(size=50)
    model = CostModel(n=50, component_eval=lambda i, th: float(values[i]))
    theta = np.zeros(1)
    a = rng.permutation(50)[:20]
    b = np.setdiff1d(np.arange(50), a)[:15]
    whole = log_g(model, np.concatenate([a, b]), theta)
    split = log_g(model, a, theta) + log_g(model, b, theta)
    assert whole == pytest.approx(split, rel=1e-12)


def test_log_potential_nonfinite_component_raises():
    def bad(i, th):
        return math.nan if i == 3 else 1.0

    model = CostModel(n=5, component_eval=bad)
    theta = np.array([0.5, -0.5])
    with pytest.raises(EvaluationError) as exc:
        log_g(model, [0, 3, 4], theta)
    assert exc.value.index == 3
    np.testing.assert_array_equal(exc.value.theta, theta)
    # the stacked form reports the first bad point in worker, then particle order
    thetas = np.array([[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 2.0]]])
    with pytest.raises(EvaluationError) as exc:
        log_potentials(model, np.array([[0, 1], [4, 3]]), thetas)
    assert exc.value.index == 3
    np.testing.assert_array_equal(exc.value.theta, [0.0, 0.0])


def test_log_potentials_nonfinite_rescan_attributes_component():
    def bad(i, th):
        return math.inf if i == 2 else 0.0

    def bad_batch(idx, thetas):
        out = np.zeros(thetas.shape[0])
        if 2 in np.asarray(idx):
            out[:] = np.inf
        return out

    model = CostModel(n=4, component_eval=bad, batch_eval=bad_batch)
    with pytest.raises(EvaluationError) as exc:
        log_potentials(model, np.array([1, 2]), np.zeros((3, 2)))
    assert exc.value.index == 2


def test_stacked_log_potentials_attribute_bad_component_to_its_worker():
    """Stacked batches (W, K): a non-finite component inside worker 1's
    batch is reported with its index and worker 1's point."""
    def comp(i, th):
        return math.nan if i == 5 and th[0] > 0 else float(th @ th)

    def batch(idx, thetas):
        idx = np.asarray(idx)
        out = idx.shape[-1] * np.einsum("...d,...d->...", thetas, thetas)
        bad = (idx == 5).any(axis=-1)[..., None] & (thetas[..., 0] > 0)
        return np.where(bad, np.nan, out)

    thetas = np.array([[[1.0, 0.0], [2.0, 0.0]], [[-1.0, 0.0], [3.0, 1.0]]])
    batches = np.array([[0, 1], [4, 5]])
    for stacked in (True, False):
        model = CostModel(n=6, component_eval=comp, batch_eval=batch, stacked=stacked)
        with pytest.raises(EvaluationError) as exc:
            log_potentials(model, batches, thetas)
        assert exc.value.index == 5
        np.testing.assert_array_equal(exc.value.theta, [3.0, 1.0])
    fine = log_potentials(model, np.array([[0, 1], [2, 3]]), thetas)
    np.testing.assert_array_equal(fine, -2 * np.einsum("wpd,wpd->wp", thetas, thetas))


def test_log_potentials_attribute_a_duplicated_bad_point_in_particle_order():
    """A bad point evaluated once for all its copies is still reported as
    the first bad (worker, particle) in worker-then-particle order: here
    worker 1's particle 1, although its other bad point sorts first."""
    def comp(i, th):
        return math.nan if th[0] > 0 else float(th[0] * th[0])

    model = CostModel(n=3, component_eval=comp)
    thetas = np.array([[[-1.0], [-1.0], [-2.0], [-1.0]], [[-1.0], [3.0], [2.0], [3.0]]])
    with pytest.raises(EvaluationError) as exc:
        log_potentials(model, np.array([[0, 1], [2, 1]]), thetas)
    assert exc.value.index == 2
    np.testing.assert_array_equal(exc.value.theta, [3.0])


def test_log_potentials_overflowing_sum_of_finite_components():
    # each component is finite but the batch sum overflows; that is a
    # legitimate log G = -inf, not an evaluation failure
    model = CostModel(
        n=2,
        component_eval=lambda i, th: 1e308,
        batch_eval=lambda idx, th: np.full(th.shape[0], np.inf),
    )
    out = log_potentials(model, np.array([0, 1]), np.zeros((2, 1)))
    assert (out == -np.inf).all()
    components_only = CostModel(n=2, component_eval=model.component_eval)
    assert log_g(components_only, [0, 1], np.zeros(1)) == -np.inf


def test_log_potentials_matches_scalar_loop():
    rng = np.random.default_rng(11)
    coefs = rng.normal(size=30)

    def comp(i, th):
        return float(coefs[i] * (1.0 + th @ th))

    def batch(idx, thetas):
        s = coefs[np.asarray(idx)].sum()
        return s * (1.0 + np.einsum("pd,pd->p", thetas, thetas))

    model = CostModel(n=30, component_eval=comp, batch_eval=batch)
    thetas = rng.normal(size=(8, 3))
    got = log_potentials(model, np.arange(0, 30, 2), thetas)
    want = np.array([-sum(comp(i, t) for i in range(0, 30, 2)) for t in thetas])
    np.testing.assert_allclose(got, want, rtol=1e-12)


def duplicated_population(rng, w, n, d, pool=4):
    """(w, n, d) points, each worker drawing its n rows from a pool of a
    few points whose coordinates come from {-0.0, 0.0, 1.0}, so rows
    repeat, share first coordinates, and differ only in a zero's sign."""
    values = np.array([-0.0, 0.0, 1.0])
    pools = values[rng.integers(0, 3, size=(w, pool, d))]
    return pools[np.arange(w)[:, None], rng.integers(0, pool, size=(w, n))]


def assert_groups_exact(thetas, reps, inverse):
    """Every point is its group's representative bit for bit, and every
    representative, padding included, is one of its own worker's points."""
    w_count, n, _ = thetas.shape
    assert reps.shape[0] == w_count and inverse.shape == (w_count, n)
    assert reps.shape[1] >= min(n, 2)
    picked = reps[np.arange(w_count)[:, None], inverse]
    assert picked.tobytes() == thetas.tobytes()
    for own, rep in zip(thetas, reps):
        assert {r.tobytes() for r in rep} <= {t.tobytes() for t in own}


@pytest.mark.parametrize("n", [1, 2, 9])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_distinct_points_maps_every_point_to_its_bits(n, d):
    rng = np.random.default_rng(10 * n + d)
    thetas = duplicated_population(rng, 5, n, d)
    reps, inverse = distinct_points(thetas)
    assert_groups_exact(thetas, reps, inverse)
    distinct = max(len({t.tobytes() for t in own}) for own in thetas)
    assert reps.shape[1] >= max(distinct, min(n, 2))


def test_distinct_points_keeps_signed_zeros_apart():
    thetas = np.array([[[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [0.0, -0.0]]])
    reps, inverse = distinct_points(thetas)
    assert reps.shape[1] == 3
    assert inverse[0, 0] == inverse[0, 2]
    assert len({inverse[0, 0], inverse[0, 1], inverse[0, 3]}) == 3
    assert_groups_exact(thetas, reps, inverse)


@pytest.mark.parametrize("n", [1, 2, 6])
def test_distinct_points_of_collapsed_workers(n):
    """init_particles with init_std=0 puts every particle on init_point,
    which leaves min(N, 2) points per worker; a narrower worker next to a
    wide one is padded with its own points only."""
    rngs = [np.random.default_rng(s) for s in range(3)]
    system = init_particles(box(-2, 2, d=3), n, rngs, np.array([0.5, -0.0, 1.0]), init_std=0.0)
    reps, inverse = distinct_points(system.particles)
    assert reps.shape == (3, min(n, 2), 3)
    assert (inverse == 0).all()
    assert_groups_exact(system.particles, reps, inverse)
    wide = np.concatenate([system.particles, np.random.default_rng(1).normal(size=(1, n, 3))])
    reps, inverse = distinct_points(wide)
    assert reps.shape[1] == n
    assert_groups_exact(wide, reps, inverse)


def test_schedule_sum_equals_negative_total_cost():
    """Summing batch log-potentials over a full schedule telescopes to -f."""
    rng = np.random.default_rng(5)
    c = rng.normal(size=500)
    d = rng.normal(size=500)

    def comp(i, th):
        return float(c[i] + d[i] * th[0] ** 2)

    model = CostModel(n=500, component_eval=comp)
    for k in (1, 3, 500):
        sched = slice_batches(build_schedule(500, k, np.random.default_rng(k)), k)
        for theta in rng.normal(size=(4, 1)):
            total = sum(log_g(model, b, theta) for b in sched)
            assert total == pytest.approx(-model.total_cost(theta), rel=1e-9)


# ---------------------------------------------------------------------------
# one evaluation path: CostModel.sums


CENTERS = np.linspace(-1.0, 1.0, 12)


def center_component(i, theta):
    d = theta[0] - CENTERS[i]
    return float(d * d)


def center_batch(indices, thetas):
    """Sum of center_component over the batch, added in batch order, for
    (K,)/(P, d) or stacked (W, K)/(W, P, d)."""
    indices = np.asarray(indices)
    total = np.zeros(thetas.shape[:-1])
    for k in range(indices.shape[-1]):
        d = thetas[..., 0] - CENTERS[indices[..., k]][..., None]
        total = total + d * d
    return total


def counted_forms():
    """The same cost as a stacked, a single-worker and a component-only
    CostModel, and a dict counting the calls of each form's function."""
    calls = {"stacked": 0, "single-worker": 0, "component-only": 0}

    def counting(form, fn):
        def counted(*args):
            calls[form] += 1
            return fn(*args)
        return counted

    models = {
        "stacked": CostModel(
            n=12, component_eval=center_component,
            batch_eval=counting("stacked", center_batch), stacked=True,
        ),
        "single-worker": CostModel(
            n=12, component_eval=center_component, batch_eval=counting("single-worker", center_batch)
        ),
        "component-only": CostModel(n=12, component_eval=counting("component-only", center_component)),
    }
    return models, calls


def test_step_calls_each_model_form_as_declared():
    """Per sampler step: a stacked model's batch_eval is called once for
    all M workers, a single-worker batch_eval M times, and a bare
    component_eval M*U*K times, U being the most distinct jittered
    particles of any worker (at least min(N, 2)); all three forms give
    the same steps."""
    m, n, k = 3, 5, 4
    models, calls = counted_forms()
    batches = np.arange(m * k).reshape(m, k)
    outcome = {}
    for form, model in models.items():
        system = init_particles(box(-2, 2, d=1), n, [np.random.default_rng(s) for s in range(m)])
        kernel = JitterKernelSpec(system.space, proposal_std=0.3, n_particles=n)
        widths = []
        for _ in range(3):
            before = calls[form]
            draws = next(step_draws(system, kernel, 1))
            probe = ParticleSystem(system.particles.copy(), system.space, system.rngs)
            jitter(probe, kernel, *draws[:2])
            distinct = max(len({row.tobytes() for row in worker}) for worker in probe.particles)
            widths.append(max(distinct, min(n, 2)))
            log_z = sampler_step(system, model, batches, kernel, draws)
            per_step = {"stacked": 1, "single-worker": m, "component-only": m * widths[-1] * k}
            assert calls[form] - before == per_step[form]
        assert widths[0] == n and min(widths) < n  # all distinct at first, then copies
        outcome[form] = (log_z.tobytes(), system.particles.tobytes())
    assert outcome["stacked"] == outcome["single-worker"] == outcome["component-only"]


def test_costs_agree_bit_for_bit_across_model_forms():
    """batch_cost, total_cost and total_cost_many, the W=1 calls of sums,
    give the same bits for all three forms of one cost."""
    models, _ = counted_forms()
    thetas = np.random.default_rng(9).uniform(-2, 2, size=(7, 1))
    indices = np.array([11, 0, 5, 3])
    results = {
        form: (
            [model.batch_cost(indices, t) for t in thetas],
            [model.total_cost(t) for t in thetas],
            model.total_cost_many(thetas).tobytes(),
        )
        for form, model in models.items()
    }
    assert results["stacked"] == results["single-worker"] == results["component-only"]
    want = [sum(center_component(i, t) for i in range(12)) for t in thetas]
    np.testing.assert_allclose(results["stacked"][1], want, rtol=1e-12)


# ---------------------------------------------------------------------------
# log-weight normalization


def test_normalize_uniform_over_equal_weights():
    _, out = normalize_log_weights(np.zeros(4))
    np.testing.assert_allclose(np.exp(out), 0.25, rtol=1e-12)


def test_normalize_extreme_magnitude():
    log_total, out = normalize_log_weights(np.array([-1000.0, -1000.0]))
    np.testing.assert_allclose(np.exp(out), [0.5, 0.5], rtol=1e-12)
    assert log_total == pytest.approx(-1000.0 + math.log(2.0), rel=1e-15)


def test_normalize_hand_computed_example():
    log_total, out = normalize_log_weights(np.log([1.0, 3.0]))
    np.testing.assert_allclose(np.exp(out), [0.25, 0.75], rtol=1e-12)
    assert log_total == pytest.approx(math.log(4.0), rel=1e-15)


def test_normalize_shift_invariant():
    rng = np.random.default_rng(9)
    logw = rng.normal(size=16)
    base = np.exp(normalize_log_weights(logw)[1])
    for c in (-1e6, 0.0, 1e6):
        shifted = np.exp(normalize_log_weights(logw + c)[1])
        np.testing.assert_allclose(shifted, base, atol=1e-9)


def test_normalize_sums_to_one():
    rng = np.random.default_rng(13)
    for _ in range(20):
        logw = rng.normal(scale=30.0, size=64)
        assert np.exp(normalize_log_weights(logw)[1]).sum() == pytest.approx(1.0, abs=1e-12)


def test_normalize_all_minus_inf_degenerate():
    """A degenerate input is plain data: total -inf, log-weights -inf."""
    log_total, out = normalize_log_weights(np.full(4, -np.inf))
    assert log_total == -np.inf
    assert out.tolist() == [-np.inf] * 4
    log_total, out = normalize_log_weights(np.full((3, 4), -np.inf))
    assert log_total.tolist() == [-np.inf] * 3
    assert out.tolist() == [[-np.inf] * 4] * 3


def test_normalize_rows_independently_with_degenerate_row():
    rows = np.array([np.log([1.0, 3.0]), [-np.inf, -np.inf], [-1000.0, -1000.0]])
    log_total, out = normalize_log_weights(rows)
    for r in (0, 2):
        want_total, want = normalize_log_weights(rows[r])
        assert log_total[r] == want_total
        assert out[r].tobytes() == want.tobytes()
    assert log_total[1] == -np.inf
    assert (out[1] == -np.inf).all()


def test_normalize_rejects_nan_and_plus_inf():
    with pytest.raises(ValueError):
        normalize_log_weights(np.array([0.0, np.nan]))
    with pytest.raises(ValueError):
        normalize_log_weights(np.array([0.0, np.inf]))


# ---------------------------------------------------------------------------
# the lean log-sum-exp helper, against the scipy oracle


def test_logsumexp_last_matches_scipy():
    rng = np.random.default_rng(21)
    flat = rng.normal(scale=100.0, size=64)
    np.testing.assert_allclose(
        logsumexp_last(flat), scipy_logsumexp(flat), rtol=1e-13
    )
    grid = rng.normal(scale=10.0, size=(5, 7, 4))
    np.testing.assert_allclose(
        logsumexp_last(grid), scipy_logsumexp(grid, axis=-1), rtol=1e-13
    )


def test_logsumexp_last_minus_inf_rows():
    a = np.array([[-np.inf, -np.inf], [0.0, -np.inf]])
    out = logsumexp_last(a)
    assert out[0] == -np.inf
    assert out[1] == pytest.approx(0.0, abs=1e-15)
    assert logsumexp_last(np.array([-np.inf, -np.inf])) == -np.inf
