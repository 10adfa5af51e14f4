import dataclasses
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
    label_groups,
    log_potentials,
    logsumexp,
    normalize_log_weights,
)
from psmco.problems import SigmoidProblemSpec, make_sigmoid_problem
from psmco.sampler import (
    JitterKernelSpec,
    ParticleSystem,
    init_particles,
    jitter,
    sampler_step,
    step_draws,
    weight_and_accumulate,
)


def box(lo, hi, d=2):
    return SearchSpace(np.full(d, float(lo)), np.full(d, float(hi)))


# ---------------------------------------------------------------------------
# SearchSpace


def test_space_basic():
    s = SearchSpace([-50, -50], [50, 50])
    assert s.dim == 2
    assert s.lower.dtype == s.upper.dtype == float
    assert s.lower.tolist() == [-50.0, -50.0] and s.upper.tolist() == [50.0, 50.0]


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
    return log_potentials(model, np.asarray(batch)[None], np.asarray(theta, dtype=float)[None, None])[0, 0]


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

    def bad_batch(idx, thetas, owner):
        return np.where((np.take(idx, owner, axis=0) == 2).any(axis=-1), np.inf, 0.0)

    model = CostModel(n=4, component_eval=bad, batch_eval=bad_batch)
    with pytest.raises(EvaluationError) as exc:
        log_potentials(model, np.array([[1, 2]]), np.zeros((1, 3, 2)))
    assert exc.value.index == 2


def test_stacked_log_potentials_attribute_bad_component_to_its_worker():
    """Stacked batches (W, K): a non-finite component inside worker 1's
    batch is reported with its index and worker 1's point."""
    def comp(i, th):
        return math.nan if i == 5 and th[0] > 0 else float(th @ th)

    def batch(idx, thetas, owner):
        idx = np.take(idx, owner, axis=0)
        out = idx.shape[-1] * np.einsum("pd,pd->p", thetas, thetas)
        bad = (idx == 5).any(axis=-1) & (thetas[:, 0] > 0)
        return np.where(bad, np.nan, out)

    thetas = np.array([[[1.0, 0.0], [2.0, 0.0]], [[-1.0, 0.0], [3.0, 1.0]]])
    batches = np.array([[0, 1], [4, 5]])
    for model in (CostModel(n=6, component_eval=comp), CostModel(n=6, component_eval=comp, batch_eval=batch)):
        with pytest.raises(EvaluationError) as exc:
            log_potentials(model, batches, thetas)
        assert exc.value.index == 5
        np.testing.assert_array_equal(exc.value.theta, [3.0, 1.0])
    fine = log_potentials(model, np.array([[0, 1], [2, 3]]), thetas)
    np.testing.assert_array_equal(fine, -2 * np.einsum("wpd,wpd->wp", thetas, thetas))


def test_log_potentials_reject_a_batch_count_other_than_the_workers():
    """Batches (W', K) for particles (W, N, d) raise unless W' = W: an
    extra batch is not dropped, and a missing one is named as such."""
    model = CostModel(n=6, component_eval=lambda i, th: float(th @ th))
    thetas = np.zeros((2, 3, 2))
    for rows in (1, 3):
        with pytest.raises(ValueError, match=f"{rows} batches for 2 workers"):
            log_potentials(model, np.arange(rows * 2).reshape(rows, 2), thetas)
    assert log_potentials(model, np.arange(4).reshape(2, 2), thetas).shape == (2, 3)


def test_log_potentials_take_only_one_batch_per_worker():
    """A 1-d batch (K,) raises, with (P, d) points or with (W, N, d)
    particles even when K equals W: there is no one-batch form."""
    model = CostModel(n=6, component_eval=lambda i, th: float(th @ th))
    for thetas in (np.zeros((3, 2)), np.zeros((2, 3, 2))):
        with pytest.raises(ValueError, match=r"batch must be \(W, K\)"):
            log_potentials(model, np.arange(2), thetas)


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
        batch_eval=lambda idx, th, owner: np.full(th.shape[0], np.inf),
    )
    out = log_potentials(model, np.array([[0, 1]]), np.zeros((1, 2, 1)))
    assert (out == -np.inf).all()
    components_only = CostModel(n=2, component_eval=model.component_eval)
    assert log_g(components_only, [0, 1], np.zeros(1)) == -np.inf


def test_log_potentials_matches_scalar_loop():
    rng = np.random.default_rng(11)
    coefs = rng.normal(size=30)

    def comp(i, th):
        return float(coefs[i] * (1.0 + th @ th))

    def batch(idx, thetas, owner):
        s = coefs[np.take(idx, owner, axis=0)].sum(axis=-1)
        return s * (1.0 + np.einsum("pd,pd->p", thetas, thetas))

    model = CostModel(n=30, component_eval=comp, batch_eval=batch)
    thetas = rng.normal(size=(8, 3))
    got = log_potentials(model, np.arange(0, 30, 2)[None], thetas[None])[0]
    want = np.array([-sum(comp(i, t) for i in range(0, 30, 2)) for t in thetas])
    np.testing.assert_allclose(got, want, rtol=1e-12)


def labelled_population(rng, w, n, d, pool=4):
    """(w, n, d) points and (w, n) labels in [0, 2n): each worker draws
    its labels from a few random ones, and a label names one point whose
    coordinates come from {-0.0, 0.0, 1.0}, so rows repeat, share first
    coordinates, and differ only in a zero's sign."""
    names = np.stack([rng.choice(2 * n, size=min(pool, 2 * n), replace=False) for _ in range(w)])
    picks = rng.integers(0, names.shape[1], size=(w, n))
    labels = np.take_along_axis(names, picks, axis=1)
    values = np.array([-0.0, 0.0, 1.0])
    points = values[rng.integers(0, 3, size=(w, 2 * n, d))]
    return points[np.arange(w)[:, None], labels], labels


def assert_groups_exact(labels, compact, slots, rows):
    """compact renumbers each worker's labels to [0, U_w) in label order,
    slots count the groups in worker order, and each group's row is one
    of its own particles."""
    w_count, n = labels.shape
    counts = [len(set(own.tolist())) for own in labels]
    assert len(rows) == sum(counts)
    offsets = np.cumsum(counts) - counts
    assert (slots == compact + offsets[:, None]).all()
    for own, new, count in zip(labels, compact, counts):
        assert sorted(set(new.tolist())) == list(range(count))
        assert (np.argsort(own, kind="stable") == np.argsort(new, kind="stable")).all()
    assert (np.take(labels, rows)[slots] == labels).all()
    assert (rows // n == np.repeat(np.arange(w_count), counts)).all()


@pytest.mark.parametrize("n", [1, 2, 9])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_label_groups_map_every_particle_to_a_member_of_its_group(n, d):
    rng = np.random.default_rng(10 * n + d)
    thetas, labels = labelled_population(rng, 5, n, d)
    compact, slots, rows = label_groups(labels)
    assert_groups_exact(labels, compact, slots, rows)
    reps = np.take(thetas.reshape(-1, d), rows, axis=0)
    assert reps[slots].tobytes() == thetas.tobytes()
    # renumbered labels name the same groups
    assert (label_groups(compact)[1] == slots).all()


def test_label_groups_of_unlabelled_and_fresh_particles():
    """arange(N), every particle its own, and the fresh labels N + j of
    moved particles next to a worker's surviving labels."""
    compact, slots, rows = label_groups(np.broadcast_to(np.arange(4), (3, 4)))
    assert (compact == np.arange(4)).all() and (rows == np.arange(12)).all()
    assert (slots == np.arange(12).reshape(3, 4)).all()
    labels = np.array([[2, 2, 5, 0], [7, 1, 1, 4]])
    compact, slots, rows = label_groups(labels)
    assert compact.tolist() == [[1, 1, 2, 0], [2, 0, 0, 1]]
    assert slots.tolist() == [[1, 1, 2, 0], [5, 3, 3, 4]]
    assert_groups_exact(labels, compact, slots, rows)


def test_log_potentials_evaluate_each_group_once_and_keep_signed_zeros_apart():
    """Groups given by labels give every particle the bits of evaluating
    it alone, on points told apart only by a zero's sign, and the model
    sees one row per group."""
    seen = []

    def signs(indices, thetas, owner):
        seen.append(thetas.shape)
        return np.copysign(1.0, thetas[..., 0]) * (1.0 + np.abs(thetas).sum(axis=-1)) * indices.shape[-1]

    model = CostModel(n=3, component_eval=lambda i, th: 0.0, batch_eval=signs)
    rng = np.random.default_rng(4)
    thetas, labels = labelled_population(rng, 5, 9, 2)
    batch = np.zeros((5, 3), dtype=int)
    got = log_potentials(model, batch, thetas, label_groups(labels)[1:])
    assert seen == [(sum(len(set(own.tolist())) for own in labels), 2)]
    assert got.tobytes() == log_potentials(model, batch, thetas).tobytes()
    assert (np.signbit(got) != np.signbit(thetas[..., 0])).all()


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


def center_batch(indices, thetas, owner):
    """Sum of center_component over the batch, added in batch order, for
    the ragged call (W, K)/(R, d)/(R,)."""
    rows = np.take(indices, owner, axis=0)
    total = np.zeros(len(thetas))
    for k in range(rows.shape[-1]):
        d = thetas[:, 0] - CENTERS[rows[..., k]]
        total = total + d * d
    return total


def counted_forms():
    """The same cost as a batch_eval and a component-only CostModel, and
    a dict holding the points of each call of each form's function."""
    calls = {"batch_eval": [], "component-only": []}

    def counting(form, fn):
        def counted(*args):
            calls[form].append(np.array(args[1]))
            return fn(*args)
        return counted

    models = {
        "batch_eval": CostModel(
            n=12, component_eval=center_component, batch_eval=counting("batch_eval", center_batch)
        ),
        "component-only": CostModel(n=12, component_eval=counting("component-only", center_component)),
    }
    return models, calls


def unlabelled_twin(system):
    """A copy of system whose particles carry no lineage, so a step
    evaluates every particle; same streams, so it draws the same."""
    return ParticleSystem(system.particles.copy(), system.rngs, system.log_z_cumulative)


def test_step_calls_each_model_form_as_declared():
    """Per sampler step, with U_w the distinct labels of worker w's
    jittered particles: a model's batch_eval gets one call on sum U_w
    points, and a bare component_eval K calls per group; both forms give
    the same steps."""
    m, n, k = 3, 5, 4
    models, calls = counted_forms()
    batches = np.arange(m * k).reshape(m, k)
    outcome = {}
    for form, model in models.items():
        space = box(-2, 2, d=1)
        system = init_particles(space, n, [np.random.default_rng(s) for s in range(m)])
        kernel = JitterKernelSpec(space, proposal_std=0.3, n_particles=n)
        widths = []
        for _ in range(3):
            before = len(calls[form])
            draws = next(step_draws(system, kernel, 1))
            probe = unlabelled_twin(system)
            probe.labels = system.labels
            jitter(probe, kernel, *draws[:2])
            widths.append([len(set(own.tolist())) for own in probe.labels])
            log_z = sampler_step(system, model, batches, kernel, draws)
            made = calls[form][before:]
            if form == "batch_eval":
                assert [pts.shape for pts in made] == [(sum(widths[-1]), 1)]
            else:
                assert len(made) == sum(widths[-1]) * k
        assert widths[0] == [n] * m and min(min(w) for w in widths) < n  # all distinct at first, then copies
        outcome[form] = (log_z.tobytes(), system.particles.tobytes())
    assert outcome["batch_eval"] == outcome["component-only"]


@pytest.mark.parametrize("form", ["batch_eval", "component-only"])
def test_init_std_zero_start_is_all_copies_merged_by_resampling(form):
    """init_std=0 puts every particle on init_point under N distinct
    labels: the first step evaluates all of them, resampling then merges
    them by ancestry, and every step equals a run that evaluates every
    particle."""
    m, n = 3, 9
    models, calls = counted_forms()
    model = models[form]
    rngs = lambda: [np.random.default_rng(s) for s in range(m)]  # noqa: E731
    space = box(-2, 2, d=1)
    system = init_particles(space, n, rngs(), np.array([0.5]), init_std=0.0)
    twin = init_particles(space, n, rngs(), np.array([0.5]), init_std=0.0)
    kernel = JitterKernelSpec(space, proposal_std=0.3, n_particles=n)
    assert (system.labels == np.arange(n)).all()
    rows = []
    for t in range(4):
        batches = np.full((m, 2), t)
        draws = next(step_draws(system, kernel, 1))
        assert all((a == b).all() for a, b in zip(draws, next(step_draws(twin, kernel, 1))))
        before = len(calls[form])
        log_z = sampler_step(system, model, batches, kernel, draws)
        rows.append(sum(len(pts) if pts.ndim > 1 else 1 for pts in calls[form][before:]))
        twin = unlabelled_twin(twin)
        assert sampler_step(twin, model, batches, kernel, draws).tobytes() == log_z.tobytes()
        assert twin.particles.tobytes() == system.particles.tobytes()
    per_point = 2 if form == "component-only" else 1
    assert rows[0] == m * n * per_point and rows[-1] < m * n * per_point


def test_clipped_corner_collision_costs_a_duplicate_evaluation_only():
    """Two moved particles clipped onto the same corner of the box are
    equal points under different fresh labels: both are evaluated, and
    they get equal potentials."""
    models, calls = counted_forms()
    system = init_particles(box(-1, 1), 4, [np.random.default_rng(0)], np.zeros(2), init_std=0.0)
    kernel = JitterKernelSpec(box(-1, 1), proposal_std=1.0, n_particles=4)
    u = np.array([[0.0, 0.0, 0.9, 0.9]])  # particles 0 and 1 move
    jitter(system, kernel, u, np.array([[5.0, 5.0], [7.0, 3.0]]))
    assert system.particles[0, 0].tobytes() == system.particles[0, 1].tobytes()
    assert system.labels.tolist() == [[4, 5, 2, 3]]
    _, log_w = weight_and_accumulate(system, models["batch_eval"], np.array([[3, 7]]))
    assert calls["batch_eval"][-1].shape == (4, 2)
    assert log_w[0, 0] == log_w[0, 1] and log_w[0, 2] == log_w[0, 3]
    assert system.labels.tolist() == [[2, 3, 0, 1]]


def test_costs_agree_bit_for_bit_across_model_forms():
    """A W=1 sums call, total_cost and total_cost_many give the same
    bits for both forms of one cost, and total_cost is total_cost_many
    on one point."""
    models, _ = counted_forms()
    thetas = np.random.default_rng(9).uniform(-2, 2, size=(7, 1))
    indices = np.array([[11, 0, 5, 3]])
    results = {
        form: (
            model.sums(indices, thetas, np.zeros(len(thetas), dtype=int)).tobytes(),
            [model.total_cost(t) for t in thetas],
            model.total_cost_many(thetas).tobytes(),
        )
        for form, model in models.items()
    }
    assert results["batch_eval"] == results["component-only"]
    assert np.array(results["batch_eval"][1]).tobytes() == results["batch_eval"][2]
    want = [sum(center_component(i, t) for i in range(12)) for t in thetas]
    np.testing.assert_allclose(results["batch_eval"][1], want, rtol=1e-12)


def test_sums_reject_batches_that_are_not_2d_and_output_not_one_per_row():
    """A kernel that returns one sum per worker (W,) instead of one per
    row (R,) is refused, not read as rows; so is a 1-d batch of indices,
    for both forms."""
    models, _ = counted_forms()
    indices = np.array([[0, 1], [2, 3], [4, 5]])
    thetas = np.array([[0.5], [-0.5]])
    owner = np.array([0, 2])
    per_worker = dataclasses.replace(
        models["batch_eval"], batch_eval=lambda idx, th, own: np.arange(len(idx), dtype=float)
    )
    with pytest.raises(ValueError, match="one sum per row"):
        per_worker.sums(indices, thetas, owner)
    scalar = dataclasses.replace(models["batch_eval"], batch_eval=lambda idx, th, own: 1.0)
    with pytest.raises(ValueError, match="one sum per row"):
        scalar.sums(indices[:1], thetas[:1], owner[:1])
    for model in models.values():
        assert model.sums(indices, thetas, owner).shape == (2,)
        with pytest.raises(ValueError, match="2-d"):
            model.sums(indices[0], thetas, np.zeros(2, dtype=int))


def test_sums_reject_thetas_that_are_not_2d():
    """thetas must be (R, d): one 1-d point is refused, not read as R
    one-coordinate points, by both forms and by a stock kernel."""
    models, _ = counted_forms()
    models["stock sigmoid"] = make_sigmoid_problem(SigmoidProblemSpec(n=12)).model
    for model in models.values():
        for thetas in (np.array([1.0, 2.0]), np.zeros((2, 1, 1))):
            with pytest.raises(ValueError, match="2-d"):
                model.sums(np.array([[0, 1]]), thetas, np.zeros(2, dtype=int))
            with pytest.raises(ValueError, match="2-d"):
                model.total_cost_many(thetas)


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


def test_logsumexp_matches_scipy():
    rng = np.random.default_rng(21)
    flat = rng.normal(scale=100.0, size=64)
    np.testing.assert_allclose(
        logsumexp(flat), scipy_logsumexp(flat), rtol=1e-13
    )
    grid = rng.normal(scale=10.0, size=(5, 7, 4))
    for axis in (-1, 0, 1):
        np.testing.assert_allclose(
            logsumexp(grid, axis=axis), scipy_logsumexp(grid, axis=axis), rtol=1e-13
        )


def test_logsumexp_minus_inf_rows():
    a = np.array([[-np.inf, -np.inf], [0.0, -np.inf]])
    out = logsumexp(a)
    assert out[0] == -np.inf
    assert out[1] == pytest.approx(0.0, abs=1e-15)
    assert logsumexp(a.T, axis=0).tolist() == out.tolist()
    assert logsumexp(np.array([-np.inf, -np.inf])) == -np.inf
