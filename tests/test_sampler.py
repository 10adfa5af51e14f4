import dataclasses
import math

import numpy as np
import pytest

import reference_sampler
from psmco.core import CostModel, SearchSpace, normalize_log_weights, ramp
from psmco.problems import MixtureProblemSpec, make_mixture_problem
from psmco.sampler import (
    BLOCK_ELEMENTS,
    JitterKernelSpec,
    ParticleSystem,
    init_particles,
    inverse_cdf,
    jitter,
    resample_multinomial,
    sampler_step,
    step_draws,
    weight_and_accumulate,
)


def box(lo, hi, d=2):
    return SearchSpace(np.full(d, float(lo)), np.full(d, float(hi)))


def inside(space, points):
    """Every point of points (..., d) lies in the box, bounds included."""
    return bool((space.lower <= points).all() and (points <= space.upper).all())


def one_step(ps, kernel):
    """One step's draws: (jitter uniforms, noise rows, resampling uniforms)."""
    return next(step_draws(ps, kernel, 1))


def step(ps, model, batches, kernel):
    return sampler_step(ps, model, batches, kernel, one_step(ps, kernel))


OVERFLOW_MODEL = CostModel(n=4, component_eval=lambda i, th: 1e308)


# ---------------------------------------------------------------------------
# kernel spec validation


def test_kernel_epsilon_cap_enforced():
    s = box(-1, 1)
    with pytest.raises(ValueError):
        JitterKernelSpec(space=s, proposal_std=1.0, n_particles=100, epsilon=0.2)
    # exactly at the cap is allowed
    JitterKernelSpec(space=s, proposal_std=1.0, n_particles=100, epsilon=0.1)


def test_kernel_epsilon_default_is_cap():
    k = JitterKernelSpec(space=box(-1, 1), proposal_std=1.0, n_particles=50)
    assert k.epsilon == 1.0 / math.sqrt(50)


def test_kernel_epsilon_range():
    s = box(-1, 1)
    with pytest.raises(ValueError):
        JitterKernelSpec(space=s, proposal_std=1.0, n_particles=1, epsilon=0.0)
    with pytest.raises(ValueError):
        JitterKernelSpec(space=s, proposal_std=1.0, n_particles=1, epsilon=1.2)
    # N=1 allows the full mixture weight
    JitterKernelSpec(space=s, proposal_std=1.0, n_particles=1, epsilon=1.0)


def test_kernel_rejects_bad_std():
    with pytest.raises(ValueError):
        JitterKernelSpec(space=box(-1, 1), proposal_std=-0.5, n_particles=10)
    JitterKernelSpec(space=box(-1, 1), proposal_std=0.0, n_particles=10)


# ---------------------------------------------------------------------------
# initialization


def test_init_uniform_moments_and_containment():
    s = box(-50, 50)
    ps = init_particles(s, 1000, [np.random.default_rng(0)])
    assert ps.particles.shape == (1, 1000, 2)
    assert inside(s, ps.particles)
    # CLT bound on the empirical mean, widened to +-5
    assert np.abs(ps.particles[0].mean(axis=0)).max() < 5.0


def test_system_holds_no_running_total():
    """A system is its particles, streams and labels; the normalizers a
    step returns are summed by whoever runs the steps."""
    assert [f.name for f in dataclasses.fields(ParticleSystem)] == ["particles", "rngs", "labels"]


def test_init_two_particles_contained():
    s = box(2, 3, d=3)
    ps = init_particles(s, 2, [np.random.default_rng(1)])
    assert inside(s, ps.particles)


def test_init_invalid_count():
    with pytest.raises(ValueError):
        init_particles(box(-1, 1), 0, [np.random.default_rng(0)])
    with pytest.raises(ValueError, match="at least one worker"):
        init_particles(box(-1, 1), 4, [])


def test_init_reproducible():
    a = init_particles(box(-1, 1), 64, [np.random.default_rng(5)]).particles
    b = init_particles(box(-1, 1), 64, [np.random.default_rng(5)]).particles
    np.testing.assert_array_equal(a, b)


def test_init_gaussian_around_point():
    s = box(-200, 200)
    center = np.array([-190.0, 0.0])
    ps = init_particles(s, 500, [np.random.default_rng(2)], init_point=center, init_std=1e-4)
    assert inside(s, ps.particles)
    assert np.abs(ps.particles - center).max() < 1e-3


def test_init_gaussian_clipped_into_box():
    s = box(-1, 1)
    ps = init_particles(s, 100, [np.random.default_rng(3)], init_point=np.array([5.0, 0.0]), init_std=0.01)
    assert inside(s, ps.particles)
    assert (ps.particles[0, :, 0] == 1.0).all()


# ---------------------------------------------------------------------------
# jitter


def test_jitter_moved_count_binomial_band():
    s = box(-50, 50)
    ps = init_particles(s, 10_000, [np.random.default_rng(4)])
    k = JitterKernelSpec(space=s, proposal_std=1.0, n_particles=10_000, epsilon=0.01)
    before = ps.particles.copy()
    u, noise, _ = one_step(ps, k)
    moved = jitter(ps, k, u, noise)
    assert type(moved) is int
    assert 50 <= moved <= 150
    changed = int((ps.particles != before).any(axis=2).sum())
    assert changed == moved
    assert inside(s, ps.particles)


def test_jitter_zero_std_is_identity():
    s = box(-50, 50)
    ps = init_particles(s, 200, [np.random.default_rng(6)])
    before = ps.particles.copy()
    k = JitterKernelSpec(space=s, proposal_std=0.0, n_particles=200, epsilon=0.05)
    jitter(ps, k, *one_step(ps, k)[:2])
    np.testing.assert_array_equal(ps.particles, before)


def test_jitter_clips_to_box():
    s = box(-1, 1)
    ps = init_particles(s, 1000, [np.random.default_rng(7)])
    k = JitterKernelSpec(space=s, proposal_std=100.0, n_particles=1000, epsilon=1 / math.sqrt(1000))
    jitter(ps, k, *one_step(ps, k)[:2])
    assert inside(s, ps.particles)


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize(
    "layout",
    [np.ascontiguousarray, np.asfortranarray, lambda a: np.repeat(a, 2, axis=1)[:, ::2]],
    ids=["c", "fortran", "sliced"],
)
def test_jitter_leaves_caller_arrays_and_unmoved_bits_alone(layout):
    # unmoved particles on the box bounds, -0.0 at a lower bound of 0.0
    # included, keep their bits and labels; the particle and label arrays
    # handed to ParticleSystem are never written, whatever their memory
    # layout
    s = SearchSpace(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
    pts = np.array([[[-0.0, 0.5], [0.0, -1.0], [1.0, 1.0], [0.25, -0.0], [0.5, 0.5]]] * 2)
    pts[1] *= np.array([0.5, -1.0])
    labels = np.array([[0, 1, 7, 3, 9], [1, 6, 2, 8, 4]])
    u = np.array([[0.9, 0.9, 0.9, 0.9, 0.0], [0.0, 0.9, 0.9, 0.5, 0.9]])
    noise = np.random.default_rng(8).normal(size=(2, 2)) * 2  # one row per moved particle
    k = JitterKernelSpec(space=s, proposal_std=2.0, n_particles=5, epsilon=0.1)
    arr, lab = layout(pts.copy()), layout(labels.copy())
    held, held_labels = arr.copy(), lab.copy()
    ps = ParticleSystem(arr, rngs=(), labels=lab)
    assert jitter(ps, k, u, noise) == 2
    np.testing.assert_array_equal(bits(arr), bits(held))
    np.testing.assert_array_equal(bits(lab), bits(held_labels))
    move = u < k.epsilon
    np.testing.assert_array_equal(bits(ps.particles[~move]), bits(pts[~move]))
    np.testing.assert_array_equal(ps.particles[move], np.clip(pts[move] + noise, s.lower, s.upper))
    assert ps.labels.tolist() == np.where(move, np.arange(5) + 5, labels).tolist()


@pytest.mark.parametrize("rows", [0, 1, 3])
def test_jitter_rejects_noise_rows_other_than_the_moved_count(rows):
    s = box(-1, 1)
    pts = np.zeros((1, 4, 2))
    ps = ParticleSystem(pts, rngs=())
    k = JitterKernelSpec(space=s, proposal_std=1.0, n_particles=4, epsilon=0.5)
    u = np.array([[0.1, 0.9, 0.2, 0.9]])  # two particles move
    with pytest.raises(ValueError, match="noise rows"):
        jitter(ps, k, u, np.ones((rows, 2)))
    assert ps.particles is pts  # nothing was applied
    assert jitter(ps, k, u, np.ones((2, 2))) == 2


def test_jitter_clips_into_the_kernels_box():
    """The box is a setting of the kernel: a move clips into kernel.space."""
    k = JitterKernelSpec(space=box(-100, 100), proposal_std=1.0, n_particles=2, epsilon=0.5)
    ps = ParticleSystem(np.zeros((1, 2, 2)), rngs=())
    assert jitter(ps, k, np.array([[0.0, 0.0]]), np.array([[5.0, -7.0], [150.0, -0.5]])) == 2
    assert ps.particles.tolist() == [[[5.0, -7.0], [100.0, -0.5]]]


def test_jitter_rejects_a_kernel_box_of_another_dimension():
    """A 1-d kernel box would broadcast over both coordinates of 2-d
    particles, clipping a move by (5, 5) to (1, 1)."""
    k = JitterKernelSpec(space=box(-1, 1, d=1), proposal_std=1.0, n_particles=1, epsilon=1.0)
    ps = ParticleSystem(np.zeros((1, 1, 2)), rngs=())
    with pytest.raises(ValueError, match="1-d kernel box for 2-d particles"):
        jitter(ps, k, np.array([[0.0]]), np.array([[5.0, 5.0]]))
    assert ps.particles.tolist() == [[[0.0, 0.0]]]


def test_jitter_rejects_uniforms_other_than_m_by_n():
    """(2, 3) uniforms for (2, 4) particles would move flat rows 0 and 5:
    worker 1's particle 1, where its uniform was meant for particle 2."""
    k = JitterKernelSpec(space=box(-10, 10), proposal_std=1.0, n_particles=4, epsilon=0.5)
    ps = ParticleSystem(np.zeros((2, 4, 2)), rngs=())
    with pytest.raises(ValueError, match=r"uniforms of shape \(2, 3\) for \(2, 4\) particles"):
        jitter(ps, k, np.array([[0.0, 0.9, 0.9], [0.9, 0.9, 0.0]]), np.ones((2, 2)))
    assert ps.particles.tolist() == np.zeros((2, 4, 2)).tolist()


def test_jitter_rejects_noise_of_another_dimension():
    """One (1, 1) noise row for a 2-d particle would add the same draw to
    both of its coordinates."""
    k = JitterKernelSpec(space=box(-10, 10), proposal_std=1.0, n_particles=2, epsilon=0.5)
    ps = ParticleSystem(np.zeros((1, 2, 2)), rngs=())
    with pytest.raises(ValueError, match=r"noise rows of shape \(1, 1\) for 1 moved 2-d particles"):
        jitter(ps, k, np.array([[0.0, 0.9]]), np.array([[3.0]]))
    assert ps.particles.tolist() == [[[0.0, 0.0], [0.0, 0.0]]]


def test_jitter_rejects_a_kernel_for_another_population_size():
    """A kernel for 9 particles has epsilon 1/3, above the cap 0.1 of 100
    particles; applied to them it would move about a third."""
    k = JitterKernelSpec(space=box(-1, 1), proposal_std=0.1, n_particles=9)
    ps = ParticleSystem(np.zeros((1, 100, 2)), rngs=())
    with pytest.raises(ValueError, match="kernel for 9 particles applied to 100"):
        jitter(ps, k, np.zeros((1, 100)), np.zeros((100, 2)))
    assert ps.particles.tolist() == np.zeros((1, 100, 2)).tolist()


def test_step_leaves_caller_particles_unchanged():
    s = box(-1, 1)
    arr = np.random.default_rng(9).uniform(-1, 1, size=(3, 8, 2))
    labels = np.tile(np.arange(15, 7, -1), (3, 1))  # distinct, in [N, 2N)
    held, held_labels = arr.copy(), labels.copy()
    ps = ParticleSystem(arr, rngs=tuple(np.random.default_rng(i) for i in range(3)), labels=labels)
    k = JitterKernelSpec(space=s, proposal_std=0.3, n_particles=8)
    step(ps, quadratic_model(), np.zeros((3, 2), dtype=int), k)
    np.testing.assert_array_equal(bits(arr), bits(held))
    np.testing.assert_array_equal(bits(labels), bits(held_labels))
    assert ps.particles is not arr and ps.labels is not labels


# ---------------------------------------------------------------------------
# weighting and the normalizer accumulator


def test_weights_constant_potential():
    s = box(-1, 1)
    ps = init_particles(s, 8, [np.random.default_rng(8)])
    model = CostModel(n=3, component_eval=lambda i, th: 2.5)
    log_z, w = weight_and_accumulate(ps, model, np.array([[1]]))
    np.testing.assert_allclose(np.exp(w), 1 / 8, rtol=1e-12)
    assert log_z.shape == (1,) and log_z[0] == pytest.approx(-2.5, rel=1e-12)


def test_weights_hand_computed_example():
    """Potentials (1, 3): weights (0.25, 0.75) and normalizer (1+3)/2."""
    s = SearchSpace(np.array([-1.0]), np.array([2.0]))
    ps = init_particles(s, 2, [np.random.default_rng(9)])
    ps.particles = np.array([[[0.0], [1.0]]])
    model = CostModel(n=1, component_eval=lambda i, th: float(-math.log(3.0) * th[0]))
    log_z, w = weight_and_accumulate(ps, model, np.array([[0]]))
    np.testing.assert_allclose(np.exp(w), [[0.25, 0.75]], rtol=1e-12)
    assert log_z[0] == pytest.approx(math.log(2.0), rel=1e-12)


def test_weights_empty_batch_neutral():
    ps = init_particles(box(-1, 1), 4, [np.random.default_rng(10)])
    model = CostModel(n=2, component_eval=lambda i, th: 7.0)
    log_z, w = weight_and_accumulate(ps, model, np.empty((1, 0), dtype=int))
    np.testing.assert_allclose(np.exp(w), 0.25, rtol=1e-12)
    assert log_z.tolist() == [0.0]


def test_weights_degenerate_returns_minus_inf():
    ps = init_particles(box(-1, 1), 4, [np.random.default_rng(11)])
    log_z_t, log_w = weight_and_accumulate(ps, OVERFLOW_MODEL, np.array([[0, 1]]))
    # a degenerate worker is plain data: -inf normalizer and log-weights
    assert log_z_t.tolist() == [-np.inf]
    assert log_w.tolist() == [[-np.inf] * 4]


def test_labels_default_to_arange_and_given_labels_are_kept():
    """A system built without labels gives each particle its own label,
    arange(N) in every worker, and so evaluates each particle; labels
    passed in are the system's labels, and their groups are evaluated
    once each."""
    pts = np.random.default_rng(3).uniform(-1, 1, size=(3, 6, 2))
    pts[:, 1::2] = pts[:, ::2]  # particles 2j and 2j + 1 are copies
    rows = []
    model = CostModel(
        n=2,
        component_eval=lambda i, th: float((i + 1) * (th @ th)),
        batch_eval=lambda idx, th, owner: rows.append(len(th)) or 3.0 * (th * th).sum(axis=1),
    )
    plain = ParticleSystem(pts, rngs=())
    assert plain.labels.shape == (3, 6) and (plain.labels == np.arange(6)).all()
    drawn = init_particles(box(-1, 1), 6, [np.random.default_rng(j) for j in range(3)])
    assert (drawn.labels == np.arange(6)).all()
    labels = np.array([[0, 0, 2, 2, 4, 4], [7, 7, 1, 1, 11, 11], [3, 3, 9, 9, 5, 5]])
    given = ParticleSystem(pts, rngs=(), labels=labels)
    assert given.labels is labels
    _, plain_w = weight_and_accumulate(plain, model, np.array([[0, 1]] * 3))
    _, given_w = weight_and_accumulate(given, model, np.array([[0, 1]] * 3))
    assert rows == [18, 9]
    assert plain_w.tobytes() == given_w.tobytes()


@pytest.mark.parametrize("labels", [[[0, 5], [0, 1]], [[0, -1], [0, 1]], [[0.0, 1.0], [0.0, 1.0]],
                                    [[0, 1]], [0, 1, 0, 1]])
def test_system_rejects_labels_other_than_m_by_n_integers_below_2n(labels):
    """Labels are (M, N) integers in [0, 2N).  With N=2, worker 0's label
    5 would fall in worker 1's range and share its evaluation."""
    pts = np.array([[[1.0], [1.0]], [[3.0], [3.0]]])
    with pytest.raises(ValueError, match=r"labels must be \(2, 2\) integers in \[0, 4\)"):
        ParticleSystem(pts, rngs=(), labels=np.array(labels))
    ParticleSystem(pts, rngs=(), labels=np.array([[0, 3], [2, 1]]))


def test_labels_never_merge_distinct_particles():
    """Lineage invariant over 200 mixture steps: after every step, each
    worker's labels lie in [0, N) and particles sharing a label are equal
    bit for bit."""
    problem = make_mixture_problem(MixtureProblemSpec(n=200))
    m, n = 6, 20
    ps = init_particles(problem.space, n, [np.random.default_rng(s) for s in range(m)])
    k = JitterKernelSpec(space=problem.space, proposal_std=1.0, n_particles=n)
    batches = np.random.default_rng(9).integers(0, 200, size=(200, m, 1))
    merged = 0
    for t, draws in enumerate(step_draws(ps, k, 200)):
        sampler_step(ps, problem.model, batches[t], k, draws)
        assert ((ps.labels >= 0) & (ps.labels < n)).all()
        for labels, points in zip(ps.labels, ps.particles):
            first = {}
            for label, point in zip(labels.tolist(), points):
                assert first.setdefault(label, point.tobytes()) == point.tobytes()
            merged += n - len(first)
    assert merged > 0


def test_cumulative_telescopes_exactly():
    """The normalizers weight_and_accumulate returns, summed in step
    order, are the reference oracle's running total, bit for bit."""
    ps = init_particles(box(-5, 5), 32, [np.random.default_rng(12)])
    oracle = reference_sampler.ParticleSystem(ps.particles[0].copy(), box(-5, 5), None)
    values = np.random.default_rng(1).normal(size=20)
    model = CostModel(n=20, component_eval=lambda i, th: float(values[i] * (1 + th @ th)))
    steps = []
    for t in range(10):
        steps.append(weight_and_accumulate(ps, model, np.array([[2 * t, 2 * t + 1]]))[0])
        reference_sampler.weight_and_accumulate(oracle, model, np.array([2 * t, 2 * t + 1]))
    assert sum(steps).tolist() == [oracle.log_z_cumulative]
    assert np.array(steps)[:, 0].tolist() == oracle.log_z_steps


# ---------------------------------------------------------------------------
# resampling


def test_resample_point_mass():
    ps = init_particles(box(-1, 1), 3, [np.random.default_rng(13)])
    target = ps.particles[0, 0].copy()
    w = normalize_log_weights(np.log([[1.0, 1e-300, 1e-300]]))[1]
    resample_multinomial(ps, w, ps.rngs[0].random((1, 3)))
    # weight ~1 on the first particle: every draw lands there
    assert (ps.particles == target).all()


def test_draw_ancestors_uniform_mean_counts():
    # 10^4 replicates of 4 draws from uniform weights: mean count per
    # ancestor is 1 within +-0.05
    w = normalize_log_weights(np.zeros(4))[1]
    idx = inverse_cdf(w[None], np.random.default_rng(14).random(4 * 10_000)[None])[0]
    counts = np.bincount(idx, minlength=4) / 10_000
    np.testing.assert_allclose(counts, 1.0, atol=0.05)


def test_draw_ancestors_skewed_frequency_band():
    w = normalize_log_weights(np.log([0.25, 0.75]))[1]
    idx = inverse_cdf(w[None], np.random.default_rng(15).random(100_000)[None])[0]
    freq = (idx == 1).mean()
    assert 0.74 <= freq <= 0.76


def test_draw_ancestors_unbiased_within_three_se():
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    w = normalize_log_weights(np.log(probs))[1]
    total = 40_000
    idx = inverse_cdf(w[None], np.random.default_rng(16).random(total)[None])[0]
    freq = np.bincount(idx, minlength=4) / total
    se = np.sqrt(probs * (1 - probs) / total)
    assert (np.abs(freq - probs) <= 3 * se).all()


def test_draw_ancestors_tie_convention():
    # inverse CDF with cumulative (0.5, 1.0): u exactly on a boundary
    # selects the lower index
    w = np.log([0.5, 0.5])
    idx = inverse_cdf(w[None], np.array([[0.0, 0.5, 0.5 + 1e-12, 0.999]]))[0]
    np.testing.assert_array_equal(idx, [0, 0, 1, 1])


def test_inverse_cdf_rows_match_single_row_search():
    # per row: the same indices as the 1-d search, boundary ties included
    w = normalize_log_weights(np.log([[0.5, 0.5, 1e-300], [0.25, 0.25, 0.5], [1.0, 1e-300, 1e-300]]))[1]
    u = np.array([[0.0, 0.5, 0.5 + 1e-12, 0.999], [0.25, 0.5, 0.1875, 0.75], [0.999, 0.0, 0.3125, 0.9]])
    got = inverse_cdf(w, u)
    want = np.stack([np.searchsorted(np.cumsum(np.exp(w[r])), u[r], side="left") for r in range(3)])
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got[0], [0, 0, 1, 1])


def per_row_search(w, u):
    return np.stack([np.searchsorted(np.cumsum(np.exp(wr)), ur, side="left") for wr, ur in zip(w, u)])


def test_inverse_cdf_matches_per_row_search_on_random_rows():
    # zero-weight slots, u = 0, u exactly on a boundary, and a cumsum that
    # rounds above 1 before the last slot, against the plain 1-d search
    rng = np.random.default_rng(40)
    log_w = rng.normal(size=(200, 9)) * rng.choice([0.1, 3.0, 30.0], size=(200, 1))
    log_w[rng.random(log_w.shape) < 0.3] = -np.inf
    log_w[:, 4] = 0.0
    w = normalize_log_weights(log_w)[1]
    u = rng.random((200, 12))
    u[:, 0] = 0.0
    cum = np.cumsum(np.exp(w), axis=1)
    inside = (cum[:, 1] < 1.0) & (cum[:, 1] * 2**53 == np.floor(cum[:, 1] * 2**53))
    u[inside, 1] = cum[inside, 1]  # on the boundary of slot 1
    assert inside.sum() > 10
    np.testing.assert_array_equal(inverse_cdf(w, u), per_row_search(w, u))

    w = normalize_log_weights(np.log([[0.3, 1.0, 0.6, 1e-300]]))[1]
    assert np.cumsum(np.exp(w))[2] > 1.0  # rounds above 1 before the last slot
    u = np.array([[1.0 - 2**-53, 0.0, 0.5, 0.75]])
    np.testing.assert_array_equal(inverse_cdf(w, u), per_row_search(w, u))
    np.testing.assert_array_equal(inverse_cdf(w, u), [[2, 0, 1, 2]])


def test_inverse_cdf_across_row_chunks():
    # 1100 rows cross the 1023-row search chunk
    rng = np.random.default_rng(41)
    w = normalize_log_weights(rng.normal(size=(1100, 5)) * 4)[1]
    u = rng.random((1100, 6))
    np.testing.assert_array_equal(inverse_cdf(w, u), per_row_search(w, u))


def test_inverse_cdf_rejects_off_grid_uniforms():
    w = normalize_log_weights(np.zeros((2, 3)))[1]
    for bad in (0.1 + 2**-60, -2**-53, 1.0):
        with pytest.raises(ValueError):
            inverse_cdf(w, np.array([[0.5], [bad]]))


def test_inverse_cdf_rejects_log_w_and_u_of_other_ranks_or_row_counts():
    """(1, 4) log-weights against (2, 4) uniforms would draw both rows
    from row 0's weights, and 1-d input would raise IndexError: each
    raises ValueError, as do (2, 4) log-weights against one row of u."""
    w = normalize_log_weights(np.zeros((2, 4)))[1]
    u = np.random.default_rng(18).random((2, 4))
    for log_w, uniforms in ((w[:1], u), (w, u[:1]), (w[0], u[0]), (w[0], u), (w, u[0]), (w[None], u[None])):
        with pytest.raises(ValueError, match="2-d, equal rows"):
            inverse_cdf(log_w, uniforms)
    assert inverse_cdf(w, u[:, :3]).shape == (2, 3)


def test_inverse_cdf_rejects_unnormalized_log_weights():
    """Clipping the cumulative weights at 1 would turn weights that do not
    sum to 1 into wrong ancestors with no error: plain weights passed as
    log-weights all land on slot 0, and log(3w) never reaches slot 2.  A
    row of all -inf, a degenerate worker, sums to exactly 0 and passes."""
    w = np.array([0.25, 0.25, 0.5])
    u = np.random.default_rng(17).random((2, 100))
    for bad in (w, np.log(3 * w), np.log(w) + [0.0, 0.0, 1e-8], np.log(w) + [0.0, np.nan, 0.0]):
        with pytest.raises(ValueError, match="normalized"):
            inverse_cdf(np.stack([np.log(w), bad]), u)
    assert inverse_cdf(np.stack([np.log(w), np.full(3, -np.inf)]), u).shape == (2, 100)


def test_search_constants_serve_interleaved_shapes_read_only():
    """inverse_cdf and resample_multinomial build their index constants
    once per shape: calls at interleaved (M, N, width) shapes, the
    1023-row chunk crossed or not, each give the plain per-row search,
    and a cached constant refuses writes."""
    rng = np.random.default_rng(42)
    shapes = [(3, 5, 5), (1, 5, 7), (1100, 4, 6), (3, 5, 5), (2, 9, 3), (1100, 4, 6), (1, 5, 7), (3, 5, 5)]
    for m, n, width in shapes:
        w = normalize_log_weights(rng.normal(size=(m, n)) * 3)[1]
        u = rng.random((m, width))
        got = inverse_cdf(w, u)
        np.testing.assert_array_equal(got, per_row_search(w, u))
        got[:] = -1  # the result is the caller's own array
        if width == n:
            pts = rng.normal(size=(m, n, 2))
            ps = ParticleSystem(pts.copy(), rngs=())
            resample_multinomial(ps, w, u)
            want = per_row_search(w, u)
            np.testing.assert_array_equal(bits(ps.particles), bits(np.take_along_axis(pts, want[:, :, None], axis=1)))
            np.testing.assert_array_equal(ps.labels, want)
    for args in ((4,), (3, 2**53 + 1), (5, 7)):
        with pytest.raises(ValueError, match="read-only"):
            ramp(*args)[0] = 1


@pytest.mark.parametrize("m", [1, 1023, 1024])
def test_resample_matches_per_worker_loop(m):
    # the stacked search and gather against one inverse_cdf call per
    # worker: zero-weight slots, a degenerate worker in the middle,
    # repeated probes and probes exactly on a key; 1024 rows cross the
    # 1023-row search chunk
    rng = np.random.default_rng(m)
    n = 7
    log_w = rng.normal(size=(m, n)) * 3
    log_w[rng.random((m, n)) < 0.3] = -np.inf
    log_w[:, 3] = 0.0
    if m > 1:
        log_w[m // 2] = -np.inf
    w = normalize_log_weights(log_w)[1]
    u = rng.random((m, n))
    u[:, 1] = u[:, 4]
    cum = np.minimum(np.cumsum(np.exp(w), axis=1), 1.0)
    u[:, 2] = np.minimum(np.floor(cum[:, 2] * 2**53), 2**53 - 1) * 2**-53  # a key itself
    want = np.concatenate([inverse_cdf(w[r:r + 1], u[r:r + 1]) for r in range(m)])
    np.testing.assert_array_equal(inverse_cdf(w, u), want)
    live = log_w.max(axis=1) > -np.inf
    np.testing.assert_array_equal(want[live], per_row_search(w[live], u[live]))

    pts = rng.normal(size=(m, n, 2))
    ps = ParticleSystem(pts.copy(), rngs=())
    resample_multinomial(ps, w, u)
    for r in range(m):
        expected = pts[r][want[r]] if live[r] else pts[r]
        np.testing.assert_array_equal(bits(ps.particles[r]), bits(expected))
        assert ps.labels[r].tolist() == (want[r] if live[r] else np.arange(n)).tolist()  # labels go with ancestors


@pytest.mark.parametrize("case", ["u of one column", "log_w of one row"])
def test_resample_rejects_log_w_or_u_other_than_m_by_n(case):
    """Neither input broadcasts: (2, 1) uniforms would give each worker
    4 copies of one ancestor, and a (1, 4) log_w would resample both
    workers from row 0's weights."""
    pts = np.arange(16.0).reshape(2, 4, 2)
    log_w = np.log(np.full((2, 4), 0.25))
    u = np.array([[0.5, 0.25, 0.75, 0.0], [0.25, 0.5, 0.0, 0.75]])
    if case == "u of one column":
        u = u[:, :1]
    else:
        log_w = np.array([[math.log(0.5)] * 2 + [-np.inf] * 2])
    ps = ParticleSystem(pts.copy(), rngs=())
    with pytest.raises(ValueError, match=r"log-weights .* and uniforms .* for \(2, 4\) particles"):
        resample_multinomial(ps, log_w, u)
    assert ps.particles.tolist() == pts.tolist()


def test_resample_skips_degenerate_worker():
    # worker 1's log-weights are all -inf: it keeps its population.  Its
    # resampling uniforms are drawn with everyone else's and discarded, so
    # its stream advances exactly like a healthy worker's (stream format
    # v3), and resampling itself draws nothing
    seeds = (30, 31, 32)
    ps = init_particles(box(-1, 1), 4, [np.random.default_rng(s) for s in seeds])
    kernel = JitterKernelSpec(space=box(-1, 1), proposal_std=0.1, n_particles=4)
    before = ps.particles.copy()
    w = normalize_log_weights(np.array([[0.0, 0.0, 0.0, 0.0], [-np.inf] * 4, [0.0, -np.inf, -np.inf, -np.inf]]))[1]
    u = one_step(ps, kernel)[2]
    states = [rng.bit_generator.state for rng in ps.rngs]
    resample_multinomial(ps, w, u)
    np.testing.assert_array_equal(ps.particles[1], before[1])
    assert [rng.bit_generator.state for rng in ps.rngs] == states
    alone = init_particles(box(-1, 1), 4, [np.random.default_rng(31)])
    one_step(alone, kernel)
    assert alone.rngs[0].bit_generator.state == states[1]
    assert (ps.particles[2] == before[2, 0]).all()


# ---------------------------------------------------------------------------
# full step


def quadratic_model(n=6):
    return CostModel(n=n, component_eval=lambda i, th: float(th @ th))


def test_step_single_particle_is_jittered_input():
    s = box(-10, 10, d=1)
    ps = init_particles(s, 1, [np.random.default_rng(17)])
    k = JitterKernelSpec(space=s, proposal_std=0.5, n_particles=1, epsilon=1.0)
    step(ps, quadratic_model(), np.array([[0]]), k)
    assert inside(s, ps.particles)


def test_step_constant_cost_keeps_log_z_zero():
    s = box(-2, 2)
    ps = init_particles(s, 16, [np.random.default_rng(18)])
    model = CostModel(n=4, component_eval=lambda i, th: 0.0)
    k = JitterKernelSpec(space=s, proposal_std=0.3, n_particles=16)
    steps = [step(ps, model, np.array([[t]]), k) for t in range(4)]
    assert [out.tolist() for out in steps] == [[0.0]] * 4


def test_step_containment_and_telescoping():
    """Each step returns its own normalizer, and the steps' sum in step
    order is the running total of the reference oracle driven on the
    same stream, one step's draws at a time."""
    s = box(-3, 3)
    ps = init_particles(s, 40, [np.random.default_rng(19)])
    oracle = reference_sampler.init_particles(s, 40, np.random.default_rng(19))
    model = quadratic_model(8)
    k = JitterKernelSpec(space=s, proposal_std=1.0, n_particles=40)
    steps = []
    for t in range(8):
        steps.append(step(ps, model, np.array([[t]]), k))
        reference_sampler.sampler_step(oracle, model, np.array([t]), k, 1)
        assert inside(s, ps.particles)
    assert np.array(steps)[:, 0].tolist() == oracle.log_z_steps
    assert sum(steps).tolist() == [oracle.log_z_cumulative]


def test_step_degenerate_keeps_jittered_particles():
    """All potentials -inf: no resampling, population left as jittered."""
    s = box(-1, 1)
    ps = init_particles(s, 8, [np.random.default_rng(20)])
    before = ps.particles.copy()
    k = JitterKernelSpec(space=s, proposal_std=0.0, n_particles=8, epsilon=0.1)
    out = step(ps, OVERFLOW_MODEL, np.array([[0, 1]]), k)
    assert out.tolist() == [-np.inf]
    # zero-std jitter is the identity, so "kept as jittered" here means
    # exactly the pre-step population, proving resampling was skipped
    np.testing.assert_array_equal(ps.particles, before)


def test_degenerate_worker_stays_disqualified():
    # one poisoned batch drives the cumulative normalizer to -inf for good
    s = box(-1, 1)
    ps = init_particles(s, 8, [np.random.default_rng(21)])

    def comp(i, th):
        return 1e308 if i < 2 else 0.5

    model = CostModel(n=4, component_eval=comp)
    k = JitterKernelSpec(space=s, proposal_std=0.1, n_particles=8)
    first = step(ps, model, np.array([[0, 1]]), k)
    assert first.tolist() == [-np.inf]
    second = step(ps, model, np.array([[2, 3]]), k)
    assert (first + second).tolist() == [-np.inf]
    # second batch is healthy (two components at 0.5 each, so a constant
    # potential of exp(-1)); the step normalizer is returned even though
    # the cumulative total is already sunk
    assert second[0] == pytest.approx(-1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# stream format v3: the blocks of step_draws


class CountingGenerator:
    """A generator that counts its calls and the normals it draws, and
    records the length of each block of uniforms."""

    def __init__(self, seed):
        self.rng, self.calls, self.normals, self.blocks = np.random.default_rng(seed), 0, 0, []

    def random(self, *args, **kwargs):
        self.calls += 1
        out = self.rng.random(*args, **kwargs)
        self.blocks.append(len(out))
        return out

    def normal(self, loc, scale, size):
        self.calls += 1
        self.normals += math.prod(size)
        return self.rng.normal(loc, scale, size)


def first_block(n, d, m, steps):
    """The length of the first block of `steps` steps, which every worker
    draws alike; checks the shapes of the first step's draws."""
    kernel = JitterKernelSpec(space=box(-1, 1, d=d), proposal_std=0.1, n_particles=n)
    rngs = tuple(CountingGenerator(j) for j in range(m))
    u, noise, u_resample = next(step_draws(ParticleSystem(np.zeros((m, n, d)), rngs), kernel, steps))
    assert u.shape == u_resample.shape == (m, n)
    assert noise.shape == (np.count_nonzero(u < kernel.epsilon), d)
    (blocks,) = {tuple(g.blocks) for g in rngs}
    return blocks[0]


def block_length(n, d, m):
    b = first_block(n, d, m, 10**6)
    assert first_block(n, d, m, 2) == min(b, 2)
    return b


def test_block_length_depends_on_particle_count_only():
    for n in (1, 7, 40, 50, 400, 1024, 1025, 5000):
        b = block_length(n, 1, 1)
        assert b * 2 * n <= BLOCK_ELEMENTS or b == 1
        for d in (2, 5):
            assert block_length(n, d, 3) == b
    # the stock profiles: mixture-5.1, sigmoid-5.2, sigmoid-wide
    assert [block_length(n, 2, 1) for n in (50, 40, 400)] == [20, 25, 2]


def test_step_draws_are_each_workers_two_calls_per_block_replayed():
    """Per block, worker m's uniforms are one random((b, 2, N)) call and
    its noise one normal(0, proposal_std, (moved, d)) call, rows in step
    then particle order; step_draws hands each step its rows in flat
    (worker, particle) order.  70 steps of B = 34 end in a partial block."""
    s = box(-1, 1, d=3)
    n, m = 30, 3
    kernel = JitterKernelSpec(space=s, proposal_std=0.7, n_particles=n)
    ps = init_particles(s, n, [np.random.default_rng(j) for j in range(m)])
    replays = [np.random.default_rng(j) for j in range(m)]
    for rng in replays:
        rng.random((n, 3))  # the initial particles
    draws = step_draws(ps, kernel, 70)
    for b in (34, 34, 2):
        block = [next(draws) for _ in range(b)]
        for w, rng in enumerate(replays):
            want_u = rng.random((b, 2, n))
            moves = want_u[:, 0] < kernel.epsilon
            want_noise = rng.normal(0.0, kernel.proposal_std, size=(int(moves.sum()), 3))
            got_u = np.stack([(u[w], u_resample[w]) for u, _, u_resample in block])
            assert got_u.tobytes() == want_u.tobytes()
            # step j's rows of worker w: the moved flat rows w*N .. (w+1)*N - 1
            mine = [z[np.flatnonzero(u < kernel.epsilon) // n == w] for u, z, _ in block]
            assert np.concatenate(mine).tobytes() == want_noise.tobytes()
        for rng, replay in zip(ps.rngs, replays):
            assert rng.bit_generator.state == replay.bit_generator.state
    assert next(draws, None) is None


def test_each_worker_makes_two_calls_per_block_and_draws_only_moved_noise():
    s = box(-1, 1)
    n, m, steps = 100, 4, 25  # B = 10: blocks of 10, 10 and 5
    kernel = JitterKernelSpec(space=s, proposal_std=0.2, n_particles=n)
    rngs = [CountingGenerator(j) for j in range(m)]
    ps = ParticleSystem(np.zeros((m, n, 2)), rngs=tuple(rngs))
    moved = sum(jitter(ps, kernel, u, z) for u, z, _ in step_draws(ps, kernel, steps))
    assert [g.calls for g in rngs] == [2 * 3] * m
    assert [g.blocks for g in rngs] == [[10, 10, 5]] * m
    assert sum(g.normals for g in rngs) == 2 * moved
    # the cap epsilon = 1/sqrt(N) moves about sqrt(N) particles a step
    assert 0 < moved < 2 * m * steps * math.sqrt(n)


@pytest.mark.parametrize("count", [2, 4])
def test_step_draws_need_one_generator_per_worker(count):
    """Two generators for three workers would leave a row of uniforms
    unfilled; a fourth would go unread."""
    kernel = JitterKernelSpec(space=box(-1, 1), proposal_std=0.1, n_particles=5)
    ps = ParticleSystem(np.zeros((3, 5, 2)), rngs=tuple(np.random.default_rng(j) for j in range(count)))
    with pytest.raises(ValueError, match=f"{count} generators for 3 workers"):
        next(step_draws(ps, kernel, 1))
