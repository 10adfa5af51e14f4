import math

import numpy as np
import pytest

from psmco.core import CostModel, DegenerateWeightsError, SearchSpace, normalize_log_weights
from psmco.sampler import (
    JitterKernelSpec,
    draw_ancestors,
    init_particles,
    inverse_cdf,
    jitter,
    resample_multinomial,
    sampler_step,
    weight_and_accumulate,
)


def box(lo, hi, d=2):
    return SearchSpace(np.full(d, float(lo)), np.full(d, float(hi)))


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
    assert s.contains(ps.particles)
    # CLT bound on the empirical mean, widened to +-5
    assert np.abs(ps.particles[0].mean(axis=0)).max() < 5.0
    assert ps.iteration == 0
    assert ps.log_z_cumulative.tolist() == [0.0]


def test_init_two_particles_contained():
    s = box(2, 3, d=3)
    ps = init_particles(s, 2, [np.random.default_rng(1)])
    assert s.contains(ps.particles)


def test_init_invalid_count():
    with pytest.raises(ValueError):
        init_particles(box(-1, 1), 0, [np.random.default_rng(0)])


def test_init_reproducible():
    a = init_particles(box(-1, 1), 64, [np.random.default_rng(5)]).particles
    b = init_particles(box(-1, 1), 64, [np.random.default_rng(5)]).particles
    np.testing.assert_array_equal(a, b)


def test_init_gaussian_around_point():
    s = box(-200, 200)
    center = np.array([-190.0, 0.0])
    ps = init_particles(s, 500, [np.random.default_rng(2)], init_point=center, init_std=1e-4)
    assert s.contains(ps.particles)
    assert np.abs(ps.particles - center).max() < 1e-3


def test_init_gaussian_clipped_into_box():
    s = box(-1, 1)
    ps = init_particles(s, 100, [np.random.default_rng(3)], init_point=np.array([5.0, 0.0]), init_std=0.01)
    assert s.contains(ps.particles)
    assert (ps.particles[0, :, 0] == 1.0).all()


# ---------------------------------------------------------------------------
# jitter


def test_jitter_moved_count_binomial_band():
    s = box(-50, 50)
    ps = init_particles(s, 10_000, [np.random.default_rng(4)])
    k = JitterKernelSpec(space=s, proposal_std=1.0, n_particles=10_000, epsilon=0.01)
    before = ps.particles.copy()
    moved = jitter(ps, k)
    assert type(moved) is int
    assert 50 <= moved <= 150
    changed = int((ps.particles != before).any(axis=2).sum())
    assert changed == moved
    assert s.contains(ps.particles)


def test_jitter_zero_std_is_identity():
    s = box(-50, 50)
    ps = init_particles(s, 200, [np.random.default_rng(6)])
    before = ps.particles.copy()
    k = JitterKernelSpec(space=s, proposal_std=0.0, n_particles=200, epsilon=0.05)
    jitter(ps, k)
    np.testing.assert_array_equal(ps.particles, before)


def test_jitter_clips_to_box():
    s = box(-1, 1)
    ps = init_particles(s, 1000, [np.random.default_rng(7)])
    k = JitterKernelSpec(space=s, proposal_std=100.0, n_particles=1000, epsilon=1 / math.sqrt(1000))
    jitter(ps, k)
    assert s.contains(ps.particles)


# ---------------------------------------------------------------------------
# weighting and the normalizer accumulator


def test_weights_constant_potential():
    s = box(-1, 1)
    ps = init_particles(s, 8, [np.random.default_rng(8)])
    model = CostModel(n=3, component_eval=lambda i, th: 2.5)
    w = weight_and_accumulate(ps, model, np.array([[1]]))
    np.testing.assert_allclose(np.exp(w), 1 / 8, rtol=1e-12)
    assert ps.log_z_cumulative[0] == pytest.approx(-2.5, rel=1e-12)
    assert len(ps.log_z_steps) == 1


def test_weights_hand_computed_example():
    """Potentials (1, 3): weights (0.25, 0.75) and normalizer (1+3)/2."""
    s = SearchSpace(np.array([-1.0]), np.array([2.0]))
    ps = init_particles(s, 2, [np.random.default_rng(9)])
    ps.particles = np.array([[[0.0], [1.0]]])
    model = CostModel(n=1, component_eval=lambda i, th: float(-math.log(3.0) * th[0]))
    w = weight_and_accumulate(ps, model, np.array([[0]]))
    np.testing.assert_allclose(np.exp(w), [[0.25, 0.75]], rtol=1e-12)
    assert ps.log_z_cumulative[0] == pytest.approx(math.log(2.0), rel=1e-12)


def test_weights_empty_batch_neutral():
    ps = init_particles(box(-1, 1), 4, [np.random.default_rng(10)])
    model = CostModel(n=2, component_eval=lambda i, th: 7.0)
    w = weight_and_accumulate(ps, model, np.empty((1, 0), dtype=int))
    np.testing.assert_allclose(np.exp(w), 0.25, rtol=1e-12)
    assert ps.log_z_cumulative.tolist() == [0.0]


def test_weights_degenerate_raises_after_recording():
    ps = init_particles(box(-1, 1), 4, [np.random.default_rng(11)])
    with pytest.raises(DegenerateWeightsError):
        weight_and_accumulate(ps, OVERFLOW_MODEL, np.array([[0, 1]]))
    assert [s.tolist() for s in ps.log_z_steps] == [[-np.inf]]
    assert ps.log_z_cumulative.tolist() == [-np.inf]


def test_cumulative_telescopes_exactly():
    rng = np.random.default_rng(12)
    ps = init_particles(box(-5, 5), 32, [rng])
    values = np.random.default_rng(1).normal(size=20)
    model = CostModel(n=20, component_eval=lambda i, th: float(values[i] * (1 + th @ th)))
    for t in range(10):
        weight_and_accumulate(ps, model, np.array([[2 * t, 2 * t + 1]]))
    assert ps.log_z_cumulative.tolist() == sum(ps.log_z_steps).tolist()


# ---------------------------------------------------------------------------
# resampling


class FixedUniforms:
    """Stand-in random stream feeding predetermined uniforms."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, n):
        assert n == len(self.values)
        return self.values.copy()


def test_resample_point_mass():
    ps = init_particles(box(-1, 1), 3, [np.random.default_rng(13)])
    target = ps.particles[0, 0].copy()
    w = normalize_log_weights(np.log([[1.0, 1e-300, 1e-300]]))[1]
    resample_multinomial(ps, w)
    # weight ~1 on the first particle: every draw lands there
    assert (ps.particles == target).all()


def test_draw_ancestors_uniform_mean_counts():
    # 10^4 replicates of 4 draws from uniform weights: mean count per
    # ancestor is 1 within +-0.05
    w = normalize_log_weights(np.zeros(4))[1]
    idx = draw_ancestors(w, 4 * 10_000, np.random.default_rng(14))
    counts = np.bincount(idx, minlength=4) / 10_000
    np.testing.assert_allclose(counts, 1.0, atol=0.05)


def test_draw_ancestors_skewed_frequency_band():
    w = normalize_log_weights(np.log([0.25, 0.75]))[1]
    idx = draw_ancestors(w, 100_000, np.random.default_rng(15))
    freq = (idx == 1).mean()
    assert 0.74 <= freq <= 0.76


def test_draw_ancestors_unbiased_within_three_se():
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    w = normalize_log_weights(np.log(probs))[1]
    total = 40_000
    idx = draw_ancestors(w, total, np.random.default_rng(16))
    freq = np.bincount(idx, minlength=4) / total
    se = np.sqrt(probs * (1 - probs) / total)
    assert (np.abs(freq - probs) <= 3 * se).all()


def test_draw_ancestors_tie_convention():
    # inverse CDF with cumulative (0.5, 1.0): u exactly on a boundary
    # selects the lower index
    w = np.log([0.5, 0.5])
    idx = draw_ancestors(w, 4, FixedUniforms([0.0, 0.5, 0.5 + 1e-12, 0.999]))
    np.testing.assert_array_equal(idx, [0, 0, 1, 1])


def test_inverse_cdf_rows_match_single_row_search():
    # per row: the same indices as the 1-d search, boundary ties included
    w = normalize_log_weights(np.log([[0.5, 0.5, 1e-300], [0.25, 0.25, 0.5], [1.0, 1e-300, 1e-300]]))[1]
    u = np.array([[0.0, 0.5, 0.5 + 1e-12, 0.999], [0.25, 0.5, 0.2, 0.75], [0.999, 0.0, 0.3, 0.9]])
    got = inverse_cdf(w, u)
    want = np.stack([np.searchsorted(np.cumsum(np.exp(w[r])), u[r], side="left") for r in range(3)])
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got[0], [0, 0, 1, 1])


def test_resample_skips_degenerate_worker():
    # worker 1's log-weights are all -inf: it keeps its population and its
    # stream is not advanced
    ps = init_particles(box(-1, 1), 4, [np.random.default_rng(s) for s in (30, 31, 32)])
    before = ps.particles.copy()
    w = normalize_log_weights(np.array([[0.0, 0.0, 0.0, 0.0], [-np.inf] * 4, [0.0, -np.inf, -np.inf, -np.inf]]))[1]
    state = ps.rngs[1].bit_generator.state
    resample_multinomial(ps, w)
    np.testing.assert_array_equal(ps.particles[1], before[1])
    assert ps.rngs[1].bit_generator.state == state
    assert (ps.particles[2] == before[2, 0]).all()


# ---------------------------------------------------------------------------
# full step


def quadratic_model(n=6):
    return CostModel(n=n, component_eval=lambda i, th: float(th @ th))


def test_step_single_particle_is_jittered_input():
    s = box(-10, 10, d=1)
    ps = init_particles(s, 1, [np.random.default_rng(17)])
    k = JitterKernelSpec(space=s, proposal_std=0.5, n_particles=1, epsilon=1.0)
    sampler_step(ps, quadratic_model(), np.array([[0]]), k)
    assert ps.iteration == 1
    assert s.contains(ps.particles)


def test_step_constant_cost_keeps_log_z_zero():
    s = box(-2, 2)
    ps = init_particles(s, 16, [np.random.default_rng(18)])
    model = CostModel(n=4, component_eval=lambda i, th: 0.0)
    k = JitterKernelSpec(space=s, proposal_std=0.3, n_particles=16)
    for t in range(4):
        out = sampler_step(ps, model, np.array([[t]]), k)
        assert out.tolist() == [0.0]
    assert ps.log_z_cumulative.tolist() == [0.0]
    assert ps.iteration == 4


def test_step_containment_and_telescoping():
    s = box(-3, 3)
    ps = init_particles(s, 40, [np.random.default_rng(19)])
    model = quadratic_model(8)
    k = JitterKernelSpec(space=s, proposal_std=1.0, n_particles=40)
    for t in range(8):
        sampler_step(ps, model, np.array([[t]]), k)
        assert s.contains(ps.particles)
    assert ps.log_z_cumulative.tolist() == sum(ps.log_z_steps).tolist()


def test_step_degenerate_keeps_jittered_particles():
    """All potentials -inf: no resampling, population left as jittered."""
    s = box(-1, 1)
    ps = init_particles(s, 8, [np.random.default_rng(20)])
    before = ps.particles.copy()
    k = JitterKernelSpec(space=s, proposal_std=0.0, n_particles=8, epsilon=0.1)
    out = sampler_step(ps, OVERFLOW_MODEL, np.array([[0, 1]]), k)
    assert out.tolist() == [-np.inf]
    # zero-std jitter is the identity, so "kept as jittered" here means
    # exactly the pre-step population, proving resampling was skipped
    np.testing.assert_array_equal(ps.particles, before)
    assert ps.iteration == 1
    assert ps.log_z_cumulative.tolist() == [-np.inf]


def test_degenerate_worker_stays_disqualified():
    # one poisoned batch drives the cumulative normalizer to -inf for good
    s = box(-1, 1)
    ps = init_particles(s, 8, [np.random.default_rng(21)])

    def comp(i, th):
        return 1e308 if i < 2 else 0.5

    model = CostModel(n=4, component_eval=comp)
    k = JitterKernelSpec(space=s, proposal_std=0.1, n_particles=8)
    sampler_step(ps, model, np.array([[0, 1]]), k)
    assert ps.log_z_cumulative.tolist() == [-np.inf]
    sampler_step(ps, model, np.array([[2, 3]]), k)
    assert ps.log_z_cumulative.tolist() == [-np.inf]
    # second batch is healthy (two components at 0.5 each, so a constant
    # potential of exp(-1)); the step normalizer is recorded even though
    # the cumulative total is already sunk
    assert ps.log_z_steps[1][0] == pytest.approx(-1.0, rel=1e-12)
