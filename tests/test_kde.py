import math

import numpy as np
import pytest

from psmco.kde import bandwidth_rule, kde_log_eval, map_estimate


def brute_force_kde(particles, h, point):
    """Linear-domain definition, trusted at moderate scales."""
    particles = np.atleast_2d(particles)
    n, d = particles.shape
    total = 0.0
    for p in particles:
        sq = float(np.sum((point - p) ** 2))
        total += (h ** -d) * (2 * math.pi) ** (-d / 2) * math.exp(-sq / (2 * h * h))
    return total / n


# ---------------------------------------------------------------------------
# bandwidth rule


def test_bandwidth_reference_values():
    assert bandwidth_rule(40, 2) == 1.0
    assert bandwidth_rule(64, 2) == 0.5
    for d in (1, 2, 3, 7):
        assert bandwidth_rule(1, d) == 1.0


def test_bandwidth_integer_floor_is_exact():
    # 64**(1/6) in floating point lands just below 2; the rule must not
    # be fooled by that
    assert bandwidth_rule(63, 2) == 1.0
    assert bandwidth_rule(65, 2) == 0.5
    assert bandwidth_rule(4095, 1) == pytest.approx(1 / 7)
    assert bandwidth_rule(4096, 1) == 0.125
    assert bandwidth_rule(10 ** 6, 2) == 0.1
    assert bandwidth_rule(10 ** 6 - 1, 2) == pytest.approx(1 / 9)


def test_bandwidth_non_increasing_in_population():
    prev = np.inf
    for n in range(1, 2000, 17):
        h = bandwidth_rule(n, 2)
        assert h <= prev
        prev = h


def test_bandwidth_rejects_bad_args():
    with pytest.raises(ValueError):
        bandwidth_rule(0, 2)
    with pytest.raises(ValueError):
        bandwidth_rule(10, 0)


@pytest.mark.parametrize("h", [0.0, -1.0, math.inf, math.nan])
def test_bandwidth_must_be_positive_and_finite(h):
    particles = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="bandwidth"):
        kde_log_eval(particles, particles, h)
    with pytest.raises(ValueError, match="bandwidth"):
        map_estimate(particles, h)


def test_points_must_have_the_particles_dimension():
    with pytest.raises(ValueError, match="dimension"):
        kde_log_eval(np.zeros((3, 2)), np.zeros((4, 1)), 1.0)


# ---------------------------------------------------------------------------
# density evaluation


def test_single_particle_peak_value():
    val = np.exp(kde_log_eval(np.array([[0.3]]), np.array([0.3]), 1.0))[0]
    assert val == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)


def test_symmetric_pair_equals_single_contribution():
    h = 0.7
    pair = np.exp(kde_log_eval(np.array([[-0.4], [0.4]]), np.array([0.0]), h))[0]
    single = np.exp(kde_log_eval(np.array([[0.4]]), np.array([0.0]), h))[0]
    assert pair == pytest.approx(single, rel=1e-13)


def test_matches_brute_force_oracle_1d():
    rng = np.random.default_rng(0)
    particles = rng.random((100, 1))
    h = 0.1
    point = np.array([0.5])
    got = np.exp(kde_log_eval(particles, point, h))[0]
    assert got == pytest.approx(brute_force_kde(particles, 0.1, point), rel=1e-12)


def test_matches_brute_force_oracle_2d():
    rng = np.random.default_rng(1)
    particles = rng.normal(size=(37, 2))
    h = 0.8
    for point in rng.normal(size=(5, 2)):
        got = np.exp(kde_log_eval(particles, point, h))[0]
        assert got == pytest.approx(brute_force_kde(particles, 0.8, point), rel=1e-12)


def test_log_eval_chunking_consistent():
    # force multiple chunks and compare against a single-pass evaluation
    rng = np.random.default_rng(2)
    particles = rng.normal(size=(4096, 2))
    points = rng.normal(size=(1500, 2))
    h = 0.5
    whole = kde_log_eval(particles, points, h)
    rows = np.array([kde_log_eval(particles, p[None, :], h)[0] for p in points[:40]])
    np.testing.assert_allclose(whole[:40], rows, rtol=1e-12)


def test_density_integrates_to_one_1d():
    rng = np.random.default_rng(3)
    particles = rng.normal(size=(200, 1))
    h = bandwidth_rule(200, 1)
    lo = particles.min() - 6 * h
    hi = particles.max() + 6 * h
    grid = np.linspace(lo, hi, 4001)
    vals = np.exp(kde_log_eval(particles, grid[:, None], h))
    integral = np.trapezoid(vals, grid)
    assert integral == pytest.approx(1.0, abs=1e-3)


def test_density_integrates_to_one_2d():
    rng = np.random.default_rng(4)
    particles = rng.normal(size=(64, 2))
    h = bandwidth_rule(64, 2)
    lo = particles.min(axis=0) - 6 * h
    hi = particles.max(axis=0) + 6 * h
    nx = 301
    xs = np.linspace(lo[0], hi[0], nx)
    ys = np.linspace(lo[1], hi[1], nx)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    vals = np.exp(kde_log_eval(particles, pts, h)).reshape(nx, nx)
    integral = np.trapezoid(np.trapezoid(vals, ys, axis=1), xs)
    assert integral == pytest.approx(1.0, abs=1e-3)


def test_shift_equivariance():
    rng = np.random.default_rng(5)
    particles = rng.normal(size=(50, 2))
    points = rng.normal(size=(20, 2))
    h = 0.6
    base = kde_log_eval(particles, points, h)
    for c in (np.array([10.0, -7.0]), np.array([-3.5, 0.25])):
        shifted = kde_log_eval(particles + c, points + c, h)
        np.testing.assert_allclose(shifted, base, rtol=1e-12)


# ---------------------------------------------------------------------------
# mode search


def test_map_single_particle():
    idx, theta = map_estimate(np.array([[1.5, -2.5]]), 1.0)
    assert idx == 0
    np.testing.assert_array_equal(theta, [1.5, -2.5])


def test_map_prefers_cluster_over_outlier():
    rng = np.random.default_rng(6)
    cluster = np.array([2.0, 2.0]) + 0.02 * rng.normal(size=(9, 2))
    outlier = np.array([[20.0, -20.0]])
    particles = np.vstack([cluster, outlier])
    h = 0.1
    idx, theta = map_estimate(particles, h)
    assert idx < 9
    assert np.linalg.norm(theta - [2.0, 2.0]) < 0.1


def test_map_tie_breaks_to_lowest_index():
    particles = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    h = 0.5
    idx, _ = map_estimate(particles, h)
    assert idx == 0
    # two isolated particles see mirror-image landscapes: exact tie
    idx2, theta2 = map_estimate(np.array([[0.0], [1.0]]), 1.0)
    assert idx2 == 0
    assert theta2[0] == 0.0


def test_map_at_distinct_labels_equals_the_all_particle_query():
    """Querying the KDE once per label gives the (index, theta) of
    querying every particle: copies tie and the first copy wins, and of
    two distinct points of equal density, mirror images in a symmetric
    cloud, the lower index wins."""
    h = 0.7
    rng = np.random.default_rng(8)
    pool = rng.normal(size=(6, 2))
    labels = rng.integers(0, 6, size=40)
    cases = [(pool[labels], labels)]
    # opposite corners of a square, two copies each, have equal density
    # to the last bit; labels may run up to 2N after a jitter
    square = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    cases.append((square[[3, 1, 0, 1, 0, 2]], np.array([7, 2, 0, 2, 0, 11])))
    for particles, labels in cases:
        want = map_estimate(particles, h)
        got = map_estimate(particles, h, labels)
        assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()
    values = kde_log_eval(particles, particles, h)
    assert (values[1:5] == values.max()).all() and want[0] == 1


def test_map_rejects_labels_outside_the_contract():
    """Labels out of [0, 2N) would wrap in label_groups' presence mask
    and merge distinct particles (here the mode 5.1 with 5.0, returning
    (2, [5.0])); labels of the wrong length or dtype are as wrong."""
    h = 1.0
    particles = np.array([[5.1], [0.0], [5.0], [5.2]])
    for labels in ([-1, 7, 1, 2], [0, 8, 1, 2], [0, 1, 2], [[0, 1, 2, 3]], [0.0, 1.0, 2.0, 3.0]):
        with pytest.raises(ValueError, match="labels"):
            map_estimate(particles, h, np.array(labels))
    idx, theta = map_estimate(particles, h, np.array([0, 7, 1, 2]))
    assert idx == 0 and theta.tolist() == [5.1]


def test_map_argmax_invariant_under_density_rescaling():
    # scaling particles and bandwidth together rescales every KDE value
    # by the same positive constant; the argmax index must not move
    rng = np.random.default_rng(7)
    particles = rng.normal(size=(40, 2)) * np.array([1.0, 3.0]) + np.array([0.5, -1.0])
    h = 0.4
    base_idx, _ = map_estimate(particles, h)
    for c in (0.5, 3.0, 17.0):
        idx, _ = map_estimate(particles * c, h * c)
        assert idx == base_idx


def test_sup_norm_error_shrinks_with_population():
    """With the default bandwidth rule the estimate converges to a smooth
    target density.  Step-to-step monotonicity does not hold at small N
    (the rule trades bias for variance unevenly), so compare populations
    a factor of 16 apart and demand a clear drop across the whole range."""
    grid = np.linspace(-3.0, 3.0, 61)[:, None]
    truth = np.exp(-0.5 * grid[:, 0] ** 2) / math.sqrt(2 * math.pi)
    sizes = (16, 64, 256, 1024, 4096, 16384)
    medians = []
    for n in sizes:
        h = bandwidth_rule(n, 1)
        errs = []
        for seed in range(20):
            particles = np.random.default_rng(seed).normal(size=(n, 1))
            dens = np.exp(kde_log_eval(particles, grid, h))
            errs.append(np.abs(dens - truth).max())
        medians.append(np.median(errs))
    for lo, hi in zip(medians[2:], medians[:-2]):
        assert lo < hi
    assert medians[-1] < 0.5 * medians[0]
