import math
import re

import numpy as np
import pytest

from psmco import core, kde
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


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bandwidth_at_either_side_of_every_perfect_power(d):
    """At N = k^p - 1, k^p and k^p + 1 (p = 2 (d + 1), k < 60) the rule
    gives 1 / the largest j with j^p <= N, found by integer search."""
    p = 2 * (d + 1)
    for k in range(1, 60):
        for n in (k ** p - 1, k ** p, k ** p + 1):
            if n >= 1:
                assert bandwidth_rule(n, d) == 1.0 / max(j for j in range(1, 61) if j ** p <= n)


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


@pytest.mark.parametrize("shape", [(2, 0), (0, 2), (0, 0), (3, 2, 0), (3, 0, 2), (0, 3, 2), (4,), (1, 2, 3, 2)])
def test_clouds_without_particles_or_coordinates_are_refused(shape):
    """A 0-d cloud used to give -log 2 for two particles, and an empty one
    a bare "math domain error"; a stack of no clouds raised numpy's
    "zero-size array" error, and a 1-d or 4-d array "not enough values to
    unpack".  Each now names the particles' shape."""
    particles = np.zeros(shape)
    points = np.zeros((1, shape[-1]))
    owner = np.zeros(1, dtype=int) if len(shape) == 3 else None
    message = re.escape(f"particles {shape}: a cloud needs at least one particle")
    with pytest.raises(ValueError, match=message):
        kde_log_eval(particles, points, 1.0, owner)
    with pytest.raises(ValueError, match=message):
        map_estimate(particles, 1.0)


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
    assert whole[:40].tobytes() == rows.tobytes()


@pytest.mark.parametrize("budget", [1, 7, core.STACK_BUDGET])
def test_one_budget_cuts_kde_rows_and_keeps_their_bits(budget, monkeypatch):
    """Under core.STACK_BUDGET, kde_log_eval hands logsumexp at most
    max(1, budget // N) rows at a time, and kde_log_eval and map_estimate
    give the bytes of the default budget, for one cloud and for stacked
    clouds."""
    rng = np.random.default_rng(5)
    clouds = rng.normal(size=(3, 40, 2))
    labels = np.tile(np.arange(40), (3, 1)) // 2 * 2  # copies in pairs
    clouds = np.take_along_axis(clouds, labels[..., None], axis=1)
    owner = np.repeat(np.arange(3), 40)

    def outputs():
        values = (kde_log_eval(clouds[0], clouds[0], 0.5), kde_log_eval(clouds, clouds.reshape(-1, 2), 0.5, owner))
        modes = (map_estimate(clouds[0], 0.5), map_estimate(clouds[0], 0.5, labels[0]),
                 map_estimate(clouds, 0.5, labels))
        return [v.tobytes() for v in values] + [(np.asarray(i).tobytes(), m.tobytes()) for i, m in modes]

    want = outputs()
    rows, lse = [], kde.logsumexp
    monkeypatch.setattr(kde, "logsumexp", lambda a: rows.append(len(a)) or lse(a))
    monkeypatch.setattr(core, "STACK_BUDGET", budget)
    assert outputs() == want
    assert max(rows) == min(max(1, budget // 40), 3 * 40)


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


def einsum_kde(particles, points, h):
    """The point-major formula: (P, N, d) differences reduced by einsum,
    then the max-shift logsumexp, each step in the library's order."""
    n, d = particles.shape
    diff = points[:, None, :] - particles[None, :, :]
    a = -np.einsum("pnd,pnd->pn", diff, diff) / (2.0 * h * h)
    m = a.max(axis=1, keepdims=True)
    const = -math.log(n) - d * math.log(h) - 0.5 * d * math.log(2.0 * math.pi)
    return (m[:, 0] + np.log(np.exp(a - m).sum(axis=1))) + const


def random_clouds(seed, dims, count=150):
    """(particles, labels, h): random N, copies of a pool marked by their
    labels, at times a cloud symmetric about 0, whose mirror-image points
    tie in density, and a range of scales."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.choice(dims))
        n = int(rng.integers(1, 60))
        pool = rng.normal(size=(int(rng.integers(1, n + 1)), d)) * rng.choice([1e-3, 1.0, 50.0])
        labels = rng.integers(0, len(pool), size=n)
        if rng.random() < 0.3:
            pool, labels = np.concatenate([pool, -pool]), np.concatenate([labels, labels + len(pool)])
        yield pool[labels], labels, float(rng.choice([0.05, 0.5, 1.0, 3.0]) * rng.uniform(0.5, 2.0))


def test_mode_search_has_the_bits_of_the_einsum_formula():
    """At d <= 2, the coordinate-major distance adds in einsum's order:
    kde_log_eval and map_estimate, with and without labels, give the
    point-major formula's bits."""
    for particles, labels, h in random_clouds(30, (1, 2)):
        want = einsum_kde(particles, particles, h)
        assert kde_log_eval(particles, particles, h).tobytes() == want.tobytes()
        best = int(np.argmax(want))
        for got in (map_estimate(particles, h), map_estimate(particles, h, labels)):
            assert got[0] == best and got[1].tobytes() == particles[best].tobytes()


def test_mode_values_above_two_dimensions_stay_within_1e_12():
    """At d >= 3 the coordinate sums pair their terms unlike einsum, so
    only the last bits may move."""
    for particles, _, h in random_clouds(31, (3, 4, 7), count=60):
        np.testing.assert_allclose(kde_log_eval(particles, particles, h), einsum_kde(particles, particles, h),
                                   rtol=1e-12, atol=1e-12)


def stacked_clouds(seed, dims, count=60):
    """(particles (E, N, d), labels (E, N), h): E clouds of one N, each
    copies of its own pool marked by their labels, at times symmetric
    about 0 so that mirror-image points tie in density."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d, n, e = int(rng.choice(dims)), int(rng.integers(1, 40)), int(rng.integers(1, 9))
        clouds, labels = np.empty((e, n, d)), np.empty((e, n), dtype=np.intp)
        for k in range(e):
            pool = rng.normal(size=(int(rng.integers(1, n + 1)), d)) * rng.choice([1e-3, 1.0, 50.0])
            labels[k] = rng.integers(0, len(pool), size=n)
            if n % 2 == 0 and rng.random() < 0.3:
                half = labels[k, :n // 2]
                pool, labels[k] = np.concatenate([pool, -pool]), np.concatenate([half, half + len(pool)])
            clouds[k] = pool[labels[k]]
        yield clouds, labels, float(rng.choice([0.05, 0.5, 1.0, 3.0]) * rng.uniform(0.5, 2.0))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stacked_mode_search_has_the_bits_of_one_cloud_at_a_time(d):
    """Stacked clouds give each cloud's (index, mode) of the 2-d form, bit
    for bit, with labels and without, ties included; the values of the
    one (R, N) table are the per-cloud values."""
    ties = 0
    for clouds, labels, h in stacked_clouds(40 + d, (d,)):
        for marks in (labels, None):
            best, modes = map_estimate(clouds, h, marks)
            want = [map_estimate(cloud, h, None if marks is None else marks[k]) for k, cloud in enumerate(clouds)]
            assert best.tolist() == [index for index, _ in want]
            assert modes.tobytes() == np.stack([mode for _, mode in want]).tobytes()
        owner = np.repeat(np.arange(len(clouds)), clouds.shape[1])
        values = kde_log_eval(clouds, clouds.reshape(-1, d), h, owner)
        assert values.tobytes() == np.concatenate([kde_log_eval(cloud, cloud, h) for cloud in clouds]).tobytes()
        ties += sum(int((kde_log_eval(c, c, h) == kde_log_eval(c, c, h).max()).sum() > 1) for c in clouds)
    assert ties > 0


def test_stacked_labels_are_checked_in_every_cloud():
    """A label outside [0, 2N) in any one cloud, labels of the wrong shape
    or dtype, or one cloud's labels for a stack, raise ValueError."""
    clouds = np.random.default_rng(9).normal(size=(3, 4, 2))
    good = np.tile(np.arange(4), (3, 1))
    for k in range(3):
        for value in (-1, 8):
            bad = good.copy()
            bad[k, 1] = value
            with pytest.raises(ValueError, match="labels"):
                map_estimate(clouds, 1.0, bad)
    for bad in (good[:2], good[:, :3], good.astype(float), good[0], good[None]):
        with pytest.raises(ValueError, match="labels"):
            map_estimate(clouds, 1.0, bad)
    best, modes = map_estimate(clouds, 1.0, good)
    assert best.shape == (3,) and modes.shape == (3, 2)


def test_owner_must_name_a_cloud_for_each_row():
    clouds = np.zeros((2, 3, 1))
    for particles, owner in ((clouds, None), (clouds[0], np.zeros(4, dtype=int)), (clouds, np.zeros(3, dtype=int))):
        with pytest.raises(ValueError, match="owner"):
            kde_log_eval(particles, np.zeros((4, 1)), 1.0, owner)


def test_owner_must_be_integers_below_the_cloud_count():
    """With E = 2 clouds, owner -1 would read the last cloud, 2 would
    raise IndexError and floats TypeError: each is a ValueError."""
    clouds = np.arange(6.0).reshape(2, 3, 1)
    for owner in ([0, -1], [0, 2], [0.0, 1.0]):
        with pytest.raises(ValueError, match=r"owner \(2,\) \(integers in \[0, 2\)"):
            kde_log_eval(clouds, np.zeros((2, 1)), 1.0, np.array(owner))
    assert kde_log_eval(clouds, np.zeros((2, 1)), 1.0, np.array([0, 1])).shape == (2,)
