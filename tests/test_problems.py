import dataclasses
import gc
import math
import re
import weakref

import numpy as np
import pytest

import psmco.core as core
import psmco.problems as problems
from psmco.core import build_schedule, label_groups, log_potentials
from psmco.problems import (
    MixtureProblemSpec,
    PSGDConfig,
    SigmoidProblemSpec,
    find_grid_minima,
    make_mixture_problem,
    make_sigmoid_problem,
    run_psgd_baseline,
)


def brute_force_mixture_component(prob, i, theta):
    """Hand-rolled linear/log evaluation of one mixture component."""
    spec = prob.spec
    total = 0.0
    for k in range(4):
        sq = float(np.sum((np.asarray(theta) - prob.means[i, k]) ** 2))
        total += math.exp(-sq / (2 * spec.r)) / (2 * math.pi * spec.r)
    return -math.log(total) / spec.lam


# ---------------------------------------------------------------------------
# mixture problem


def test_mixture_component_matches_brute_force():
    prob = make_mixture_problem(MixtureProblemSpec())
    rng = np.random.default_rng(0)
    for i in (0, 7, 999):
        for theta in [prob.means[i, 0], np.zeros(2), rng.normal(size=2) * 3]:
            want = brute_force_mixture_component(prob, i, theta)
            got = prob.model.component_eval(i, theta)
            assert got == pytest.approx(want, rel=1e-12)


def test_mixture_batch_eval_matches_components():
    prob = make_mixture_problem(MixtureProblemSpec(n=50))
    rng = np.random.default_rng(1)
    thetas = rng.normal(size=(6, 2)) * 5
    batch = np.array([0, 3, 11, 49])
    got = prob.model.batch_eval(batch[None], thetas, np.zeros(len(thetas), dtype=np.intp))
    want = [
        sum(prob.model.component_eval(int(i), t) for i in batch) for t in thetas
    ]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_mixture_far_point_finite():
    prob = make_mixture_problem(MixtureProblemSpec())
    for theta in (np.array([50.0, 0.0]), np.array([50 / math.sqrt(2)] * 2)):
        f = prob.model.total_cost(theta)
        assert np.isfinite(f)
        assert f > prob.model.total_cost(np.array([4.0, 4.0]))


def test_mixture_grid_has_exactly_four_modes():
    """The default landscape shows 4 wells on a 200x200 grid scan."""
    prob = make_mixture_problem(MixtureProblemSpec())
    coords, vals = find_grid_minima(
        prob.model, np.array([-10.0, -10.0]), np.array([10.0, 10.0]), 200
    )
    assert len(vals) == 4
    base = np.array(prob.spec.base_means)
    dist = np.linalg.norm(coords[:, None, :] - base[None, :, :], axis=2).min(axis=1)
    assert (dist < 1.0).all()


def test_mixture_reproducible_and_seed_sensitive():
    a = make_mixture_problem(MixtureProblemSpec(seed=5))
    b = make_mixture_problem(MixtureProblemSpec(seed=5))
    c = make_mixture_problem(MixtureProblemSpec(seed=6))
    np.testing.assert_array_equal(a.means, b.means)
    assert not np.array_equal(a.means, c.means)


def test_mixture_center_order_unobservable():
    # each component cost sums over its 4 realized centers, so shuffling
    # the centers of a component cannot change its value
    prob = make_mixture_problem(MixtureProblemSpec(seed=3))
    rng = np.random.default_rng(2)
    for i in (0, 500, 999):
        order = rng.permutation(4)
        shuffled = prob.means.copy()
        shuffled[i] = prob.means[i, order]
        for theta in rng.normal(size=(4, 2)) * 2:
            got = prob.model.component_eval(i, theta)
            sq = np.sum((theta[None, :] - shuffled[i]) ** 2, axis=1)
            want = -math.log(
                float(np.sum(np.exp(-sq / (2 * prob.spec.r)) / (2 * math.pi * prob.spec.r)))
            ) / prob.spec.lam
            assert got == pytest.approx(want, rel=1e-12)


def test_mixture_spec_validation():
    with pytest.raises(ValueError):
        MixtureProblemSpec(n=0)
    with pytest.raises(ValueError):
        MixtureProblemSpec(r=0.0)
    with pytest.raises(ValueError):
        MixtureProblemSpec(lam=-1.0)


# ---------------------------------------------------------------------------
# sigmoid problem


def test_sigmoid_at_origin_predicts_half():
    prob = make_sigmoid_problem(SigmoidProblemSpec(n=200))
    theta = np.array([0.0, 0.0])
    for i in (0, 57, 199):
        want = (prob.y[i] - 0.5) ** 2
        assert prob.model.component_eval(i, theta) == want


def test_sigmoid_true_parameter_zero_cost():
    prob = make_sigmoid_problem(SigmoidProblemSpec(n=500))
    assert prob.model.total_cost(np.array(prob.spec.theta_true)) == 0.0


def test_sigmoid_flat_region_gradient_vanishes():
    prob = make_sigmoid_problem(SigmoidProblemSpec(n=1000))
    g = prob.mean_gradient(np.array([-190.0, 0.0]), np.arange(1000))
    assert np.linalg.norm(g) < 1e-60
    # the saturation bound itself: sigmoid(-190) * (1 - sigmoid(-190))
    assert math.exp(-190) < 1e-60


def test_sigmoid_batch_eval_matches_components():
    prob = make_sigmoid_problem(SigmoidProblemSpec(n=300))
    rng = np.random.default_rng(3)
    thetas = rng.normal(size=(7, 2)) * np.array([2.0, 5.0])
    batch = rng.integers(0, 300, size=40)
    got = prob.model.batch_eval(batch[None], thetas, np.zeros(len(thetas), dtype=np.intp))
    want = [
        sum(prob.model.component_eval(int(i), t) for i in batch) for t in thetas
    ]
    np.testing.assert_allclose(got, want, rtol=1e-12)


STOCK_PROBLEMS = {
    "mixture": lambda: make_mixture_problem(MixtureProblemSpec(n=300)),
    "sigmoid": lambda: make_sigmoid_problem(SigmoidProblemSpec(n=300)),
}


def worker_sums(model, batch, pts):
    """(W, P) sums of each worker's batch at its whole population
    pts (W, P, d), one W=1 sums call per worker."""
    return np.stack([model.sums(b[None], own, np.zeros(len(own), dtype=int)) for b, own in zip(batch, pts)])


@pytest.mark.parametrize("budget", [core.STACK_BUDGET, 1])
@pytest.mark.parametrize("name", sorted(STOCK_PROBLEMS))
def test_stacked_batch_eval_equals_per_worker_calls(name, budget, monkeypatch):
    """Ragged input, (W, K) indices, (W * N, d) points and their owners,
    gives each row the bits of the single-worker call on its worker's
    batch, in one chunk of rows or one row per chunk.  Near the origin,
    where all four mixture parts contribute, rows agree with summed
    component_eval; a point whose squared distance overflows costs +inf."""
    monkeypatch.setattr(core, "STACK_BUDGET", budget)
    model = STOCK_PROBLEMS[name]().model
    rng = np.random.default_rng(5)
    for w, n, k in ((5, 9, 40), (3, 1, 1), (1, 12, 7), (4, 20, 300)):
        indices = np.stack([rng.permutation(300)[:k] for _ in range(w)])
        thetas = rng.normal(size=(w, n, 2)) * 5
        got = model.batch_eval(indices, thetas.reshape(-1, 2), np.repeat(np.arange(w), n))
        assert got.shape == (w * n,)
        want = np.concatenate([model.batch_eval(indices[j:j + 1], thetas[j], np.zeros(n, dtype=int))
                               for j in range(w)])
        assert got.tobytes() == want.tobytes()
    if name != "mixture":
        return
    indices = np.stack([rng.permutation(300)[:6] for _ in range(3)])
    thetas = rng.normal(size=(3, 5, 2)) * np.array([0.01, 0.1, 1.0])[:, None, None]
    thetas[1, 0] = (1e155, 0.0)
    got = model.batch_eval(indices, thetas.reshape(-1, 2), np.repeat(np.arange(3), 5)).reshape(3, 5)
    want = [[sum(model.component_eval(int(i), t) for i in b) for t in pts]
            for b, pts in zip(indices, thetas)]
    assert got[1, 0] == want[1][0] == math.inf
    np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("budget", [core.STACK_BUDGET, 1])
@pytest.mark.parametrize("name, k", [("sigmoid", 100), ("sigmoid", 500), ("sigmoid", 8193),
                                     ("mixture", 1), ("mixture", 7)])
def test_potentials_of_duplicated_populations_equal_every_particle_evaluated(name, k, budget, monkeypatch):
    """log_potentials evaluates each worker's distinct particles once; on
    populations made mostly of copies, with worker 0 or every worker
    collapsed to a single point, every particle still gets the bits of an
    evaluation of the whole population, one sums call per worker."""
    monkeypatch.setattr(core, "STACK_BUDGET", budget)
    n_data = 9000 if name == "sigmoid" else 300
    spec = SigmoidProblemSpec(n=n_data) if name == "sigmoid" else MixtureProblemSpec(n=n_data)
    model = (make_sigmoid_problem if name == "sigmoid" else make_mixture_problem)(spec).model
    rng = np.random.default_rng(k)
    w, n = 4, 30
    pools = rng.normal(size=(w, 5, 2)) * 3
    thetas = pools[np.arange(w)[:, None], rng.integers(0, 5, size=(w, n))]
    thetas[0] = thetas[0, 0]
    batch = np.stack([rng.permutation(n_data)[:k] for _ in range(w)])
    for population in (thetas, np.repeat(thetas[:, :1], n, axis=1)):
        got = log_potentials(model, batch, population)
        assert got.tobytes() == (-worker_sums(model, batch, population)).tobytes()


@pytest.mark.parametrize("budget", [core.STACK_BUDGET, 1])
@pytest.mark.parametrize("name, k", [("sigmoid", 100), ("sigmoid", 500), ("sigmoid", 8193),
                                     ("sigmoid", 131073), ("mixture", 1), ("mixture", 7),
                                     ("mixture", 8193)])
def test_one_row_per_point_keeps_the_bits_of_whole_populations(name, k, budget, monkeypatch):
    """The stock kernels meet CostModel's layout contract: sums on the
    ragged rows of all workers, on a prefix of them, or on one row per
    point with each point its own worker (indices (R, K)), gives each
    point the bits of one call per worker on its whole population, for
    row counts from a single row to ones that leave a chunk of one row;
    so does a W=1 call on one point alone, and log_potentials on
    labelled copies, with worker 0 collapsed, or a lone worker collapsed
    to one point."""
    # slabs of at least K // 8 columns: a budget of 1 would cut K = 131073
    # into 1024 slabs of 128 per row, where about eight keep one row per chunk
    per_pair = 12 if name == "mixture" else 1
    monkeypatch.setattr(core, "STACK_BUDGET", max(budget, per_pair * (k // 8)))
    n_data = max(k, 9000)
    spec = SigmoidProblemSpec(n=n_data) if name == "sigmoid" else MixtureProblemSpec(n=n_data)
    model = (make_sigmoid_problem if name == "sigmoid" else make_mixture_problem)(spec).model
    rng = np.random.default_rng(k)
    w, p = 4, 30
    batch = np.stack([rng.permutation(n_data)[:k] for _ in range(w)])
    pts = rng.normal(size=(w, p, 2)) * 3
    whole = worker_sums(model, batch, pts)
    owner = np.repeat(np.arange(w), p)
    assert model.sums(batch, pts.reshape(-1, 2), owner).tobytes() == whole.tobytes()
    for r in (1, 2, 3, 32, w * p):
        assert model.sums(batch, pts.reshape(-1, 2)[:r], owner[:r]).tobytes() == whole.ravel()[:r].tobytes()
        rows = model.sums(np.take(batch, owner[:r], axis=0), pts.reshape(-1, 2)[:r], np.arange(r))
        assert rows.tobytes() == whole.ravel()[:r].tobytes()
    alone = [model.batch_eval(batch[j:j + 1], pts[j, i:i + 1], np.zeros(1, dtype=int))
             for j in range(w) for i in range(p)]
    assert np.concatenate(alone).tobytes() == whole.tobytes()
    labels = rng.integers(0, 5, size=(w, p))
    labels[0] = labels[0, 0]
    thetas = pts[np.arange(w)[:, None], labels]
    want = -worker_sums(model, batch, thetas)
    assert log_potentials(model, batch, thetas, label_groups(labels)[1:]).tobytes() == want.tobytes()
    lone = np.repeat(pts[:1, :1], p, axis=1)
    got = log_potentials(model, batch[:1], lone, label_groups(np.zeros((1, p), dtype=int))[1:])
    assert got.tobytes() == (-worker_sums(model, batch[:1], lone)).tobytes()


@pytest.mark.parametrize("name, per_pair", [("sigmoid", 1), ("mixture", 12)])
def test_points_cut_into_chunks_keep_the_bits_of_one_call(name, per_pair, monkeypatch):
    """A worker's rows are cut into chunks under STACK_BUDGET: 64 points
    at K = 1000 go in chunks of 9, the last holding one point alone, and
    every point keeps the bits of the unchunked call."""
    k, p = 1000, 64
    spec = SigmoidProblemSpec(n=k) if name == "sigmoid" else MixtureProblemSpec(n=k)
    model = (make_sigmoid_problem if name == "sigmoid" else make_mixture_problem)(spec).model
    rng = np.random.default_rng(3)
    batch = rng.permutation(k)[None]
    pts = rng.normal(size=(p, 2)) * 3
    owner = np.zeros(p, dtype=int)
    monkeypatch.setattr(core, "STACK_BUDGET", p * per_pair * k)
    whole = model.sums(batch, pts, owner)
    monkeypatch.setattr(core, "STACK_BUDGET", 9 * per_pair * k)
    assert model.sums(batch, pts, owner).tobytes() == whole.tobytes()
    seen = []
    problems._batch_kernel(lambda i, t, o: seen.append(t.shape) or t[:, 0], per_pair)(batch, pts, owner)
    assert seen == [(9, 2)] * 7 + [(1, 2)]


@pytest.mark.parametrize("name, per_pair", [("sigmoid", 1), ("mixture", 12)])
def test_ragged_chunks_across_workers_keep_the_bits_of_per_worker_calls(name, per_pair, monkeypatch):
    """Workers of 3, 0, 6 and 2 rows in chunks of 4: the chunks cut
    across workers 0 | 2 and 2 | 3 and inside worker 2, worker 1 owns no
    row, and each chunk's kernel call gets only the batches of the
    workers it spans.  Every row keeps the bits of its worker's own W=1
    call."""
    k = 50
    model = STOCK_PROBLEMS[name]().model
    rng = np.random.default_rng(8)
    batch = np.stack([rng.permutation(300)[:k] for _ in range(4)])
    counts = [3, 0, 6, 2]
    owner = np.repeat(np.arange(4), counts)
    pts = rng.normal(size=(len(owner), 2)) * 3
    monkeypatch.setattr(core, "STACK_BUDGET", 4 * per_pair * k)
    edges = np.cumsum([0] + counts)
    want = np.concatenate([model.batch_eval(batch[j:j + 1], pts[edges[j]:edges[j + 1]], np.zeros(counts[j], dtype=int))
                           for j in (0, 2, 3)])
    assert model.sums(batch, pts, owner).tobytes() == want.tobytes()
    seen = []
    problems._batch_kernel(lambda i, t, o: seen.append((len(i), o.tolist())) or t[:, 0], per_pair)(batch, pts, owner)
    assert seen == [(3, [0, 0, 0, 2]), (1, [0, 0, 0, 0]), (2, [0, 1, 1])]


@pytest.mark.parametrize("n", [100_000, 131_073, 129, 7])
@pytest.mark.parametrize("name, per_pair", [("sigmoid", 1), ("mixture", 12)])
def test_sweeps_cut_into_column_slabs_keep_the_bits_of_one_row_sum(name, per_pair, n, monkeypatch):
    """A full-cost sweep wider than STACK_BUDGET // per_pair columns is
    cut into column slabs, at least 128 wide, added in numpy's pairwise
    order: at budgets that cut K = n into a few slabs, into many, or
    down to the 128-column floor, every row keeps the bits of one .sum()
    over the whole row.  A numpy that changes its pairwise rule fails
    here."""
    spec = SigmoidProblemSpec(n=n) if name == "sigmoid" else MixtureProblemSpec(n=n)
    model = (make_sigmoid_problem if name == "sigmoid" else make_mixture_problem)(spec).model
    thetas = np.random.default_rng(n).normal(size=(3, 2)) * 3
    monkeypatch.setattr(core, "STACK_BUDGET", 3 * per_pair * n)
    whole = model.total_cost_many(thetas)
    for budget in (per_pair * (n // 3), per_pair * 1000, 1):
        monkeypatch.setattr(core, "STACK_BUDGET", budget)
        assert model.total_cost_many(thetas).tobytes() == whole.tobytes()
        width, seen = max(128, budget // per_pair), []
        problems._batch_kernel(lambda i, t, o: seen.append(i.shape[1]) or t[:, 0], per_pair)(
            np.arange(n)[None], thetas[:1], np.zeros(1, dtype=int))
        assert sum(seen) == n and max(seen) <= width and (len(seen) > 1) == (n > width)


def test_grid_minima_keep_their_bits_in_column_slabs(monkeypatch):
    """find_grid_minima's sweeps give the same minima, bit for bit, with
    every grid node in one call, in slabs of 375 columns, or in one row
    per call in slabs at the 128-column floor."""
    model = make_mixture_problem(MixtureProblemSpec(n=1000)).model
    monkeypatch.setattr(core, "STACK_BUDGET", 12 * 1000 * 30 * 30)
    coords, values = find_grid_minima(model, [-8, -8], [8, 8], num_points=30)
    assert len(values) >= 4
    for budget in (12 * 375, 1):
        monkeypatch.setattr(core, "STACK_BUDGET", budget)
        got = find_grid_minima(model, [-8, -8], [8, 8], num_points=30)
        assert (got[0].tobytes(), got[1].tobytes()) == (coords.tobytes(), values.tobytes())


@pytest.mark.parametrize("name", sorted(STOCK_PROBLEMS))
def test_total_cost_is_one_row_of_total_cost_many(name):
    """total_cost(theta) is total_cost_many on the one row theta, bit for
    bit, and both agree with summed component_eval."""
    model = STOCK_PROBLEMS[name]().model
    thetas = np.random.default_rng(6).normal(size=(5, 2)) * 3
    many = model.total_cost_many(thetas)
    assert np.array([model.total_cost(t) for t in thetas]).tobytes() == many.tobytes()
    want = [sum(model.component_eval(i, t) for i in range(model.n)) for t in thetas]
    np.testing.assert_allclose(many, want, rtol=1e-12)


def test_sums_reject_an_owner_out_of_order_of_the_wrong_length_or_out_of_range():
    """owner must hold R integers, nondecreasing, in [0, W): out of order,
    the ragged kernel would give worker 0's row worker 2's sum."""
    model = make_sigmoid_problem(SigmoidProblemSpec(n=300)).model
    indices = np.arange(30).reshape(3, 10)
    pts = np.full((3, 2), 0.5)
    want = [model.sums(b[None], p[None], [0])[0] for b, p in zip(indices, pts)]
    assert model.sums(indices, pts, [0, 1, 2]).tolist() == want
    for owner in ([1, 0, 2], [0, 1], [0, 1, 2, 2], [0, 1, 3], [-1, 0, 1], [0.0, 1.0, 2.0]):
        with pytest.raises(ValueError, match="owner"):
            model.sums(indices, pts, owner)


def test_stock_kernels_are_freed_by_reference_counting():
    """A stock kernel is in no reference cycle, so it and the data it
    holds go with the last reference, without waiting for the cycle
    collector."""
    gc.disable()
    try:
        for make in STOCK_PROBLEMS.values():
            kernel = weakref.ref(make().model.batch_eval)
            assert kernel() is None
    finally:
        gc.enable()


def test_sigmoid_gradient_against_finite_differences():
    prob = make_sigmoid_problem(SigmoidProblemSpec(n=400))
    idx = np.arange(60)
    theta = np.array([0.4, -0.9])
    grad = prob.mean_gradient(theta, idx)
    eps = 1e-6
    for j in range(2):
        step = np.zeros(2)
        step[j] = eps
        fp, fm = prob.model.sums(idx[None], np.stack([theta + step, theta - step]), [0, 0]) / len(idx)
        assert grad[j] == pytest.approx((fp - fm) / (2 * eps), rel=1e-5)


def test_sigmoid_cost_bounds():
    prob = make_sigmoid_problem(SigmoidProblemSpec(n=100))
    rng = np.random.default_rng(4)
    for theta in rng.normal(size=(10, 2)) * 50:
        for i in (0, 13, 99):
            f = prob.model.component_eval(i, theta)
            y = prob.y[i]
            assert 0.0 <= f <= max(y, 1 - y) ** 2 + 1e-12


def test_sigmoid_reproducible():
    a = make_sigmoid_problem(SigmoidProblemSpec(n=100, seed=9))
    b = make_sigmoid_problem(SigmoidProblemSpec(n=100, seed=9))
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)
    c = make_sigmoid_problem(SigmoidProblemSpec(n=100, seed=10))
    assert not np.array_equal(a.x, c.x)


def test_sigmoid_optional_noise():
    clean = make_sigmoid_problem(SigmoidProblemSpec(n=50, seed=1))
    noisy = make_sigmoid_problem(SigmoidProblemSpec(n=50, seed=1, noise_std=0.1))
    np.testing.assert_array_equal(clean.x, noisy.x)
    assert not np.array_equal(clean.y, noisy.y)


# ---------------------------------------------------------------------------
# gradient-descent baseline


def test_psgd_zero_step_is_frozen():
    prob = make_sigmoid_problem(SigmoidProblemSpec(n=200))
    cfg = PSGDConfig(
        n_chains=4, step_size=0.0, init_point=(0.3, 0.7), init_std=0.0,
        batch_size=20, iterations=25, seed=0,
    )
    rec = run_psgd_baseline(prob, cfg)
    assert (rec.f_best == rec.f_best[0]).all()
    np.testing.assert_array_equal(rec.thetas, np.tile([0.3, 0.7], (4, 1)))


def test_psgd_flat_region_stays_flat():
    """Chains dropped deep in the saturated region cannot move."""
    prob = make_sigmoid_problem(SigmoidProblemSpec(n=2000))
    cfg = PSGDConfig(
        n_chains=5, step_size=0.5, init_point=(-190.0, 0.0), init_std=1e-4,
        batch_size=100, iterations=1000, seed=1,
    )
    rec = run_psgd_baseline(prob, cfg)
    assert np.abs(rec.f_best - rec.f_best[0]).max() <= 1e-6


def test_psgd_full_batch_matches_plain_descent():
    """batch_size=n makes every step a full-gradient step; compare with
    an independently coded descent loop."""
    n = 50
    prob = make_sigmoid_problem(SigmoidProblemSpec(n=n, seed=2))
    cfg = PSGDConfig(
        n_chains=3, step_size=0.4, init_point=(0.0, 0.0), init_std=0.5,
        batch_size=n, iterations=30, seed=7,
    )
    rec = run_psgd_baseline(prob, cfg)

    rng = np.random.default_rng(7)
    thetas = np.array([0.0, 0.0]) + rng.normal(0.0, 0.5, size=(3, 2))
    all_idx = np.arange(n)
    for t in range(1, 31):
        rng.permutation(n)  # the baseline reshuffles each epoch; consume identically
        rng.permutation(n)
        rng.permutation(n)
        grads = np.array([prob.mean_gradient(th, all_idx) for th in thetas])
        thetas = thetas - (0.4 / math.sqrt(t)) * grads
    np.testing.assert_allclose(rec.thetas, thetas, rtol=1e-9, atol=1e-12)


def test_psgd_benign_init_descends():
    prob = make_sigmoid_problem(SigmoidProblemSpec(n=500, seed=3))
    cfg = PSGDConfig(
        n_chains=4, step_size=0.5, init_point=(0.0, 0.0), init_std=0.1,
        batch_size=50, iterations=150, seed=4,
    )
    rec = run_psgd_baseline(prob, cfg)
    assert rec.f_best[-1] < rec.f_best[0]
    assert rec.f_best.shape == (151,)
    np.testing.assert_allclose(rec.f_final.min(), rec.f_best[-1], rtol=1e-12)


def test_psgd_walks_the_samplers_pass():
    """A pass is step_count(n, K) steps over a fresh build_schedule
    permutation per chain, drawn in chain order, the last step holding
    the remainder; the step after a pass starts a new one."""
    sig = make_sigmoid_problem(SigmoidProblemSpec(n=50))
    gradient, batches = type(sig).mean_gradient, []

    class Recording(type(sig)):
        def mean_gradient(self, theta, indices):
            batches.append(indices.copy())
            return gradient(self, theta, indices)

    run_psgd_baseline(Recording(**vars(sig)), PSGDConfig(n_chains=3, batch_size=20, iterations=4, seed=2))
    assert [b.shape for b in batches] == [(3, 20), (3, 20), (3, 10), (3, 20)]
    one_pass = np.concatenate(batches[:3], axis=1)
    assert all(sorted(chain) == list(range(50)) for chain in one_pass.tolist())
    rng = np.random.default_rng(2)
    rng.normal(0.0, 0.0, size=(3, 2))  # the chains' starting points
    np.testing.assert_array_equal(one_pass, [build_schedule(50, 20, rng) for _ in range(3)])
    np.testing.assert_array_equal(batches[3], [build_schedule(50, 20, rng)[:20] for _ in range(3)])


def test_psgd_refuses_a_batch_above_n():
    prob = make_sigmoid_problem(SigmoidProblemSpec(n=50))
    with pytest.raises(ValueError, match=re.escape("batch_size must be in [1, n=50], got 51")):
        run_psgd_baseline(prob, PSGDConfig(batch_size=51, iterations=3))


@pytest.mark.parametrize("step_size", [0.5, 0.0])
@pytest.mark.parametrize("iterations", [0, 7])
def test_psgd_sweeps_each_iterate_once(iterations, step_size):
    """One full-cost sweep per iterate, the start and each update, of the
    chains whose theta bits changed: frozen chains keep their costs, and
    the last costs are f_final."""
    prob = make_sigmoid_problem(SigmoidProblemSpec(n=200))
    sweeps = []

    def counting(indices, thetas, owner):
        sweeps.append(len(thetas))
        return prob.model.batch_eval(indices, thetas, owner)

    counted = dataclasses.replace(prob, model=dataclasses.replace(prob.model, batch_eval=counting))
    cfg = PSGDConfig(n_chains=4, step_size=step_size, init_std=0.1, batch_size=20, iterations=iterations, seed=5)
    rec = run_psgd_baseline(counted, cfg)
    assert sweeps == [4] * (iterations + 1 if step_size else 1)
    assert rec.f_final.tobytes() == prob.model.total_cost_many(rec.thetas).tobytes()
    assert rec.f_best[-1] == rec.f_final.min() and rec.f_best.shape == (iterations + 1,)


def test_psgd_config_validation():
    with pytest.raises(ValueError):
        PSGDConfig(n_chains=0)
    with pytest.raises(ValueError):
        PSGDConfig(batch_size=0)
    with pytest.raises(ValueError):
        PSGDConfig(step_size=-0.1)
