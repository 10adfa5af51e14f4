import gc
import math
import weakref

import numpy as np
import pytest

import psmco.problems as problems
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
    got = prob.model.batch_eval(batch, thetas)
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
    got = prob.model.batch_eval(batch, thetas)
    want = [
        sum(prob.model.component_eval(int(i), t) for i in batch) for t in thetas
    ]
    np.testing.assert_allclose(got, want, rtol=1e-12)


STOCK_PROBLEMS = {
    "mixture": lambda: make_mixture_problem(MixtureProblemSpec(n=300)),
    "sigmoid": lambda: make_sigmoid_problem(SigmoidProblemSpec(n=300)),
}


@pytest.mark.parametrize("budget", [problems.STACK_BUDGET, 1])
@pytest.mark.parametrize("name", sorted(STOCK_PROBLEMS))
def test_stacked_batch_eval_equals_per_worker_calls(name, budget, monkeypatch):
    """Stacked input, (W, K) indices and (W, N, d) points, gives row w
    equal bit for bit to the single-worker call on worker w's batch, in
    one block of workers or one worker per block.  Near the origin, where
    all four mixture parts contribute, rows agree with summed
    component_eval; a point whose squared distance overflows costs +inf."""
    monkeypatch.setattr(problems, "STACK_BUDGET", budget)
    model = STOCK_PROBLEMS[name]().model
    assert model.stacked
    rng = np.random.default_rng(5)
    for w, n, k in ((5, 9, 40), (3, 1, 1), (1, 12, 7), (4, 20, 300)):
        indices = np.stack([rng.permutation(300)[:k] for _ in range(w)])
        thetas = rng.normal(size=(w, n, 2)) * 5
        got = model.batch_eval(indices, thetas)
        assert got.shape == (w, n)
        want = np.stack([model.batch_eval(indices[j], thetas[j]) for j in range(w)])
        assert got.tobytes() == want.tobytes()
    if name != "mixture":
        return
    indices = np.stack([rng.permutation(300)[:6] for _ in range(3)])
    thetas = rng.normal(size=(3, 5, 2)) * np.array([0.01, 0.1, 1.0])[:, None, None]
    thetas[1, 0] = (1e155, 0.0)
    got = model.batch_eval(indices, thetas)
    want = [[sum(model.component_eval(int(i), t) for i in b) for t in pts]
            for b, pts in zip(indices, thetas)]
    assert got[1, 0] == want[1][0] == math.inf
    np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("budget", [problems.STACK_BUDGET, 1])
def test_stock_kernels_two_d_input_equals_one_worker_stack(budget, monkeypatch):
    """Single-worker input to a stock kernel gives the W=1 stacked result
    bit for bit, in a block of workers or cut into chunks of points."""
    monkeypatch.setattr(problems, "STACK_BUDGET", budget)
    rng = np.random.default_rng(2)
    for make in STOCK_PROBLEMS.values():
        model = make().model
        for p, k in ((1, 300), (25, 300), (40, 7)):
            indices = rng.permutation(300)[:k]
            thetas = rng.normal(size=(p, 2)) * 3
            flat = model.batch_eval(indices, thetas)
            stacked = model.batch_eval(indices[None], thetas[None])
            assert flat.tobytes() == stacked[0].tobytes()


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
        fp = prob.model.batch_cost(idx, theta + step) / len(idx)
        fm = prob.model.batch_cost(idx, theta - step) / len(idx)
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


def test_psgd_config_validation():
    with pytest.raises(ValueError):
        PSGDConfig(n_chains=0)
    with pytest.raises(ValueError):
        PSGDConfig(batch_size=0)
    with pytest.raises(ValueError):
        PSGDConfig(step_size=-0.1)
