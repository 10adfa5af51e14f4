"""Acceptance suite: every stock benchmark claim, one test per criterion.

Each test prints a single verdict line straight to the terminal (through
the capture), with the measured numbers, then asserts.  Criteria 1 and 2
run the full benchmark profiles and together take a couple of minutes;
everything else finishes in seconds.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from psmco.cli import main
from psmco.config import build_problem, load_profile, parse_config, to_optimizer_config
from psmco.core import CostModel, SearchSpace, build_schedule, log_potentials, normalize_log_weights
from psmco.kde import bandwidth_rule
from psmco.parallel import run_psmco
from psmco.problems import (
    MixtureProblemSpec,
    PSGDConfig,
    find_grid_minima,
    make_mixture_problem,
    make_sigmoid_problem,
    run_psgd_baseline,
)
from psmco.problems import SigmoidProblemSpec
from psmco.sampler import (
    JitterKernelSpec,
    init_particles,
    inverse_cdf,
    jitter,
    step_draws,
    weight_and_accumulate,
)


SEEDS = (0, 1, 2, 3, 4)


def report(capsys, number, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {verdict}: {detail}")


def test_criterion_1_multimodal_recovery(capsys):
    """Full mixture benchmark: the pooled final particles must populate
    all four grid-verified wells (some particle within 1.0 of each well,
    and at least 85% of particles within 2.0 of a well) for a majority
    of 5 seeds."""
    doc = load_profile("mixture-5.1")
    doc.update(estimate_every=None, keep_final_particles=True)
    base = parse_config(doc)
    problem = build_problem(base)
    modes, _ = find_grid_minima(
        problem.model, np.array([-10.0, -10.0]), np.array([10.0, 10.0]), 200
    )
    assert len(modes) == 4

    flags = []
    worst_cover = 1.0
    worst_hit = 0.0
    for seed in SEEDS:
        cfg = replace(to_optimizer_config(base), seed=seed)
        _, record = run_psmco(problem.model, problem.space, cfg)
        pooled = record.final_particles.reshape(-1, 2)
        assert pooled.shape == (5000, 2)
        dists = np.linalg.norm(pooled[:, None, :] - modes[None, :, :], axis=2)
        nearest_particle = dists.min(axis=0)  # per mode
        nearest_mode = dists.min(axis=1)  # per particle
        cover = float((nearest_mode <= 2.0).mean())
        hit = float(nearest_particle.max())
        flags.append(bool((nearest_particle <= 1.0).all() and cover >= 0.85))
        worst_cover = min(worst_cover, cover)
        worst_hit = max(worst_hit, hit)

    passed = sum(flags) >= 3
    report(
        capsys, 1, passed,
        f"multimodal recovery {sum(flags)}/5 seeds "
        f"(worst mode-hit distance {worst_hit:.3f} <= 1.0, "
        f"worst coverage@2.0 {worst_cover:.4f} >= 0.85)",
    )
    assert passed


def test_criterion_2_flat_region_escape(capsys):
    """Desk-scale sigmoid benchmark: from the flat corner the sampler
    must beat gradient descent started at a good point, which in turn
    beats gradient descent started in the flat corner; the sampler's
    median final cost must be at most 0.05 n."""
    doc = load_profile("sigmoid-5.2")
    doc.update(n=20000, estimate_every=None)
    base = parse_config(doc)
    problem = build_problem(base)
    iterations = math.ceil(base.n / base.batch_size)

    f_smc, f_good, f_bad = [], [], []
    for seed in SEEDS:
        cfg = replace(to_optimizer_config(base), seed=seed)
        final, _ = run_psmco(problem.model, problem.space, cfg)
        f_smc.append(final.f_value)
        for target, point in ((f_good, (0.0, -100.0)), (f_bad, (-190.0, 0.0))):
            rec = run_psgd_baseline(
                problem,
                PSGDConfig(
                    n_chains=base.m_workers,
                    step_size=base.step_size,
                    init_point=point,
                    init_std=1e-4,
                    batch_size=base.batch_size,
                    iterations=iterations,
                    seed=seed,
                ),
            )
            target.append(float(rec.f_best[-1]))

    med_smc, med_good, med_bad = (float(np.median(v)) for v in (f_smc, f_good, f_bad))
    passed = med_smc < med_good < med_bad and med_smc <= 0.05 * base.n
    report(
        capsys, 2, passed,
        f"flat-region escape medians: sampler {med_smc:.1f} < "
        f"descent(good init) {med_good:.1f} < descent(flat init) {med_bad:.1f}, "
        f"sampler <= {0.05 * base.n:.0f}",
    )
    assert passed


def test_criterion_3_monte_carlo_rate(capsys):
    """One weighted step on f(x) = x^2 from a uniform population: the
    posterior-mean RMSE over 200 repeats must shrink like 1/sqrt(N),
    so quadrupling N divides it by about 2."""
    space = SearchSpace(np.array([-1.0]), np.array([1.0]))
    model = CostModel(
        n=1,
        component_eval=lambda i, th: float(th[0] ** 2),
        batch_eval=lambda idx, thetas: thetas[:, 0] ** 2,
    )

    def rmse(n_particles):
        errs = np.empty(200)
        for run in range(200):
            rng = np.random.default_rng(np.random.SeedSequence((3, n_particles, run)))
            system = init_particles(space, n_particles, [rng])  # one worker
            _, w = weight_and_accumulate(system, model, np.array([[0]]))
            errs[run] = np.exp(w[0]) @ system.particles[0, :, 0]
        return float(np.sqrt(np.mean(errs**2)))

    ratio = rmse(250) / rmse(1000)
    passed = 1.6 <= ratio <= 2.6
    report(
        capsys, 3, passed,
        f"posterior-mean RMSE ratio N=250 vs N=1000 is {ratio:.3f}, expected in [1.6, 2.6]",
    )
    assert passed


def test_criterion_4_schedule_potentials_tile_cost(capsys):
    """For every worker's mini-batch schedule in the stock mixture run,
    the per-step log potentials must sum to minus the full cost at 10
    random points, to relative error 1e-9."""
    problem = make_mixture_problem(MixtureProblemSpec())
    points = np.random.default_rng(4).uniform(-50.0, 50.0, size=(10, 2))
    want = -problem.model.total_cost_many(points)

    worst = 0.0
    children = np.random.SeedSequence(0).spawn(100)
    for child in children:
        rng = np.random.default_rng(child)
        schedule = build_schedule(problem.model.n, 1, rng)
        acc = np.zeros(len(points))
        for batch in schedule[:, None]:  # K=1: one index per batch
            acc += log_potentials(problem.model, batch, points)
        worst = max(worst, float(np.max(np.abs(acc - want) / np.abs(want))))

    passed = worst <= 1e-9
    report(
        capsys, 4, passed,
        f"schedule potential sums match -cost at 10 points for 100 workers, "
        f"max relative error {worst:.3e} <= 1e-9",
    )
    assert passed


def test_criterion_5_bandwidth_rule_values(capsys):
    got = (bandwidth_rule(40, 2), bandwidth_rule(64, 2), bandwidth_rule(1, 2), bandwidth_rule(1, 7))
    passed = got == (1.0, 0.5, 1.0, 1.0)
    report(
        capsys, 5, passed,
        f"bandwidth rule values (40,2)->{got[0]}, (64,2)->{got[1]}, (1,d)->{got[2]} "
        "match 1, 0.5, 1 exactly",
    )
    assert passed


def test_criterion_6_resampling_unbiased(capsys):
    weights = normalize_log_weights(np.log(np.array([0.25, 0.75])))[1]
    idx = inverse_cdf(weights[None], np.random.default_rng(123).random(10**5)[None])[0]
    freq = float(np.mean(idx == 1))
    passed = 0.74 <= freq <= 0.76
    report(
        capsys, 6, passed,
        f"heavy-ancestor frequency {freq:.4f} over 1e5 draws, expected in [0.74, 0.76]",
    )
    assert passed


def test_criterion_7_jitter_move_probability_bound(capsys):
    space = SearchSpace(np.array([-50.0, -50.0]), np.array([50.0, 50.0]))
    with pytest.raises(ValueError):
        JitterKernelSpec(space=space, proposal_std=1.0, n_particles=10000, epsilon=0.02)

    kernel = JitterKernelSpec(space=space, proposal_std=0.3, n_particles=10000, epsilon=0.01)
    mean, sigma = 100.0, math.sqrt(10000 * 0.01 * 0.99)
    lo, hi = mean - 5 * sigma, mean + 5 * sigma
    hits = 0
    counts = []
    for rep in range(20):
        system = init_particles(space, 10000, [np.random.default_rng(500 + rep)])  # one worker
        u, noise, _ = next(step_draws(system, kernel, 1))  # one step's draws
        moved = jitter(system, kernel, u, noise)
        counts.append(moved)
        hits += int(lo <= moved <= hi)
    passed = hits >= 19
    report(
        capsys, 7, passed,
        f"move-probability cap enforced at construction; moved counts in "
        f"[{lo:.1f}, {hi:.1f}] for {hits}/20 passes (min {min(counts)}, max {max(counts)})",
    )
    assert passed


def log_z_cells(trace_path, workers):
    """Per row: the t cell and the log_z_0 .. log_z_{workers-1} cells."""
    lines = trace_path.read_text().splitlines()
    header = lines[0].split(",")
    cols = [header.index("t")] + [header.index(f"log_z_{j}") for j in range(workers)]
    return [[cells[c] for c in cols] for cells in (ln.split(",") for ln in lines[1:])]


def test_criterion_8_worker_independence(capsys, tmp_path):
    """Workers never interact: the full mixture benchmark is byte-identical
    across repeats, and worker m's trajectory depends only on the seed and
    m, so a 50-worker run reproduces the first 50 log Z columns of the
    100-worker run, row for row."""
    runs = {}
    for name, extra in (("a", []), ("b", []), ("half", ["--override", "m_workers=50"])):
        out = tmp_path / name
        runs[name] = (main(["run", "--profile", "mixture-5.1", *extra, "--out", str(out)]), out)
    codes_ok = all(rc == 0 for rc, _ in runs.values())
    trace = {name: out / "trace.csv" for name, (_, out) in runs.items()}
    same = codes_ok and trace["a"].read_bytes() == trace["b"].read_bytes()
    prefix = codes_ok and log_z_cells(trace["a"], 50) == log_z_cells(trace["half"], 50)
    passed = codes_ok and same and prefix
    report(
        capsys, 8, passed,
        f"full benchmark traces byte-identical across repeats: {same}; "
        f"log_z_0..log_z_49 of a 50-worker run equal the 100-worker run's: {prefix}",
    )
    assert passed
