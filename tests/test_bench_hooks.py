"""The benchmark's tracer finds its layers by name: every function that
bench/spans.py wraps must exist where it looks it up, so a refactor that
renames or moves one fails here instead of as an absent layer in a run."""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ENTRY_POINTS = load_spans().ENTRY_POINTS


@pytest.mark.parametrize("module, attr, span", ENTRY_POINTS, ids=[e[2] for e in ENTRY_POINTS])
def test_entry_point_resolves_to_its_layer(module, attr, span):
    """The name the caller looks up is the function its span names."""
    found = getattr(importlib.import_module(module), attr, None)
    assert callable(found), f"{module}.{attr} is missing"
    layer, name = span.split(".")
    assert found is getattr(importlib.import_module(f"psmco.{layer}"), name)


def test_full_cost_resolves():
    """The tracer times every full-cost evaluation through this method."""
    core = importlib.import_module("psmco.core")
    assert callable(getattr(core.CostModel, "total_cost", None))


def test_jitter_payload_reads_the_system_and_the_moved_count():
    """The tracer's jitter payload reads the particle system from jitter's
    first argument and the moved count from its int result."""
    sampler = importlib.import_module("psmco.sampler")
    space = importlib.import_module("psmco.core").SearchSpace(np.full(2, -1.0), np.full(2, 1.0))
    assert next(iter(inspect.signature(sampler.jitter).parameters)) == "system"
    system = sampler.init_particles(space, 9, [np.random.default_rng(j) for j in range(3)])
    kernel = sampler.JitterKernelSpec(space=space, proposal_std=0.1, n_particles=9)
    u, noise, _ = next(sampler.step_draws(system, kernel, 1))
    args = (system, kernel, u, noise)
    moved = sampler.jitter(*args)
    assert type(moved) is int and moved == int((u < kernel.epsilon).sum())
    assert load_spans()._jitter_payload(args, moved) == (float(moved), 3.0)


def test_timed_kernel_passes_the_ragged_call_through():
    """The tracer times a model's batch_eval through a wrapper: the
    ragged (indices, thetas, owner) call reaches a stock kernel unchanged
    and gives the same bits, and the kernel payload reads the call
    without raising."""
    spans = load_spans()
    problems = importlib.import_module("psmco.problems")
    problem = problems.make_sigmoid_problem(problems.SigmoidProblemSpec(n=300))
    tracer = spans.Tracer()
    timed = tracer._timed_problem(problem).model
    rng = np.random.default_rng(0)
    indices = np.stack([rng.permutation(300)[:20] for _ in range(3)])
    thetas = rng.normal(size=(7, 2))
    owner = np.array([0, 0, 1, 1, 1, 2, 2])
    assert timed.batch_eval is not problem.model.batch_eval
    assert timed.sums(indices, thetas, owner).tobytes() == problem.model.sums(indices, thetas, owner).tobytes()
    assert len(tracer.payloads) == 3 and not tracer.missing


@pytest.mark.parametrize("profile, overrides", [
    ("mixture-5.1", ("n=200", "m_workers=6", "n_particles=20")),
    ("sigmoid-5.2", ("n=2000", "m_workers=5", "n_particles=12", "batch_size=50")),
], ids=["mixture-5.1", "sigmoid-5.2"])
def test_traced_child_prints_its_result_and_plain_json_metrics(tmp_path, profile, overrides):
    """A traced repetition of a stock profile, shrunk, run as the benchmark
    runs one: the child exits 0, its last line is its JSON result, and its
    layer metrics are JSON without NaN or Infinity."""
    cmd = [sys.executable, str(SPANS.parent / "child.py"), "--profile", profile, "--seed", "0",
           "--out", str(tmp_path), "--trace"]
    for item in overrides:
        cmd += ["--override", item]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=SPANS.parent.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert isinstance(result, dict) and result["exit_code"] == 0
    json.dumps(load_spans().layer_metrics(str(tmp_path / "spans.npz")), allow_nan=False)
