"""Self-test of the benchmark harness, on shrunk configs.

Usage (from the root of a checkout): python3 bench/selftest.py

Checks that BENCHMARK.json and the harness name the same metrics with
the same units; that every metric is emitted, untraced and traced; that
healthy runs pass every output check; that a run failing an output
check lowers pass_frac; that each output check catches a doctored
trace; and that a missing or uncalled entry point is reported as an
absent layer.  The shrunk workloads exist only here and are never
reported as benchmark workloads.  Exits 1 on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import run  # sets up sys.path for the harness modules

from workloads import END_TO_END, PER_LAYER, Workload

SHRUNK = (
    Workload("selftest-mixture", "mixture-5.1",
             ("n=200", "m_workers=4", "n_particles=40", "half_width=10")),
    Workload("selftest-sigmoid", "sigmoid-5.2", ("n=10000", "m_workers=4", "n_particles=40")),
)
# parses as JSON but is rejected by the config: the run exits with code 2
BROKEN = Workload("selftest-broken", "mixture-5.1", ("n=200", "estimate_every=0"))


def expect(ok: bool, message: str) -> None:
    if not ok:
        print(f"FAIL: {message}")
        sys.exit(1)


def check_declared_metrics() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for key, expected in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        expect(declared == expected, f"BENCHMARK.json {key} differs from workloads.py")
    names = {w["name"] for w in bench["workloads"]}
    expect(names == set(run.WORKLOADS), "BENCHMARK.json workloads differ from workloads.py")


def check_emitted(workload: Workload) -> None:
    for trace, units in ((False, END_TO_END), (True, PER_LAYER)):
        out = run.measure(workload, seed=0, seconds=0, trace=trace, min_plain=2)
        result, details = out["result"], out["details"]
        label = f"{workload.name} trace={int(trace)}"
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
        expect(result["correct"] and result["failed"] == 0,
               f"{label}: healthy run failed: {details['repetitions']}")
        expect(set(result["metrics"]) == set(units), f"{label}: metric names")
        for name, unit in units.items():
            metric = result["metrics"][name]
            expect(metric["unit"] == unit, f"{label}: {name} unit {metric['unit']!r}")
            value = metric["value"]
            expect(isinstance(value, (int, float)) and not isinstance(value, bool),
                   f"{label}: {name} = {value!r} is not a number")
        expect(details["absent_layers"] == [], f"{label}: absent {details['absent_layers']}")
        print(f"ok: {label} emits {len(units)} metrics")


def check_failure_counted() -> None:
    out = run.measure(BROKEN, seed=0, seconds=0, trace=False, min_plain=2)
    result = out["result"]
    reps = out["details"]["repetitions"]
    expect(result["attempted"] == 2 and result["failed"] == 2, f"broken run counted {result}")
    expect(not result["correct"], "broken run reported correct")
    expect(result["metrics"]["pass_frac"]["value"] == 0.0, "broken run left pass_frac at 1")
    expect(all(r["failures"] == ["exit code 2"] for r in reps), f"failure reasons {reps}")
    print("ok: a run failing the exit-code check lowers pass_frac")


def check_doctored_traces() -> None:
    """Each output check rejects a trace doctored to break only it."""
    import numpy as np
    from checks import build_reference, check_rep, trace_digest
    from psmco.cli import main as psmco_main

    work = os.path.join(run.WORKDIR, f"selftest-{os.getpid()}")
    try:
        for workload, bad_theta in ((SHRUNK[0], (0.0, 0.0)), (SHRUNK[1], (-190.0, 0.0))):
            ref = build_reference(run.workload_config(workload, 0), run.CACHE)
            out = os.path.join(work, workload.name)
            argv = ["run", "--profile", workload.profile, "--seed", "0", "--out", out]
            for item in workload.overrides:
                argv += ["--override", item]
            with contextlib.redirect_stdout(io.StringIO()):
                expect(psmco_main(argv) == 0, f"{workload.name}: run failed")
            path = os.path.join(out, "trace.csv")
            digest = trace_digest(out)
            expect(check_rep(out, 0, digest, digest, ref) == [], f"{workload.name}: healthy trace")
            with open(path) as fh:
                lines = fh.read().splitlines()
            header = lines[0].split(",")
            f_col, t0_col = header.index("f_value"), header.index("theta_0")

            def rewrite(cells, reason):
                with open(path, "w") as fh:
                    fh.write("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
                reasons = check_rep(out, 0, trace_digest(out), None, ref)
                expect(any(reason in r for r in reasons), f"{workload.name}: {reason!r} not in {reasons}")

            cells = lines[-1].split(",")
            cells[f_col] = repr(float(cells[f_col]) * (1 + 1e-6))
            rewrite(cells, "fresh total cost")
            # a theta far from any good estimate, with its true cost
            cells = lines[-1].split(",")
            cells[t0_col:t0_col + 2] = [repr(v) for v in bad_theta]
            cells[f_col] = repr(ref.model.total_cost(np.array(bad_theta)))
            rewrite(cells, "nearest well" if ref.wells is not None else "* n")
            reasons = check_rep(out, 0, trace_digest(out), digest, ref)
            expect(any("differs" in r for r in reasons), f"{workload.name}: digest change missed")
        expect(check_rep(out, 3, None, None, ref) == ["exit code 3"], "exit code check")
        print("ok: every output check rejects a doctored trace")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_absent_layers() -> None:
    """A refactored engine without per-worker steps: layers go absent, not 0."""
    import types

    from spans import ROOT_SPAN, Tracer, layer_metrics

    tracer = Tracer()
    engine = types.SimpleNamespace(run_psmco=lambda: sum(range(1000)))
    tracer.patch(engine, "run_psmco", "parallel.run_psmco")
    tracer.patch(engine, "sampler_step", "sampler.sampler_step")  # gone
    tracer.wrap(ROOT_SPAN, lambda: engine.run_psmco())()
    path = os.path.join(run.WORKDIR, f"selftest-{os.getpid()}.npz")
    os.makedirs(run.WORKDIR, exist_ok=True)
    try:
        tracer.save(path)
        layers = layer_metrics(path)
    finally:
        os.remove(path)
    metrics = layers["metrics"]
    expect(metrics["parallel.worker_steps"] is None, "missing sampler_step not absent")
    expect(metrics["kde.mode_calls"] is None, "uncalled map_estimate not absent")
    expect(isinstance(metrics["parallel.loop_self_s"], float), "present layer lost")
    expect(0.0 <= metrics["trace.coverage"] <= 1.0, "coverage not reported")
    expect("sampler.sampler_step" in layers["absent"], f"absent list {layers['absent']}")
    print("ok: missing and uncalled entry points are reported as absent")


def main() -> int:
    if not run.load_package():
        return 2
    check_declared_metrics()
    check_absent_layers()
    check_doctored_traces()
    check_failure_counted()
    for workload in SHRUNK:
        check_emitted(workload)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
