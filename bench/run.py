"""Benchmark of the psmco optimizer: run time, set-up time, memory and
output checks per workload, or with --trace 1 the per-layer split.

Usage (from the root of a checkout):

    python3 bench/run.py --workload mixture-5.1 --seed 0 --seconds 30 --trace 0

The loop is closed: this process starts one child process per repetition
(bench/child.py) and runs them one at a time until --seconds have passed
and the minimum repetition count is reached.  The workload seed becomes
the config `seed` and nothing else.  Every repetition's artifacts are
checked (bench/checks.py); a failed check counts against `pass_frac` and
never stops the benchmark.  End-to-end numbers come only from untraced
repetitions.  With --trace 1, traced and untraced repetitions alternate,
and the traced ones give the per-layer metrics (bench/spans.py).

The second-to-last stdout line is a JSON object with the environment,
sample counts and every repetition; the last line is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKDIR = os.path.join(ROOT, ".bench_runs")
CACHE = os.path.join(WORKDIR, "cache")

MIN_PLAIN_REPS = 3
# the whole invocation must end within 180 s
BUDGET_S = 165.0
HARD_LIMIT_S = 175.0

sys.path.insert(0, BENCH)
from workloads import END_TO_END, PER_LAYER, WORKLOADS, Workload  # noqa: E402


def load_package() -> bool:
    """Put the checkout's own package first on the import path; False when
    the checkout has none (an installed copy must not stand in for it)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "psmco", "__init__.py")):
        print(f"error: no psmco package under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, src)
    return True


def workload_config(workload: Workload, seed: int):
    from psmco.config import apply_overrides, load_profile, parse_config

    doc = apply_overrides(load_profile(workload.profile), workload.overrides)
    doc["seed"] = seed
    return parse_config(doc)


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
    }


def run_child(workload: Workload, seed: int, out: str, traced: bool, timeout: float) -> dict:
    """Measurements of one repetition, or {"error": ...} when the child
    produced none."""
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), "--profile", workload.profile,
           "--seed", str(seed), "--out", out]
    for item in workload.overrides:
        cmd += ["--override", item]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"error": f"child exited with {proc.returncode}: {tail[0]}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"child printed no result: {lines[-1][:200]}"}


def _median(values: List[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def inspect_rep(rep: dict, out: str, expected: Optional[str], ref) -> Optional[str]:
    """Add the output checks' verdict and the artifacts' numbers to `rep`;
    returns the trace digest."""
    from checks import check_rep, final_row, trace_digest
    from spans import layer_metrics

    if "error" in rep:
        rep["failures"] = [rep["error"]]
        return None
    digest = trace_digest(out)
    rep["failures"] = check_rep(out, rep["exit_code"], digest, expected, ref)
    if digest is not None:
        rep["trace_bytes"] = os.path.getsize(os.path.join(out, "trace.csv"))
        try:
            rep["f_final"] = final_row(out)[0]
        except (IndexError, ValueError):
            pass
    spans = os.path.join(out, "spans.npz")
    if rep["kind"] == "traced" and os.path.exists(spans):
        rep["layers"] = layer_metrics(spans)
    return digest


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            min_plain: int = MIN_PLAIN_REPS) -> Dict:
    """Run repetitions of `workload` and return {"result", "details"}."""
    from checks import build_reference

    began = time.perf_counter()
    try:
        config = workload_config(workload, seed)
        ref = build_reference(config, CACHE)
    except ValueError as e:  # the config is rejected; every repetition will fail
        print(f"warning: no reference for {workload.name}: {e}", file=sys.stderr)
        config = ref = None
    workdir = os.path.join(WORKDIR, str(os.getpid()))
    need = {"plain": 1, "traced": 1} if trace else {"plain": min_plain}
    kinds = list(need)
    reps: List[dict] = []
    expected = None
    start = time.perf_counter()
    longest = 0.0
    try:
        while True:
            done = {k: sum(r["kind"] == k for r in reps) for k in kinds}
            now = time.perf_counter()
            if now - start >= seconds and all(done[k] >= need[k] for k in kinds):
                break
            if now - began + longest > BUDGET_S:
                break
            kind = kinds[len(reps) % len(kinds)]
            out = os.path.join(workdir, f"rep{len(reps)}")
            os.makedirs(out)
            t0 = time.perf_counter()
            rep = run_child(workload, seed, out, kind == "traced",
                            timeout=max(1.0, HARD_LIMIT_S - (t0 - began)))
            longest = max(longest, time.perf_counter() - t0)
            rep["kind"] = kind
            digest = inspect_rep(rep, out, expected, ref)
            if expected is None and rep.get("exit_code") == 0:
                expected = digest
            reps.append(rep)
            shutil.rmtree(out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(reps)
    failed = sum(bool(r["failures"]) for r in reps)
    # a failed repetition's numbers count only when no repetition passed
    measured = [r for r in reps if "run_s" in r]
    usable = [r for r in measured if not r["failures"]] or measured
    plain = [r for r in usable if r["kind"] == "plain"]
    traced = [r for r in usable if r["kind"] == "traced" and "layers" in r]
    setup = [s for r in plain for s in r["setup_s"]]
    if trace:
        values = {
            name: _median([r["layers"]["metrics"][name] for r in traced
                           if r["layers"]["metrics"].get(name) is not None])
            for name in PER_LAYER
        }
        run_plain = _median([r["run_s"] for r in plain])
        run_traced = _median([r["run_s"] for r in traced])
        values["cli.trace_bytes"] = _median([r["trace_bytes"] for r in reps if "trace_bytes" in r])
        values["result.f_final"] = _median([r["f_final"] for r in reps if "f_final" in r])
        values["trace.overhead_frac"] = (
            run_traced / run_plain - 1.0 if run_plain and run_traced is not None else None
        )
        units = PER_LAYER
    else:
        values = {
            "run_s": _median([r["run_s"] for r in plain]),
            "setup_s": _median(setup),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
            "pass_frac": 1.0 - failed / attempted if attempted else 0.0,
        }
        units = END_TO_END
    result = {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    details = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "input": config and {
            "m_workers": config.m_workers,
            "n_particles": config.n_particles,
            "n": config.n,
            "batch_size": config.batch_size,
            "component_evals_per_run": config.m_workers * config.n_particles * config.n,
        },
        "samples": {"run_s": len(plain), "setup_s": len(setup), "traced": len(traced)},
        "absent_layers": sorted({a for r in traced for a in r["layers"]["absent"]}),
        "repetitions": [
            {k: v for k, v in r.items() if k not in ("setup_s", "layers")}
            | {"setup_s_median": _median(r.get("setup_s", []))} for r in reps
        ],
        "elapsed_s": time.perf_counter() - began,
    }
    return {"result": result, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not load_package():
        return 2
    out = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"details": out["details"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
