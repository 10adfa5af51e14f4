"""One repetition of a workload, in a fresh process.

Usage: python3 bench/child.py --profile NAME [--override KEY=VALUE ...]
           --seed N --out DIR [--trace]

Imports the package from the checkout's `src`, times config parsing plus
problem construction repeatedly for SETUP_SECONDS, then runs the workload
in-process through `psmco.cli.main(["run", ...])` and prints one JSON
line: the exit code, the run's wall time, the set-up samples and the
peak resident memory.
With --trace the run is traced and its spans are saved to DIR/spans.npz.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import psmco.cli as cli  # noqa: E402
from psmco.config import apply_overrides, build_problem, load_profile, parse_config  # noqa: E402

from spans import ROOT_SPAN, Tracer  # noqa: E402

SETUP_SECONDS = 0.3
MIN_SETUP_SAMPLES = 10


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it started (Linux).

    VmHWM is reset by exec; getrusage's ru_maxrss is not, so it would
    report the parent's footprint whenever that is larger."""
    with open("/proc/self/status") as fh:
        return next(int(ln.split()[1]) / 1024.0 for ln in fh if ln.startswith("VmHWM:"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--profile", required=True)
    parser.add_argument("--override", action="append", default=[])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    setup = []
    try:
        doc = apply_overrides(load_profile(args.profile), args.override)
        doc["seed"] = args.seed
        build_problem(parse_config(doc))  # first call pays one-off lazy costs
        until = time.perf_counter() + SETUP_SECONDS
        while len(setup) < MIN_SETUP_SAMPLES or time.perf_counter() < until:
            t0 = time.perf_counter()
            build_problem(parse_config(doc))
            setup.append(time.perf_counter() - t0)
    except ValueError:
        pass  # a rejected config: the run below reports it through its exit code

    argv = ["run", "--profile", args.profile, "--seed", str(args.seed), "--out", args.out]
    for item in args.override:
        argv += ["--override", item]
    run = cli.main
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        run = tracer.wrap(ROOT_SPAN, cli.main)

    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = run(argv)
        run_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.save(os.path.join(args.out, "spans.npz"))

    print(json.dumps({
        "exit_code": code,
        "run_s": run_s,
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
