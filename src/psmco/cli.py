"""Command-line benchmark driver.

Subcommands:
  run       execute one optimizer or baseline run and persist its trace
  compare   join traces onto a common iteration axis for plotting
  gen-data  write the dataset behind a profile as columnar text

All CSV output is comma-separated with '\\n' line endings, '.' decimal
points, and a mandatory header.  Floats are written with repr, so a
rerun of the same config produces byte-identical files.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    build_problem,
    config_to_json,
    load_profile,
    parse_config,
    to_optimizer_config,
    to_psgd_config,
)
from .parallel import RunRecord, run_psmco
from .problems import PSGDRecord, run_psgd_baseline


def _fmt(x) -> str:
    """Deterministic float formatting: shortest round-trip repr."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# trace and summary serialization


def _theta_columns(dim: int) -> List[str]:
    return [f"theta_{j}" for j in range(dim)]


def psmco_trace_lines(problem_name: str, record: RunRecord) -> Iterator[str]:
    header = ["problem", "t", "m_star", "f_value"] + _theta_columns(record.thetas.shape[1])
    header += [f"log_z_{j}" for j in range(record.log_z.shape[1])]
    yield ",".join(header)
    columns = (record.iterations.tolist(), record.winners.tolist(), record.f_values.tolist(), record.thetas.tolist())
    for iteration, worker, f_value, theta, log_z in zip(*columns, record.log_z):
        cells = [problem_name, str(iteration), str(worker), repr(f_value), *map(repr, theta)]
        cells += map(repr, log_z.tolist())  # row by row: all of log_z as floats would raise peak memory
        yield ",".join(cells)


def particles_lines(record: RunRecord) -> Iterator[str]:
    """One row per final particle of every worker."""
    dim = record.final_particles.shape[2]
    yield ",".join(["worker", "particle"] + _theta_columns(dim))
    for w, worker in enumerate(record.final_particles):
        for p, theta in enumerate(worker.tolist()):
            yield f"{w},{p}," + ",".join(map(repr, theta))


def psgd_trace_lines(problem_name: str, record: PSGDRecord) -> Iterator[str]:
    yield "problem,t,f_best"
    for t, value in enumerate(record.f_best):
        yield f"{problem_name},{t},{_fmt(value)}"


def _write_lines(path: str, lines: Iterable[str]) -> None:
    """Write each line, newline-terminated, as it is made."""
    with open(path, "w") as fh:
        fh.writelines(line + "\n" for line in lines)


def run_and_persist(config: RunConfig, out_dir: str) -> None:
    """Execute the configured run and write its artifacts into out_dir.

    Files: config.json (canonical echo), trace.csv, summary.txt, and
    particles.csv when the config keeps final particles.  Contents are
    deterministic given the config.
    """
    problem = build_problem(config)
    os.makedirs(out_dir, exist_ok=True)

    particles = timing = None
    if config.algorithm == "psmco":
        record = run_psmco(problem.model, problem.space, to_optimizer_config(config))
        trace = psmco_trace_lines(config.problem, record)
        iterations, f_final, theta = record.iterations[-1], record.f_values[-1], record.thetas[-1]
        before = [("best_worker", record.winners[-1])]
        after = [("log_z_final", _fmt(record.log_z[-1, record.winners[-1]]))]
        if config.keep_final_particles:
            particles = particles_lines(record)
        timing = f"wall_time_seconds={record.wall_time:.3f} parts={record.parts}"
    else:
        record = run_psgd_baseline(problem, to_psgd_config(config))
        trace = psgd_trace_lines(config.problem, record)
        best = int(np.argmin(record.f_final))
        iterations, f_final, theta = len(record.f_best) - 1, record.f_final[best], record.thetas[best]
        before = after = []
    pairs = [
        ("problem", config.problem),
        ("algorithm", config.algorithm),
        ("n", config.n),
        ("seed", config.seed),
        ("iterations", iterations),
        *before,
        ("f_final", _fmt(f_final)),
        *((f"theta_final_{j}", _fmt(v)) for j, v in enumerate(theta)),
        *after,
    ]
    summary = [f"{k}={v}" for k, v in pairs]

    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        fh.write(config_to_json(config))
    _write_lines(os.path.join(out_dir, "trace.csv"), trace)
    _write_lines(os.path.join(out_dir, "summary.txt"), summary)
    if particles is not None:
        _write_lines(os.path.join(out_dir, "particles.csv"), particles)
    if timing is not None:
        print(timing)


# ---------------------------------------------------------------------------
# compare


def _read_trace(path: str) -> Tuple[str, dict]:
    """Returns (problem_name, {iteration: f}) from a trace CSV."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise ConfigError(f"{path}: empty trace file")
    header = lines[0].split(",")
    try:
        t_col = header.index("t")
        p_col = header.index("problem")
    except ValueError:
        raise ConfigError(f"{path}: missing mandatory columns") from None
    if "f_value" in header:
        f_col = header.index("f_value")
    elif "f_best" in header:
        f_col = header.index("f_best")
    else:
        raise ConfigError(f"{path}: no cost column (f_value or f_best)")
    problem = None
    values = {}
    for ln in lines[1:]:
        cells = ln.split(",")
        try:
            if len(cells) != len(header):
                raise ValueError(f"{len(cells)} cells under a {len(header)}-column header")
            t = int(cells[t_col])
            if t in values:
                raise ValueError(f"iteration {t} repeats")
            values[t] = float(cells[f_col])
        except ValueError as e:
            raise ConfigError(f"{path}: malformed row {ln!r}: {e}") from None
        if problem is None:
            problem = cells[p_col]
    if problem is None or not values:
        raise ConfigError(f"{path}: trace has a header but no rows")
    return problem, values


def emit_compare(psmco_path: str, psgd_paths: Sequence[str], out_path: str) -> None:
    """Join one optimizer trace with up to two baseline traces.

    Baseline columns follow argument order: the first path is labelled
    f_psgd_good_init, the second f_psgd_bad_init.  Traces are joined on
    the iterations they share (the coarsest emission axis).  Nothing is
    written unless the join is non-empty and all problem ids agree.
    """
    if len(psgd_paths) > 2:
        raise ConfigError("compare accepts at most two baseline traces")
    problem, psmco_vals = _read_trace(psmco_path)
    baseline_cols = ["f_psgd_good_init", "f_psgd_bad_init"][: len(psgd_paths)]
    baselines = []
    for path in psgd_paths:
        b_problem, b_vals = _read_trace(path)
        if b_problem != problem:
            raise ConfigError(
                f"problem mismatch: {psmco_path} is {problem!r} but {path} is {b_problem!r}"
            )
        baselines.append(b_vals)

    shared = set(psmco_vals)
    for b in baselines:
        shared &= set(b)
    shared = sorted(shared)
    if not shared:
        raise ConfigError("traces share no iterations; nothing to compare")

    lines = [",".join(["iter", "f_psmco"] + baseline_cols)]
    for t in shared:
        cells = [str(t), _fmt(psmco_vals[t])]
        cells += [_fmt(b[t]) for b in baselines]
        lines.append(",".join(cells))
    _write_lines(out_path, lines)


# ---------------------------------------------------------------------------
# gen-data


def write_dataset(config: RunConfig, out_path: str) -> None:
    problem = build_problem(config)
    if config.problem == "sigmoid":
        header = "x,y"
        rows = (f"{_fmt(xi)},{_fmt(yi)}" for xi, yi in zip(problem.x.tolist(), problem.y.tolist()))
    else:
        header = ",".join(["i"] + [f"mean{k}_{axis}" for k in range(problem.means.shape[1]) for axis in "xy"])
        centers = problem.means.reshape(len(problem.means), -1).tolist()
        rows = (",".join([str(i)] + [_fmt(v) for v in row]) for i, row in enumerate(centers))
    _write_lines(out_path, itertools.chain([header], rows))


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psmco",
        description="Benchmark driver for the parallel particle optimizer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one run and persist its trace")
    src = run_p.add_mutually_exclusive_group(required=True)
    src.add_argument("--profile", help="named config profile")
    src.add_argument("--config", help="path to a JSON config document")
    run_p.add_argument("--seed", type=int, default=None, help="run seed (non-negative)")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="config override, may repeat",
    )

    cmp_p = sub.add_parser("compare", help="join traces onto a common axis")
    cmp_p.add_argument("--psmco", required=True, help="optimizer trace CSV")
    cmp_p.add_argument(
        "--psgd",
        action="append",
        default=[],
        help="baseline trace CSV; first is the good init, second the bad init",
    )
    cmp_p.add_argument("--out", required=True, help="output CSV path")

    gen_p = sub.add_parser("gen-data", help="write a profile's dataset as CSV")
    gen_p.add_argument("--profile", required=True)
    gen_p.add_argument("--seed", type=int, default=None, help="dataset seed")
    gen_p.add_argument("--out", required=True, help="output CSV path")
    return parser


def _config_for_run(args) -> RunConfig:
    if args.profile is not None:
        doc = load_profile(args.profile)
    else:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as e:
            raise ConfigError(f"cannot read config file: {e}") from None
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
    doc = apply_overrides(doc, args.override)
    if args.seed is not None:
        doc["seed"] = args.seed
    return parse_config(doc)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = _config_for_run(args)
            run_and_persist(config, args.out)
        elif args.command == "compare":
            emit_compare(args.psmco, args.psgd, args.out)
        else:  # gen-data
            doc = load_profile(args.profile)
            if args.seed is not None:
                doc["data_seed"] = args.seed
            write_dataset(parse_config(doc), args.out)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
