"""Race the benchmark on a base revision against the checkout, and record
both in BENCH_<label>.json.

Usage (from the root of a checkout):

    python3 tools/bench_record.py LABEL [--base REV] [--seed S]

The base revision (default HEAD, so the race measures the uncommitted
change; pass HEAD~1 to measure the last commit) is extracted with
`git archive` under the gitignored .bench_build/.  Each of ten pairs runs
the unchanged `python3 bench/run.py --workload W --seed S` once in each
tree for every workload of BENCHMARK.json, one process at a time, the
tree that goes first alternating from pair to pair.  The file holds the
environment (with numpy's dispatch class of float64 exp), the two trees,
and per workload and end-to-end metric: each tree's median and quartiles
over the pairs, the pair count, and how many pairs each tree won.  A pair
is won by the strictly better value.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
PAIRS = 10  # the fewest a claimed gain is judged on


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, check=True).stdout.strip()


def src_digest(tree: str) -> str:
    """sha256 over the paths and bytes of the tree's src/*.py files."""
    digest = hashlib.sha256()
    src = os.path.join(tree, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, tree).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def extract(commit: str) -> str:
    """A fresh copy of `commit`'s files under .bench_build/."""
    tree = os.path.join(BUILD, commit[:12])
    shutil.rmtree(tree, ignore_errors=True)
    os.makedirs(tree)
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "-C", ROOT, "archive", commit], stdout=tar, check=True)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as archive:
            archive.extractall(tree, filter="data")
    return tree


def exp_class() -> Optional[str]:
    """The loop numpy runs float64 exp with here ("X86_V4", "X86_V3",
    "baseline(X86_V2)" on x86-64), or None on a numpy before 2.0."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return None
    return opt_func_info(func_name="^exp$", signature="float64")["exp"]["dd"]["current"]


def bench(tree: str, workload: str, seed: int) -> dict:
    """bench/run.py's two JSON lines, run in `tree`."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    details, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return {"details": details["details"], "result": result}


def summary(values: List[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def record(runs: Dict[str, Dict[str, List[dict]]], metrics: List[dict]) -> dict:
    """Per workload and metric: each tree's summary and the pair wins."""
    out = {}
    for workload, trees in runs.items():
        out[workload] = {}
        for metric in metrics:
            name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
            values = {tree: [r["result"]["metrics"][name]["value"] for r in reps] for tree, reps in trees.items()}
            pairs = list(zip(values["base"], values["head"]))
            out[workload][name] = {
                "better": metric["better"],
                "pairs": len(pairs),
                "base": summary(values["base"]) | {"wins": sum(sign * (b - h) < 0 for b, h in pairs)},
                "head": summary(values["head"]) | {"wins": sum(sign * (h - b) < 0 for b, h in pairs)},
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    workloads = [w["name"] for w in declared["workloads"]]
    base_commit = git("rev-parse", args.base)
    trees = {"base": extract(base_commit), "head": ROOT}
    runs: Dict[str, Dict[str, List[dict]]] = {w: {"base": [], "head": []} for w in workloads}
    try:
        for i in range(PAIRS):
            for workload in workloads:
                for tree in ("base", "head") if i % 2 == 0 else ("head", "base"):
                    runs[workload][tree].append(bench(trees[tree], workload, args.seed))
                    print(f"pair {i + 1}/{PAIRS} {workload} {tree}: run_s "
                          f"{runs[workload][tree][-1]['result']['metrics']['run_s']['value']:.4f}", file=sys.stderr)
        environment = runs[workloads[0]]["head"][0]["details"]["environment"] | {"exp_class": exp_class()}
        doc = {
            "label": args.label,
            "command": f"python3 bench/run.py --workload W --seed {args.seed}",
            "environment": environment,
            "trees": {
                "base": {"commit": base_commit, "src_sha256": src_digest(trees["base"])},
                "head": {"commit": git("rev-parse", "HEAD"), "src_sha256": src_digest(ROOT),
                         "src_dirty": bool(git("status", "--porcelain", "--", "src"))},
            },
            "workloads": record(runs, declared["end_to_end"]),
        }
    finally:
        shutil.rmtree(trees["base"], ignore_errors=True)
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
