"""Output checks of one repetition.

A repetition fails when any check fails; the failure is counted, never
raised.  The reference (dataset, and for the mixture its grid wells) is
built outside every timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

WELL_RADIUS = 1.0
SIGMOID_COST_SHARE = 0.05


@dataclass
class Reference:
    problem: str
    n: int
    model: object
    wells: Optional[np.ndarray]  # (k, 2) grid minima, mixture only


def build_reference(config, cache_dir: str) -> Reference:
    """Fresh dataset for `config`, and the mixture's wells by a 200-point
    grid search on [-10, 10]^2."""
    from psmco.config import build_problem

    problem = build_problem(config)
    wells = grid_wells(problem.model, config, cache_dir) if config.problem == "mixture" else None
    return Reference(problem=config.problem, n=config.n, model=problem.model, wells=wells)


def grid_wells(model, config, cache_dir: str) -> np.ndarray:
    """find_grid_minima's wells.  The search takes seconds, so its result
    is kept in cache_dir under a key of the package's sources and the
    config without its run seed."""
    import psmco
    from psmco.config import emit_config
    from psmco.problems import find_grid_minima

    doc = emit_config(config)
    doc.pop("seed")
    key = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    package = os.path.dirname(psmco.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                key.update(fh.read())
    path = os.path.join(cache_dir, f"wells-{key.hexdigest()[:24]}.npy")
    if os.path.exists(path):
        return np.load(path)
    wells, _ = find_grid_minima(model, np.array([-10.0, -10.0]), np.array([10.0, 10.0]), 200)
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "wb") as fh:
        np.save(fh, wells)
    os.replace(tmp, path)
    return wells


def trace_digest(out_dir: str) -> Optional[str]:
    path = os.path.join(out_dir, "trace.csv")
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def final_row(out_dir: str):
    """(f_value, theta) of the last row of trace.csv."""
    with open(os.path.join(out_dir, "trace.csv")) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    cells = lines[-1].split(",")
    thetas = [i for i, h in enumerate(header) if h.startswith("theta_")]
    return float(cells[header.index("f_value")]), np.array([float(cells[i]) for i in thetas])


def check_rep(out_dir: str, exit_code: Optional[int], digest: Optional[str],
              expected_digest: Optional[str], ref: Optional[Reference]) -> List[str]:
    """Reasons the repetition in out_dir fails; empty when it passes."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if digest is None:
        return ["no trace.csv"]
    reasons = []
    if expected_digest is not None and digest != expected_digest:
        reasons.append("trace.csv differs from the first repetition of this seed")
    if ref is None:
        return reasons + ["no reference: the driver could not parse the config"]
    try:
        f_value, theta = final_row(out_dir)
    except (IndexError, ValueError) as e:
        return reasons + [f"unreadable final row: {e}"]
    fresh = ref.model.total_cost(theta)
    if not math.isclose(f_value, fresh, rel_tol=1e-9, abs_tol=0.0):
        reasons.append(f"f_value {f_value!r} != fresh total cost {fresh!r}")
    if ref.wells is not None:
        dist = float(np.linalg.norm(ref.wells - theta[None, :], axis=1).min())
        if dist > WELL_RADIUS:
            reasons.append(f"estimate {dist:.3f} from the nearest well (> {WELL_RADIUS})")
    if ref.problem == "sigmoid" and not f_value <= SIGMOID_COST_SHARE * ref.n:
        reasons.append(f"f_final {f_value!r} > {SIGMOID_COST_SHARE} * n")
    return reasons
