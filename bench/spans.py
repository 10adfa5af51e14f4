"""Span tracing of one in-process `psmco run`, and the per-layer split.

The tracer replaces, in the module that calls them, the names through
which one layer calls the next, so nothing inside the package changes.
Each call becomes a span: name, start, end and the span that was open
when it began.  Spans stay in compact arrays in memory and are saved
once the run ends; `layer_metrics` derives self times and counts from
the saved file.

An entry point that no longer exists, or is never called, is reported
as absent (None), never as 0.
"""

from __future__ import annotations

import dataclasses
import time
from array import array
from typing import Callable, Dict, List, Optional

import numpy as np

ROOT_SPAN = "cli.main"

# (module, attribute, span name): the name is the layer that defines the
# function, the module is the layer that looks it up.
ENTRY_POINTS = (
    ("psmco.cli", "parse_config", "config.parse_config"),
    ("psmco.cli", "build_problem", "config.build_problem"),
    ("psmco.cli", "run_and_persist", "cli.run_and_persist"),
    ("psmco.cli", "run_psmco", "parallel.run_psmco"),
    ("psmco.parallel", "build_schedule", "core.build_schedule"),
    ("psmco.parallel", "init_particles", "sampler.init_particles"),
    ("psmco.parallel", "sampler_step", "sampler.sampler_step"),
    ("psmco.parallel", "map_estimate", "kde.map_estimate"),
    ("psmco.sampler", "jitter", "sampler.jitter"),
    ("psmco.sampler", "weight_and_accumulate", "sampler.weight_and_accumulate"),
    ("psmco.sampler", "log_potentials", "core.log_potentials"),
    ("psmco.sampler", "resample_multinomial", "sampler.resample_multinomial"),
)
FULL_COST = "core.total_cost"
KERNEL = "problems.batch_eval"


class Tracer:
    """Records spans of wrapped calls; single-threaded.

    Span i occupies spans[4i:4i+4] = (name id, parent index, start, end);
    payloads and raised calls are kept apart, for the few spans that
    have them, to keep the per-call cost low.
    """

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.spans = array("d")
        # (span index, value, size): jitter -> (moved, particles), kernel ->
        # (evaluations, 0), full cost -> (distinct-theta id, 0)
        self.payloads = array("d")
        self.raised = array("q")
        self.missing: List[str] = []
        self._stack = [-1]
        self._thetas: Dict[bytes, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, payload: Optional[Callable] = None) -> Callable:
        """fn, recording one span per call.  payload(args, result) gives
        the span's (value, size)."""
        nid = float(self._name_id(name))
        clock = time.perf_counter
        stack, spans, payloads, raised = self._stack, self.spans, self.payloads, self.raised

        def traced(*args, **kwargs):
            idx = len(spans) >> 2
            spans.extend((nid, stack[-1], clock(), 0.0))
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[4 * idx + 3] = clock()
                stack.pop()
                raised.append(idx)
                raise
            spans[4 * idx + 3] = clock()
            stack.pop()
            if payload is not None:
                payloads.extend((idx, *payload(args, out)))
            return out

        return traced

    def patch(self, owner, attr: str, name: str, payload: Optional[Callable] = None,
              post: Optional[Callable] = None) -> None:
        self._name_id(name)
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(name)
            return
        traced = self.wrap(name, fn, payload)
        if post is not None:
            inner = traced
            traced = lambda *a, **k: post(inner(*a, **k))  # noqa: E731
        setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap every entry point of ENTRY_POINTS, the full cost, and the
        model's batch kernel (through a timed CostModel)."""
        import importlib

        for module, attr, name in ENTRY_POINTS:
            post = self._timed_problem if name == "config.build_problem" else None
            payload = _jitter_payload if name == "sampler.jitter" else None
            self.patch(importlib.import_module(module), attr, name, payload, post)
        core = importlib.import_module("psmco.core")
        self.patch(getattr(core, "CostModel", None), "total_cost", FULL_COST, self._theta_payload)
        self._name_id(KERNEL)

    def _theta_payload(self, args, _out):
        key = np.asarray(args[1], dtype=float).tobytes()
        return self._thetas.setdefault(key, len(self._thetas)), 0.0

    def _timed_problem(self, problem):
        """The problem with its model's batch_eval timed."""
        model = getattr(problem, "model", None)
        if getattr(model, "batch_eval", None) is None:
            self.missing.append(KERNEL)
            return problem
        timed = self.wrap(KERNEL, model.batch_eval, _kernel_payload)
        return dataclasses.replace(problem, model=dataclasses.replace(model, batch_eval=timed))

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            missing=np.array(self.missing, dtype=str),
            spans=np.frombuffer(self.spans, dtype=np.float64).reshape(-1, 4),
            payloads=np.frombuffer(self.payloads, dtype=np.float64).reshape(-1, 3),
            raised=np.frombuffer(self.raised, dtype=np.int64),
        )


def _jitter_payload(args, moved):
    return float(moved), float(np.shape(args[0].particles)[0])


def _kernel_payload(args, _out):
    return float(np.size(args[0]) * np.shape(args[1])[0]), 0.0


def layer_metrics(path: str) -> dict:
    """Per-layer numbers of one traced run; None marks an absent layer."""
    d = np.load(path)
    names = [str(n) for n in d["names"]]
    rec = d["spans"]
    nid, parent = rec[:, 0].astype(np.int64), rec[:, 1].astype(np.int64)
    dur = rec[:, 3] - rec[:, 2]
    value, size = np.zeros(dur.size), np.zeros(dur.size)
    at = d["payloads"][:, 0].astype(np.int64)
    value[at], size[at] = d["payloads"][:, 1], d["payloads"][:, 2]
    raised = np.zeros(dur.size, dtype=np.int64)
    raised[d["raised"]] = 1
    has_parent = parent >= 0
    self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)

    masks = {name: nid == i for i, name in enumerate(names)}
    calls = {name: int(m.sum()) for name, m in masks.items()}

    def present(*spans):
        return all(calls.get(s, 0) > 0 for s in spans)

    def total(name):
        return float(dur[masks[name]].sum())

    def own(name):
        return float(self_time[masks[name]].sum())

    def metric(spans, fn):
        return fn() if present(*spans) else None

    # a kernel call is a step or an emission by its nearest enclosing
    # potential or full-cost span
    role = np.full(len(names), -1)
    for code, name in enumerate(("core.log_potentials", FULL_COST)):
        if name in names:
            role[names.index(name)] = code
    kernel = masks.get(KERNEL, np.zeros(dur.size, bool))
    side = np.full(dur.size, -1)
    idx = np.nonzero(kernel)[0]
    up = parent[idx]
    while idx.size:
        keep = up >= 0
        idx, up = idx[keep], up[keep]
        r = role[nid[up]]
        side[idx[r >= 0]] = r[r >= 0]
        idx, up = idx[r < 0], parent[up[r < 0]]
    kernel_split = {}
    for label, code in (("step", 0), ("emit", 1)):
        sel = kernel & (side == code)
        secs, evals = float(dur[sel].sum()), float(value[sel].sum())
        ok = bool(sel.any())
        kernel_split[f"problems.kernel_s.{label}"] = secs if ok else None
        kernel_split[f"problems.kernel_evals.{label}"] = evals if ok else None
        kernel_split[f"problems.kernel_evals_per_s.{label}"] = evals / secs if ok and secs > 0 else None

    jit = masks.get("sampler.jitter")
    weight = masks.get("sampler.weight_and_accumulate")
    full = masks.get(FULL_COST)
    root_s = total(ROOT_SPAN)
    glue = own(ROOT_SPAN) + (own("parallel.run_psmco") if present("parallel.run_psmco") else 0.0)
    out = {
        "parallel.worker_steps": metric(["sampler.sampler_step"], lambda: calls["sampler.sampler_step"]),
        "parallel.setup_s": metric(
            ["core.build_schedule", "sampler.init_particles"],
            lambda: total("core.build_schedule") + total("sampler.init_particles"),
        ),
        "parallel.loop_self_s": metric(["parallel.run_psmco"], lambda: own("parallel.run_psmco")),
        "sampler.step_self_s": metric(["sampler.sampler_step"], lambda: own("sampler.sampler_step")),
        "sampler.jitter_s": metric(["sampler.jitter"], lambda: total("sampler.jitter")),
        "sampler.weight_self_s": metric(
            ["sampler.weight_and_accumulate"], lambda: own("sampler.weight_and_accumulate")
        ),
        "sampler.resample_s": metric(
            ["sampler.resample_multinomial"], lambda: total("sampler.resample_multinomial")
        ),
        "sampler.moved_frac": metric(
            ["sampler.jitter"], lambda: float(value[jit].sum() / size[jit].sum())
        ),
        "sampler.degenerate_steps": metric(
            ["sampler.weight_and_accumulate"], lambda: int(raised[weight].sum())
        ),
        "core.potential_calls": metric(["core.log_potentials"], lambda: calls["core.log_potentials"]),
        "core.potential_self_s": metric(["core.log_potentials"], lambda: own("core.log_potentials")),
        **kernel_split,
        "core.full_cost_calls": metric([FULL_COST], lambda: calls[FULL_COST]),
        "core.full_cost_s": metric([FULL_COST], lambda: total(FULL_COST)),
        "core.full_cost_distinct_frac": metric(
            [FULL_COST], lambda: np.unique(value[full]).size / calls[FULL_COST]
        ),
        "kde.mode_calls": metric(["kde.map_estimate"], lambda: calls["kde.map_estimate"]),
        "kde.mode_s": metric(["kde.map_estimate"], lambda: total("kde.map_estimate")),
        "cli.serialize_s": metric(["cli.run_and_persist"], lambda: own("cli.run_and_persist")),
        # share of the run spent inside a traced layer call rather than in
        # the top-level glue: the CLI entry and the engine's own loop
        "trace.coverage": 1.0 - glue / root_s,
    }
    absent = sorted({str(n) for n in d["missing"]} | {n for n in names if calls.get(n, 0) == 0})
    return {"metrics": out, "absent": absent}
