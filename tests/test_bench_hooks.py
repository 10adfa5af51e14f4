"""The benchmark's tracer finds its layers by name: every function that
bench/spans.py wraps must exist where it looks it up, so a refactor that
renames or moves one fails here instead of as an absent layer in a run."""

import importlib
import importlib.util
from pathlib import Path

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
