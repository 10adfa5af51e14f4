"""The README's library examples run as written."""

import dataclasses
import importlib
import re
from pathlib import Path

import numpy as np

import psmco
from psmco import CostModel

README = Path(__file__).resolve().parent.parent / "README.md"


def library_blocks():
    """The ```python blocks under the README's "## Library" heading, in order."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)


def test_library_examples_run(capsys):
    """Every block runs in one namespace, a later block using the names
    of the earlier ones; each prints one line, and a model with a
    batch_eval agrees with its own component_eval."""
    blocks = library_blocks()
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert len(capsys.readouterr().out.splitlines()) == len(blocks)
    assert np.isfinite(namespace["record"].f_values[-1])
    models = [v for v in namespace.values() if isinstance(v, CostModel) and v.batch_eval is not None]
    assert models
    rng = np.random.default_rng(0)
    indices = np.stack([rng.permutation(models[0].n)[:7] for _ in range(3)])
    thetas = rng.uniform(-5, 5, size=(6, 2))
    owner = np.array([0, 0, 1, 2, 2, 2])
    for model in models:
        components = dataclasses.replace(model, batch_eval=None)
        np.testing.assert_allclose(model.sums(indices, thetas, owner),
                                   components.sums(indices, thetas, owner), rtol=1e-12)


def test_every_public_name_is_documented():
    """Each name psmco exports, and each field of the RunRecord a run
    returns, opens a code span somewhere in the README, so a name exported
    without docs shows here."""
    text = README.read_text()
    names = [*psmco.__all__, *(field.name for field in dataclasses.fields(psmco.RunRecord))]
    missing = [name for name in names if not re.search(rf"`{name}\b", text)]
    assert missing == []


def test_every_dotted_module_reference_resolves():
    """Each `psmco.<module>.<name>` the README names imports and resolves,
    so a name moved to another module does not go stale in the docs."""
    refs = set(re.findall(r"`psmco\.(\w+)\.(\w+)", README.read_text()))
    assert len(refs) >= 5
    missing = [f"psmco.{module}.{name}" for module, name in sorted(refs)
               if not hasattr(importlib.import_module(f"psmco.{module}"), name)]
    assert missing == []
