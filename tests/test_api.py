"""The public API: every exported name resolves, and removed names stay gone.

The benchmark's tracer wraps whatever the ``__all__`` of each traced module
lists and skips a missing name in silence, so a stale entry would go
unnoticed there.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import wdbounds


def _tracer_layers() -> tuple[str, ...]:
    """``LAYERS`` of ``wdbench/tracer.py``, read from its source."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "wdbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("wdbench/tracer.py defines no LAYERS")


MODULES = ("wdbounds", *(f"wdbounds.{layer}" for layer in _tracer_layers()))

# names that left the package, by the module that defined them
REMOVED = {
    "wdbounds.curvature": (
        "k_lower",
        "K_global",
        "K_local",
        "wasserstein_derivative",
        "_lipschitz_value",
        "DERIVATIVE_PIN_SLACK",
        "kappa_ctmc",
        "kappa_dtmc",
        "k_min",
    ),
    "wdbounds.bounds": ("defect_dtmc",),
    "wdbounds.transport": (
        "canonicalize_coupling",
        "wasserstein_matrix_norm",
        "tv_distance",
        "verify_optimal_pair",
        "OptimalPairReport",
    ),
    "wdbounds.errors": ("NotOptimalInput",),
    "wdbounds.lp": ("LinearProgram", "LpStatus"),
    "wdbounds.markov": ("occupation_ctmc",),
}


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from wdbounds import *", namespace)
    assert set(wdbounds.__all__) <= set(namespace)


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_are_absent(module):
    mod = importlib.import_module(module)
    exported = {name for m in MODULES for name in importlib.import_module(m).__all__}
    for name in REMOVED[module]:
        assert not hasattr(mod, name), name
        assert name not in exported, name
        assert not hasattr(wdbounds, name), name
