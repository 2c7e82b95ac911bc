"""The nullsim names the benchmark harness reaches for must exist.

``perfbench/run.py`` wraps every function of its ``LAYERS`` table by
module and name, and the harness calls the package through
``nullsim.<name>``.  Both are read from the source with ``ast``; nothing
under ``perfbench/`` is imported or run.
"""

import ast
import importlib
from pathlib import Path

import nullsim

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def test_every_traced_layer_is_a_module_attribute():
    (layers,) = [
        node.value
        for node in _tree("run.py").body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
    ]
    pairs = [(m, f) for m, fs in ast.literal_eval(layers) for f in fs]
    assert pairs
    missing = [
        f"{m}.{f}"
        for m, f in pairs
        if not callable(getattr(importlib.import_module(f"nullsim.{m}"), f, None))
    ]
    assert missing == []


def test_every_package_name_the_harness_uses_exists():
    used = {
        node.attr
        for name in ("run.py", "workloads.py")
        for node in ast.walk(_tree(name))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "nullsim"
    }
    assert "run_full_protocol" in used
    assert sorted(n for n in used if not hasattr(nullsim, n)) == []
