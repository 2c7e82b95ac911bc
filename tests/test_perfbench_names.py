"""The nullsim names the benchmark harness reaches for must exist.

``perfbench/run.py`` wraps every function of its ``LAYERS`` table by
module and name, keys the calls of its ``PROBES`` functions by their bound
arguments, and calls the package through ``nullsim.<name>``.  All three
are read from the source with ``ast``; nothing under ``perfbench/`` is
imported or run.
"""

import ast
import importlib
import inspect
from pathlib import Path

import nullsim

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _assigned(module: ast.Module, name: str) -> ast.expr:
    """The value of the top-level assignment to ``name``."""
    (value,) = [
        node.value
        for node in module.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    ]
    return value


def test_every_traced_layer_is_a_module_attribute():
    layers = _assigned(_tree("run.py"), "LAYERS")
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


def test_every_probe_key_is_a_parameter_of_its_function():
    """Each ``a["..."]`` a probe's key function reads names a parameter of
    the function it probes, so a renamed parameter fails here, not only in
    a traced benchmark run."""
    run = _tree("run.py")
    probes = _assigned(run, "PROBES")
    key_functions = {
        node.name: node for node in run.body if isinstance(node, ast.FunctionDef)
    }
    checked = {}
    for target, key_fn in zip(probes.keys, probes.values):
        module, name = ast.literal_eval(target).split(".")
        fn = getattr(importlib.import_module(f"nullsim.{module}"), name)
        read = [
            node.slice.value
            for node in ast.walk(key_functions[key_fn.id])
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "a"
        ]
        assert read
        params = inspect.signature(fn).parameters
        assert [k for k in read if k not in params] == [], name
        checked[name] = sorted(read)
    assert checked == {
        "build_tree": sorted(
            ["geom", "beam_angle_deg", "fanout", "depth", "nulls_per_level", "root_sector"]
        ),
        "build_weight_matrix": sorted(["geom", "beam_deg", "null_degs", "report"]),
    }
