"""The benchmark (``perfbench/``) names live hklab functions.

``Tracer.install`` looks every ``LAYERS`` name of ``perfbench/spans.py`` up
in its hklab module and fails on a missing one, and the workloads and the
kernel probe import hklab names of their own.  ``perfbench/`` is outside the
default test paths, so a renamed or deleted function would first show up as
a broken benchmark run.  The files are read as they are, unmodified.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("module,name", [
    (module, name) for module, names in _layers().items() for name in names])
def test_span_layer_resolves_to_a_callable(module, name):
    home = importlib.import_module(f"hklab.{module}")
    assert callable(getattr(home, name, None)), f"hklab.{module}.{name}"


def _imported_names():
    """``(module, name)`` for each hklab name the workloads and the probe use.

    ``from hklab.m import f`` gives ``(hklab.m, f)``; ``from hklab import m``
    gives ``(hklab, m)`` plus ``(hklab.m, a)`` for each attribute ``m.a``
    read in the file.
    """
    found = set()
    for path in (PERFBENCH / "workloads.py", PERFBENCH / "probe.py"):
        tree = ast.parse(path.read_text())
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hklab":
                for alias in node.names:
                    found.add((node.module, alias.name))
                    if node.module == "hklab":
                        modules[alias.asname or alias.name] = f"hklab.{alias.name}"
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                found.add((modules[node.value.id], node.attr))
    return sorted(found)


@pytest.mark.parametrize("module,name", _imported_names())
def test_benchmark_import_resolves(module, name):
    home = importlib.import_module(module)
    if not hasattr(home, name):  # a submodule not yet imported by its package
        importlib.import_module(f"{module}.{name}")
    assert getattr(home, name, None) is not None, f"{module}.{name}"
