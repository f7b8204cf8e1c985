"""The benchmark's span table (``perfbench/spans.py``) names live functions.

``Tracer.install`` looks every ``LAYERS`` name up in its hklab module and
fails on a missing one, and ``perfbench/`` is outside the default test
paths, so a renamed or deleted function would first show up as a broken
benchmark run.  The table is loaded from its file, unmodified.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
