"""The benchmark's experiment configs load, every config key reaches its function,
and every traced layer still exists.

``perfbench/workloads.py`` writes ``hk experiment`` configs, and each
runner of ``cli._EXPERIMENTS`` passes a config to its experiment function
as keyword arguments.  A key the registry rejects, or an allowed key the
function does not take, would first show up as a failed benchmark run.
``perfbench/spans.py`` wraps the functions of its ``LAYERS`` table by name
and reads work counters from their bound arguments, so a renamed function
or argument would first show up as a failed traced run.  ``perfbench/`` is
outside the default test paths; its files are read as they are, unmodified.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from hklab import cli
from hklab.cli import _EXPERIMENTS, ExperimentConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("part", sorted(set(_load("workloads").PARTS) & set(_EXPERIMENTS)))
def test_benchmark_config_loads(part, tmp_path):
    workloads = _load("workloads")
    inputs = workloads.PARTS[part].make(np.random.default_rng(1),
                                        workloads.SIZES["tiny"][part], tmp_path)
    assert ExperimentConfig.load(inputs["config"]).name == part


@pytest.mark.parametrize("name", sorted(_EXPERIMENTS))
def test_experiment_keys_are_parameters_of_the_runner_function(name):
    keys, runner, _ = _EXPERIMENTS[name]
    # the runner names its experiment function as a module global, looked up
    # at call time
    [func] = [getattr(cli, g) for g in runner.__code__.co_names
              if g.endswith("_experiment")]
    assert keys <= set(inspect.signature(func).parameters), name


def test_traced_layers_exist_and_bind_the_arguments_their_counters_read():
    layers = _load("spans").LAYERS
    read = set()
    for mod, funcs in layers.items():
        module = importlib.import_module(f"hklab.{mod}")
        for name, work in funcs.items():
            func = getattr(module, name, None)
            assert callable(func), f"hklab.{mod}.{name}"
            if work is None:
                continue
            # a counter reads its bound arguments by string subscript
            names = {c for c in work.__code__.co_consts if isinstance(c, str)}
            assert names <= set(inspect.signature(func).parameters), f"hklab.{mod}.{name}"
            read |= names
    assert read == {"H", "shifts", "coeffs", "u0", "u1", "alphas", "samples"}


def test_traced_reuse_ratio_reads_a_cold_cache_as_no_reuse(monkeypatch):
    # every half of pure(4, 2) has two coefficients and runs one conv_mod
    # step when fresh, so a cold cache reads no reuse
    from hklab import densities
    from hklab.core import SystemParams

    spans = _load("spans")
    monkeypatch.setattr(densities, "_HIST_CACHE", densities.OrderedDict())
    tracer = spans.Tracer()
    tracer.install()
    try:
        densities.singular_series_euler([10, 30], SystemParams.pure(4, 2),
                                        p_max=13, modulus_cap=64)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["densities.solution_count_mod.calls"] > 0
    assert metrics["densities.solution_count_mod.reuse_ratio"] == 0.0
