"""The benchmark's experiment configs load, and every config key reaches its function.

``perfbench/workloads.py`` writes ``hk experiment`` configs, and each
runner of ``cli._EXPERIMENTS`` passes a config to its experiment function
as keyword arguments.  A key the registry rejects, or an allowed key the
function does not take, would first show up as a failed benchmark run.
``perfbench/`` is outside the default test paths; the file is read as it
is, unmodified.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from hklab import cli
from hklab.cli import _EXPERIMENTS, ExperimentConfig

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("part", sorted(set(_workloads().PARTS) & set(_EXPERIMENTS)))
def test_benchmark_config_loads(part, tmp_path):
    workloads = _workloads()
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
