"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

Tiny-size runs go through the same ``run.py`` -> ``worker.py`` path as the
full runs; the check tests feed the output checks deliberately wrong results.
"""

import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from probe import exact_phase_sum, phase_sum_probe  # noqa: E402
from workloads import PARTS, SIZES, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTERS = (".calls", ".terms", ".single_calls", ".cell_updates", ".tuples",
            ".points", ".samples", ".reuse_ratio")


def run_bench(workload, trace, seed=3, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@functools.lru_cache(maxsize=None)
def result(workload, trace):
    """Last-line JSON of one tiny run, shared by the tests that read it."""
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(workload, trace, section):
    res = result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
               for m in res["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_self_times_add_up_and_counters_repeat(workload):
    first = result(workload, 1)["metrics"]
    self_sum = sum(m["value"] for name, m in first.items() if name.endswith(".self_s"))
    assert self_sum == pytest.approx(first["trace.wall_s"]["value"], rel=1e-9)
    proc = run_bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    again = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    counters = [name for name in first if name.endswith(COUNTERS)]
    assert counters
    assert {n: first[n]["value"] for n in counters} == {n: again[n]["value"] for n in counters}


def test_no_result_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("densities-counting", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ---------------------------------------------------------------------------
# the output checks catch injected wrong results
# ---------------------------------------------------------------------------

def _make(part, tmp_path, seed=3):
    return PARTS[part].make(np.random.default_rng((seed, 0)), SIZES["tiny"][part], tmp_path)


def _failed(ops):
    return [op for op, failures in ops if failures]


def test_counting_check_catches_off_by_one(tmp_path):
    wl = PARTS["counting"]
    inputs = _make("counting", tmp_path)
    outputs = wl.job(inputs)
    assert _failed(wl.check(inputs, outputs)) == []
    outputs["J_split"] += 1
    assert _failed(wl.check(inputs, outputs)) == ["J_hist", "J_split"]
    outputs["J_split"] -= 1
    outputs["counts"][0] = 0
    assert _failed(wl.check(inputs, outputs)) == ["count0"]


def test_probe_catches_perturbed_phase_sum(monkeypatch):
    from hklab import kernels

    assert phase_sum_probe(np.random.default_rng(0))[1] == []
    exact = kernels.phase_poly_sums
    monkeypatch.setattr(kernels, "phase_poly_sums",
                        lambda c, u0, u1: exact(c, u0, u1) + 1e-6)
    err, failures = phase_sum_probe(np.random.default_rng(0))
    assert failures and err >= 1e-6


def test_exact_reference_matches_direct_sum():
    from hklab.expsums import direct_weyl_sum

    c = np.random.default_rng(5).random(3)
    assert abs(exact_phase_sum(c, 30) - direct_weyl_sum(c, 30)) < 1e-10


def _experiment_blob(inputs, result):
    inputs["out"].parent.mkdir(parents=True, exist_ok=True)
    inputs["out"].write_text(json.dumps({"result": result}))


def test_minor_decay_check_catches_flat_sups(tmp_path):
    wl = PARTS["minor-decay"]
    inputs = _make("minor-decay", tmp_path)
    _experiment_blob(inputs, {"rows": [{"sup": v} for v in (40.0, 30.0, 20.0, 10.0)],
                              "sup_slope": -1.0})
    assert _failed(wl.check(inputs, {"exit_code": 0})) == []
    _experiment_blob(inputs, {"rows": [{"sup": v} for v in (40.0, 30.0, 30.0, 10.0)],
                              "sup_slope": -0.01})
    assert wl.check(inputs, {"exit_code": 0})[0][1] == [
        "sups_not_strictly_decreasing", "sup_slope=-0.0100>-0.05"]
    assert _failed(wl.check(inputs, {"exit_code": 4})) == ["experiment"]


def test_moment_majorant_check_catches_wide_band(tmp_path):
    wl = PARTS["moment-majorant"]
    inputs = _make("moment-majorant", tmp_path)
    good = {"rows": [{"ratio": r} for r in (1e-6, 2e-6, 3e-6)],
            "containment": {"all_pass": True}}
    _experiment_blob(inputs, good)
    assert _failed(wl.check(inputs, {"exit_code": 0})) == []
    good["rows"][2]["ratio"] = 2e-5
    _experiment_blob(inputs, good)
    assert _failed(wl.check(inputs, {"exit_code": 0})) == ["experiment"]


def test_densities_check_catches_perturbed_series(tmp_path):
    from hklab.densities import DensityEstimate

    wl = PARTS["densities"]
    inputs = _make("densities", tmp_path)

    def est(value, err=0.0, detail=None):
        return DensityEstimate(value, "test", err, True, detail=detail or {})

    mc = est(0.5, detail={"extrapolated": {"value": 0.5, "half_width": 0.01}})
    outputs = [{"qsum": est(1.2), "euler": est(1.2), "quad": est(0.5, 0.01), "mc": mc}]
    assert _failed(wl.check(inputs, outputs)) == []
    outputs[0]["euler"] = est(1.2 * 1.01)
    assert _failed(wl.check(inputs, outputs)) == ["target0"]
