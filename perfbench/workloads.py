"""The benchmark workloads: seeded inputs, the timed job, output checks.

The four parts (``PARTS``) are the jobs the benchmark measures; each is a
``Workload(make, job, check)`` triple:

* ``make(rng, size, workdir)`` builds the inputs from the benchmark seed
  (targets, planted tuples, experiment config files);
* ``job(inputs)`` is the timed work, done only through hklab's public API;
* ``check(inputs, outputs)`` returns one ``(op_name, [failed check names])``
  entry per operation attempted, so ``fail_frac = failed ops / ops``.

The two workloads (``WORKLOADS``) each run two parts in turn in one process.
Two workloads leave time for long runs, which the noisy shared machine
needs to give steady medians (see README.md).  Their ``make`` takes the
whole size table.

Sizes are scaled so that one part takes a few seconds on a 2-core machine
while keeping the stage shares of the full-size runs (see README.md).
``tiny`` sizes exist for the self-tests and run the same code path.
"""

import json
import math
from collections import namedtuple
from pathlib import Path

import numpy as np

Workload = namedtuple("Workload", "make job check")

SIZES = {
    "full": {
        "minor-decay": {"X": 500.0, "Q_list": [5, 10, 20, 40], "samples": 400},
        "moment-majorant": {"X": 512.0, "Q_list": [8, 16, 32], "samples": 6000},
        "densities": {"targets": 2, "Q_max": 256, "modulus_cap": 256,
                      "mc_samples": 2_000_000},
        "counting": {"targets": 3, "box": 50, "parts_max": 40, "J_X": 100},
    },
    "tiny": {
        "minor-decay": {"X": 200.0, "Q_list": [3, 6, 12, 24], "samples": 100},
        "moment-majorant": {"X": 64.0, "Q_list": [8, 16, 32], "samples": 3200},
        # the series routes agree to 1e-3 only from Q_max = modulus_cap = 256
        "densities": {"targets": 1, "Q_max": 256, "modulus_cap": 256,
                      "mc_samples": 2_000_000},
        "counting": {"targets": 2, "box": 24, "parts_max": 16, "J_X": 30},
    },
}

# pinned acceptance tolerances (tests/test_acceptance.py, criteria 07 and 10)
SERIES_REL_TOL = 1e-3
INTEGRAL_REL_TOL = 0.05
DECAY_SLOPE_MAX = -0.05
RATIO_BAND_MAX = 10.0


def _run_experiment(inputs):
    from hklab import cli

    code = cli.main(["experiment", "--config", str(inputs["config"]),
                     "--out", str(inputs["out"]), "--no-cache"])
    return {"exit_code": code}


def _experiment_result(inputs, outputs, failures):
    """Load the experiment's result blob, recording why it is unusable."""
    if outputs["exit_code"] != 0:
        failures.append(f"exit_code={outputs['exit_code']}")
        return None
    try:
        return json.loads(Path(inputs["out"]).read_text())["result"]
    except (OSError, ValueError, KeyError) as exc:
        failures.append(f"result_unreadable:{type(exc).__name__}")
        return None


def _write_config(workdir, config):
    path = Path(workdir) / f"{config['name']}.json"
    path.write_text(json.dumps(config))
    return {"config": path, "out": Path(workdir) / "out" / config["name"] / "result.json"}


# ---------------------------------------------------------------------------
# minor-decay: pointwise phase sums (hill climbing) + complete-sum grids
# ---------------------------------------------------------------------------

def _make_minor_decay(rng, size, workdir):
    return _write_config(workdir, {
        "name": "minor-decay", "s": 12, "k": 3, "X": size["X"],
        "Q_list": size["Q_list"], "samples": size["samples"],
        "seed": int(rng.integers(0, 2 ** 31))})


def _check_minor_decay(inputs, outputs):
    failures = []
    result = _experiment_result(inputs, outputs, failures)
    if result is not None:
        sups = [row["sup"] for row in result["rows"]]
        if not all(b < a for a, b in zip(sups, sups[1:])):
            failures.append("sups_not_strictly_decreasing")
        if not result["sup_slope"] <= DECAY_SLOPE_MAX:
            failures.append(f"sup_slope={result['sup_slope']:.4f}>{DECAY_SLOPE_MAX}")
    return [("experiment", failures)]


# ---------------------------------------------------------------------------
# moment-majorant: batched phase sums + arc membership at volume
# ---------------------------------------------------------------------------

# The planted tuple and the Monte-Carlo seed of acceptance criterion 10.
# The restricted integral is estimated within its own error bar of zero, so
# its ratio band over Q is noise: with a seeded planted tuple the pinned
# band <= 10 failed on 1 of 20 seeds, and with a seeded experiment seed as
# well on 1 of 12, on the seed code.  These inputs are fixed until the
# check or the estimator carries that error bar.
MOMENT_PLANTED = (3, 7, 12, 21, 33, 40)
MOMENT_SEED = 1


def _make_moment_majorant(rng, size, workdir):
    h = [sum(v ** j for v in MOMENT_PLANTED) for j in (1, 2)]
    return _write_config(workdir, {
        "name": "moment-majorant", "s": 6, "k": 2, "X": size["X"],
        "Q_list": size["Q_list"], "h": h, "samples": size["samples"],
        "seed": MOMENT_SEED})


def _check_moment_majorant(inputs, outputs):
    failures = []
    result = _experiment_result(inputs, outputs, failures)
    if result is not None:
        ratios = [row["ratio"] for row in result["rows"]]
        if not all(isinstance(r, (int, float)) and math.isfinite(r) and r > 0
                   for r in ratios):
            failures.append(f"ratio_not_finite_positive:{ratios}")
        elif max(ratios) / min(ratios) > RATIO_BAND_MAX:
            failures.append(f"ratio_band={max(ratios) / min(ratios):.3g}>{RATIO_BAND_MAX}")
        if not result["containment"]["all_pass"]:
            failures.append("dilation_containment")
    return [("experiment", failures)]


# ---------------------------------------------------------------------------
# densities: both series routes and both integral routes per planted target
# ---------------------------------------------------------------------------

# The quadrature grid grows with n2 / n1^2.  Planted targets are kept to a
# narrow band around the median of that ratio (0.24), so every seed
# integrates on grids of the same size and only the targets vary.
DENSITY_RATIO_BAND = (0.237, 0.25)


def _make_densities(rng, size, workdir):
    # planted as in acceptance criterion 07, then held to the ratio band
    lo, hi = DENSITY_RATIO_BAND
    targets = []
    while len(targets) < size["targets"]:
        u = rng.uniform(0.15, 1.0, size=6)
        x = np.maximum(1, np.round(45 * u * u).astype(int))
        n = [int((x ** j).sum()) for j in (1, 2)]
        if lo < n[1] / n[0] ** 2 <= hi:
            targets.append(n)
    return {**size, "targets": targets}


def _job_densities(inputs):
    from hklab.core import SystemParams
    from hklab.densities import (
        mc_volume_oracle,
        singular_integral_quadrature,
        singular_series_euler,
        singular_series_qsum,
    )

    params = SystemParams.pure(6, 2)
    out = []
    for n in inputs["targets"]:
        cap = inputs["modulus_cap"]
        out.append({
            "qsum": singular_series_qsum(n, params, Q_max=inputs["Q_max"]),
            "euler": singular_series_euler(n, params, p_max=cap,
                                           modulus_cap=cap, tol=0.0),
            "quad": singular_integral_quadrature(n, params),
            "mc": mc_volume_oracle(n, params, eta=0.03,
                                   samples=inputs["mc_samples"]),
        })
    return out


def _check_densities(inputs, outputs):
    ops = []
    for i, r in enumerate(outputs):
        failures = []
        qs, eu = r["qsum"].value, r["euler"].value
        rel = abs(qs - eu) / max(abs(qs), abs(eu))
        if not rel <= SERIES_REL_TOL:
            failures.append(f"series_qsum_vs_euler_rel={rel:.3g}")
        quad, ex = r["quad"], r["mc"].detail["extrapolated"]
        gap = abs(quad.value - ex["value"])
        allowed = (INTEGRAL_REL_TOL * max(abs(quad.value), abs(ex["value"]))
                   + quad.error_estimate + ex["half_width"])
        if not gap <= allowed:
            failures.append(f"integral_quad_vs_mc_gap={gap / allowed:.3g}_of_allowance")
        ops.append((f"target{i}", failures))
    return ops


# ---------------------------------------------------------------------------
# counting: half-split joins, pure and sign-split, and a Vinogradov moment
# ---------------------------------------------------------------------------

def _make_counting(rng, size, workdir):
    # Condition the planted tuples on the default box, so every seed
    # enumerates the same number of half rows and only the targets vary.
    box = size["box"]
    targets = []
    while len(targets) < size["targets"]:
        x = rng.integers(1, size["parts_max"] + 1, size=8)
        n = [int(x.sum()), int((x * x).sum())]
        if math.isqrt(n[1]) == box and n[0] >= box:
            targets.append({"n": n, "planted": sorted(int(v) for v in x)})
    return {"targets": targets, "J_X": size["J_X"]}


def _job_counting(inputs):
    from hklab.core import SystemParams
    from hklab.counting import count_mitm, vinogradov_count

    pure = SystemParams.pure(8, 2)
    X = inputs["J_X"]
    return {
        "counts": [count_mitm(pure, t["n"]).count for t in inputs["targets"]],
        "J_hist": vinogradov_count(3, 2, X),
        "J_split": count_mitm(SystemParams.mixed_sign(3, 3, 2), [0, 0],
                              box=X, x_min=1).count,
    }


def _permutations(tup):
    out = math.factorial(len(tup))
    for v in set(tup):
        out //= math.factorial(tup.count(v))
    return out


def _check_counting(inputs, outputs):
    ops = []
    for i, (t, c) in enumerate(zip(inputs["targets"], outputs["counts"])):
        need = _permutations(t["planted"])
        ops.append((f"count{i}", [] if c >= need else [f"count={c}<planted_perms={need}"]))
    J_ok = outputs["J_hist"] == outputs["J_split"]
    mismatch = [] if J_ok else [f"J_hist={outputs['J_hist']}!=J_split={outputs['J_split']}"]
    ops.append(("J_hist", mismatch))
    ops.append(("J_split", mismatch))
    return ops


PARTS = {
    "minor-decay": Workload(_make_minor_decay, _run_experiment, _check_minor_decay),
    "moment-majorant": Workload(_make_moment_majorant, _run_experiment,
                                _check_moment_majorant),
    "densities": Workload(_make_densities, _job_densities, _check_densities),
    "counting": Workload(_make_counting, _job_counting, _check_counting),
}


def _combine(*names):
    """A workload that runs the named parts in turn; ops are ``part/op``."""
    def make(rng, sizes, workdir):
        return {name: PARTS[name].make(rng, sizes[name], workdir) for name in names}

    def job(inputs):
        return {name: PARTS[name].job(inputs[name]) for name in names}

    def check(inputs, outputs):
        return [(f"{name}/{op}", failures) for name in names
                for op, failures in PARTS[name].check(inputs[name], outputs[name])]

    return Workload(make, job, check)


# Each workload pairs a part that uses the phase kernel pointwise with one
# that batches it, or the histogram convolution with the half-split join, so
# every layer is exercised by one workload and bypassed by the other.
WORKLOADS = {
    "experiments": _combine("minor-decay", "moment-majorant"),
    "densities-counting": _combine("densities", "counting"),
}
