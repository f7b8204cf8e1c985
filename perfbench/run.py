#!/usr/bin/env python3
"""hklab benchmark: two workloads on the numpy path, end to end and per layer.

    python3 perfbench/run.py --workload experiments --seed 1 --seconds 55 --trace 0

Runs the workload's fixed job again and again, each time in a fresh worker
process (``worker.py``), until ``--seconds`` have passed, ending at the
repetition boundary nearest to it; one caller, no concurrency, one BLAS
thread.  Every repetition builds its inputs from ``--seed``, checks its
outputs and runs the phase-sum probe.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` (operations over all
repetitions) and ``metrics``.

* ``--trace 0``: end-to-end metrics, medians over the repetitions.
* ``--trace 1``: repetitions alternate untraced and traced; the per-layer
  metrics come from the traced repetition with the median wall time, and
  ``trace.overhead_s`` is its wall time minus the untraced median.

See README.md in this directory for the workloads and the metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.util import find_spec
from pathlib import Path

import numpy as np

from spans import layer_metrics
from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".perfbench-runs"
RUN_LIMIT_S = 170           # the whole run, repetitions included, ends before this
SETUP_ONLY_SPAWNS = 4       # extra set-up samples, so setup_s is a median of several
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# One BLAS/OpenMP thread: the job is one caller with no concurrency, and a
# second thread would make its time depend on both cores of a shared host.
BLAS_THREADS = 1
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name):
    leaf = name.rsplit(".", 1)[1]
    if leaf.endswith("_s"):
        return "s"
    if leaf.startswith("ns_per_"):
        return "ns"
    if leaf in ("reuse_ratio", "max_abs_err"):
        return "1"
    return "count"


def git_revision():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(nproc):
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": "present" if find_spec("numba") else "absent",
        "nproc": nproc,
        "thread_caps": {v: str(BLAS_THREADS) for v in THREAD_VARS},
    }


def run_rep(args, workdir, timeout, traced=False, setup_only=False):
    """One worker process; returns its rep.json dict, or None if it died."""
    workdir.mkdir()
    env = dict(os.environ, HK_CACHE_DIR=str(workdir / "cache"),
               **{v: str(BLAS_THREADS) for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--trace", str(int(traced)),
           "--workdir", str(workdir)] + (["--setup-only"] if setup_only else [])
    spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawn-time", repr(spawn)], cwd=workdir, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    rep_path = workdir / "rep.json"
    if proc.returncode != 0 or not rep_path.exists():
        print(f"worker exited with {proc.returncode}:\n{proc.stdout[-4000:]}",
              file=sys.stderr)
        return None
    rep = json.loads(rep_path.read_text())
    if setup_only:
        return rep
    if any(failures for _, failures in rep["ops"]):
        print(proc.stdout[-4000:], file=sys.stderr)
    if traced:
        rep["layers"] = layer_metrics(json.loads((workdir / "spans.json").read_text()))
    return rep


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full",
                   help="'tiny' runs the same code path at toy sizes (self-tests)")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "hklab" / "__init__.py").is_file():
        print(f"no hklab sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    print("env: " + json.dumps(environment(nproc), sort_keys=True))
    RUNS_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR))
    reps = {False: [], True: []}
    setups = []
    attempted = failed = 0
    workers_ok = True
    t_start = time.monotonic()
    try:
        for j in range(SETUP_ONLY_SPAWNS):
            rep = run_rep(args, tmp / f"setup{j}", timeout=RUN_LIMIT_S / 4,
                          setup_only=True)
            if rep is None:
                workers_ok = False
                break
            setups.append(rep["setup_s"])
        i = 0
        rep_costs = []      # spawn to exit of each repetition, checks included
        while workers_ok:
            traced = bool(args.trace) and i % 2 == 1
            left = RUN_LIMIT_S - (time.monotonic() - t_start)
            t_rep = time.monotonic()
            rep = run_rep(args, tmp / f"rep{i}", timeout=left, traced=traced)
            rep_costs.append(time.monotonic() - t_rep)
            i += 1
            if rep is None:
                workers_ok = False
                attempted += 1
                failed += 1
                break
            setups.append(rep["setup_s"])
            reps[traced].append(rep)
            for op, failures in rep["ops"]:
                attempted += 1
                failed += bool(failures)
                for f in failures:
                    print(f"FAIL {args.workload}/{op}: {f}")
            print(f"rep {i} {'traced' if traced else 'untraced'}: setup "
                  f"{rep['setup_s']:.3f} s, wall {rep['wall_s']:.3f} s, "
                  f"peak rss {rep['peak_rss_mb']:.1f} MB")
            # start another repetition only if it should end within half a
            # repetition of --seconds, so runs last --seconds on average
            left = args.seconds - (time.monotonic() - t_start)
            if left < statistics.median(rep_costs) / 2 and (reps[True] or not args.trace):
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            RUNS_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    untraced = reps[False]
    if not untraced or (args.trace and not reps[True]):
        print("no complete repetition; no result", file=sys.stderr)
        return 1
    wall = statistics.median(r["wall_s"] for r in untraced)
    print(f"wall_s median {wall:.4f} s over {len(untraced)} untraced reps; "
          f"fail_frac {failed}/{attempted}")
    if args.trace:
        traced = sorted(reps[True], key=lambda r: r["wall_s"])
        chosen = traced[(len(traced) - 1) // 2]["layers"]
        values = dict(chosen)
        values["trace.overhead_s"] = chosen["trace.wall_s"] - wall
        values["kernels.phase_poly_sums.max_abs_err"] = max(
            r["max_abs_err"] for r in untraced + traced)
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in sorted(values.items())}
    else:
        values = {k: statistics.median(r[k] for r in untraced) for k in END_TO_END_UNITS}
        values["setup_s"] = statistics.median(setups)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": workers_ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
