"""One repetition of one workload in a fresh process (started by run.py).

Imports hklab from the checkout's ``src/``, builds the seeded inputs, times
the job (optionally under the tracer), checks the outputs, runs the
phase-sum probe and writes ``rep.json`` (and ``spans.json`` when traced)
into its work directory.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spawn-time", type=float, required=True,
                   help="time.monotonic() of the parent just before the spawn")
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up; report only setup_s")
    args = p.parse_args(argv)
    workdir = Path(args.workdir)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import hklab.cli  # noqa: F401 - imports every hklab module

    if not Path(hklab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"hklab imported from {hklab.__file__}, not from {ROOT / 'src'}")
    from probe import phase_sum_probe
    from spans import ROOT as ROOT_SPAN, Tracer
    from workloads import SIZES, WORKLOADS

    wl = WORKLOADS[args.workload]
    inputs = wl.make(np.random.default_rng((args.seed, 0)), SIZES[args.size], workdir)
    setup_s = time.monotonic() - args.spawn_time
    if args.setup_only:
        (workdir / "rep.json").write_text(json.dumps({"setup_s": setup_s}))
        return

    job = wl.job
    if args.trace:
        tracer = Tracer()
        tracer.install()
        job = tracer.wrap(ROOT_SPAN, job)
    t0 = time.perf_counter()
    try:
        outputs = job(inputs)
        error = None
    except Exception as exc:  # noqa: BLE001 - a failed job is a failed operation
        traceback.print_exc()
        error = f"job_raised:{type(exc).__name__}"
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        tracer.uninstall()

    ops = [("job", [error])] if error else wl.check(inputs, outputs)
    max_abs_err, probe_failures = phase_sum_probe(np.random.default_rng((args.seed, 1)))
    ops.append(("phase_sum_probe", probe_failures))

    if args.trace:
        (workdir / "spans.json").write_text(json.dumps(tracer.spans))
    (workdir / "rep.json").write_text(json.dumps({
        "setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
        "ops": ops, "max_abs_err": max_abs_err}))


if __name__ == "__main__":
    main()
