#!/usr/bin/env python3
"""Benchmark the jitted enumeration kernel against its pure-numpy fallback.

Times both implementations of canonical enumeration on a representative
workload (the size the experiments actually use) and prints a speedup
table.  The phase-sum and convolution kernels are numpy only;
``perfbench/`` times them.  Run after any kernel change:

    python benchmarks/bench_kernels.py
"""

import math
import time

import numpy as np

from hklab import accel
from hklab.kernels import _enum_canonical_numpy

if accel.HAVE_NUMBA:
    from hklab.kernels import _enum_canonical_numba


def timeit(fn, *args, repeat=3):
    best = math.inf
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_enumeration(rows):
    t, lo, hi, k = 3, 0, 140, 2
    vals = np.arange(lo, hi + 1, dtype=np.int64)
    powtab = np.stack([vals ** j for j in range(1, k + 1)], axis=1)
    facts = np.array([math.factorial(i) for i in range(t + 1)], dtype=np.int64)
    total = math.comb(hi - lo + t, t)

    def run_numba():
        keys = np.empty((total, k), dtype=np.int64)
        mult = np.empty(total, dtype=np.int64)
        _enum_canonical_numba(t, lo, hi, powtab, facts, keys, mult)
        return keys, mult

    if accel.HAVE_NUMBA:
        run_numba()  # compile
        t_nb, a = timeit(run_numba)
    else:
        t_nb, a = math.inf, None
    t_np, b = timeit(_enum_canonical_numpy, t, lo, hi, powtab, facts)
    if a is not None:
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    rows.append((f"canonical enumeration ({total} tuples, k=2)", t_nb, t_np))


def main():
    print(f"numba available: {accel.HAVE_NUMBA}; "
          f"selected path: {'numba' if accel.USE_NUMBA else 'numpy'} "
          f"(HK_NO_NUMBA toggles)")
    rows = []
    bench_enumeration(rows)
    width = max(len(r[0]) for r in rows)
    print(f"\n{'kernel'.ljust(width)}  {'numba':>10}  {'numpy':>10}  {'speedup':>8}")
    for name, t_nb, t_np in rows:
        speed = t_np / t_nb if t_nb > 0 and math.isfinite(t_nb) else float("nan")
        nb = f"{t_nb * 1e3:9.2f}ms" if math.isfinite(t_nb) else "       n/a"
        print(f"{name.ljust(width)}  {nb}  {t_np * 1e3:9.2f}ms  {speed:7.1f}x")


if __name__ == "__main__":
    main()
