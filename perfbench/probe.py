"""Phase-sum accuracy probe against an exact rational reference.

A float frequency ``c`` is the exact dyadic rational ``num / 2^e``, so the
phase ``sum_j c_j x^j mod 1`` of each term is reduced exactly in integer
arithmetic; only the final ``e(t)`` is rounded.  The reference is therefore
independent of the kernel's difference engine and of its rounding drift.
"""

import math

import numpy as np

PROBE_K = 3
PROBE_POINTS = 4
# (last summation index, tolerance on |kernel - reference|).  The first two
# are pins of tests/test_kernels.py: 1e-9 for a range of about 25 terms, and
# 1e-5 (n + 1).  At n = 10^4 the difference engine exceeds 1e-5 (n + 1)
# against the exact reference (up to 0.3 on 300 random k = 3 points), so
# that range uses the drift documented in hklab/kernels.py instead: about
# 1e-4 radians per term, over n + 1 terms.
PROBE_RANGES = ((25, 1e-9), (1000, 1e-5 * 1001), (10_000, 1e-4 * 10_001))


def exact_phase_sum(coeffs, n_max):
    """``sum_{x=0}^{n_max} e(coeffs[0] x + coeffs[1] x^2 + ...)``, phases exact."""
    ratios = [float(c).as_integer_ratio() for c in coeffs]
    den = max(d for _, d in ratios)           # every d is a power of two
    nums = [num * (den // d) for num, d in ratios]
    re, im = [], []
    for x in range(n_max + 1):
        acc = 0
        for num in reversed(nums):            # Horner: (..(c_k x + c_{k-1}) x ..) x
            acc = (acc + num) * x
        t = 2.0 * math.pi * ((acc % den) / den)
        re.append(math.cos(t))
        im.append(math.sin(t))
    return complex(math.fsum(re), math.fsum(im))


def phase_sum_probe(rng):
    """Run ``kernels.phase_poly_sums`` at seeded points; return (max error, failures)."""
    from hklab import kernels

    worst = 0.0
    failures = []
    for n_max, tol in PROBE_RANGES:
        coeffs = rng.random((PROBE_POINTS, PROBE_K))
        got = kernels.phase_poly_sums(coeffs, 0, n_max)
        for row, value in zip(coeffs, got):
            err = abs(complex(value) - exact_phase_sum(row, n_max))
            worst = max(worst, err)
            if not err <= tol:
                failures.append(f"phase_sum_err={err:.3g}>{tol:.3g}@X={n_max}")
    return worst, failures
