"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
every criterion pins its tolerance here, nothing is deferred to later
calibration.
"""

import math
import random
from fractions import Fraction

import numpy as np

from hklab.core import SystemParams, power_sum_vector
from hklab.counting import count_mitm, count_naive, mvt_scaling_experiment, vinogradov_count
from hklab.circle import (
    DissectionParams,
    classify,
    classify_direct,
    dilation_containment_check,
    in_K,
    lattice_representation_integral,
    major_1d_witness,
    minor_arc_decay_experiment,
    sigma,
    moment_majorant_experiment,
    w4_main_term_experiment,
)
from hklab.densities import (
    mc_volume_oracle,
    padic_density,
    series_term,
    singular_integral_quadrature,
    singular_series_euler,
    singular_series_qsum,
)
from hklab.expsums import (
    complete_sum,
    verify_binomial_transform,
    verify_resolution_identity,
    verify_shift_reindex,
)
from hklab.local import small_primes
from hklab.streams import substream

P62 = SystemParams.pure(6, 2)


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_identity_suite():
    rng = substream(1, 0)
    worst = 0.0
    for k in (2, 3):
        for X in (10, 20):
            tol = 1e-8 * (X + 1) ** 2
            for _ in range(50):
                num = rng.integers(0, 64, size=k)
                den = rng.integers(1, 64, size=k)
                alpha = (num / den) % 1.0
                y = int(rng.integers(0, X + 1))
                d1 = verify_shift_reindex(alpha, X, y)
                d2 = verify_resolution_identity(alpha, X, y, 3 * X + 3)
                worst = max(worst, d1 / tol, d2 / tol)
    binom_ok = 0
    for _ in range(100):
        s = int(rng.integers(2, 7))
        k = int(rng.integers(2, 5))
        x = [int(v) for v in rng.integers(0, 40, size=s)]
        y = int(rng.integers(0, 15))
        binom_ok += verify_binomial_transform(x, y, k)
    _report(1, worst <= 1.0 and binom_ok == 100,
            f"identity discrepancies at {worst:.2e} of tolerance; "
            f"binomial transform exact on {binom_ok}/100 tuples")


def test_criterion_02_orthogonality_oracle():
    rng = substream(2, 0)
    checked = 0
    worst = 0.0
    while checked < 20:
        s = int(rng.integers(3, 5))
        X = int(rng.integers(4, 9))
        x = [int(v) for v in rng.integers(0, X + 1, size=s)]
        n = power_sum_vector(x, SystemParams.pure(s, 2))
        val = lattice_representation_integral(s, n, X, 2)
        cnt = count_mitm(SystemParams.pure(s, 2), n, box=X).count
        resid = abs(val - cnt)
        worst = max(worst, resid)
        assert round(val.real) == cnt
        checked += 1
    _report(2, worst < 1e-6,
            f"lattice integral = half-split count on 20 targets "
            f"(max residual {worst:.2e})")


def test_criterion_03_counting_cross_check():
    random.seed(3)
    checked = 0
    while checked < 50:
        s = random.randint(2, 6)
        k = random.randint(2, 3)
        B = random.randint(2, 12)
        if s >= 5:
            B = min(B, 8)  # keep the naive oracle inside its time budget
        p = SystemParams.pure(s, k)
        if random.random() < 0.6:
            x = [random.randint(0, B) for _ in range(s)]
            n = power_sum_vector(x, p)
        else:
            n = [random.randint(0, 2 * B ** j) for j in range(1, k + 1)]
        a = count_naive(p, n, box=B).count
        b = count_mitm(p, n, box=B).count
        assert a == b, (s, k, B, n, a, b)
        checked += 1
    _report(3, True, "count_mitm = count_naive on 50 random instances")


def test_criterion_04_gauss_sum_magnitude():
    worst = 0.0
    for p in small_primes(97):
        if p == 2:
            continue
        S = complete_sum(p, [0, 1])
        worst = max(worst, abs(abs(S) - math.sqrt(p)))
    _report(4, worst < 1e-9,
            f"quadratic complete sums have modulus sqrt(p) "
            f"(worst deviation {worst:.2e})")


def test_criterion_05_multiplicativity():
    n = [96, 1934]
    worst = 0.0
    pairs = 0
    for q1 in range(2, 36):
        for q2 in range(2, 36):
            if q1 * q2 > 36 or math.gcd(q1, q2) != 1:
                continue
            pairs += 1
            lhs = series_term(q1 * q2, n, P62).value
            rhs = series_term(q1, n, P62).value * series_term(q2, n, P62).value
            worst = max(worst, abs(lhs - rhs))
    _report(5, worst < 1e-9,
            f"A(q1 q2) = A(q1) A(q2) on {pairs} coprime pairs "
            f"(worst deviation {worst:.2e})")


def test_criterion_06_euler_identity():
    n = [96, 1934]
    worst = 0.0
    for p in (2, 3, 5):
        for h in (1, 2, 3):
            lhs = sum(series_term(p ** hh, n, P62).value
                      for hh in range(0, h + 1))
            rhs = float(padic_density(p, h, n, P62))
            worst = max(worst, abs(lhs - rhs))
    _report(6, worst < 1e-9,
            f"sum of prime-power terms equals the counting density "
            f"(worst deviation {worst:.2e})")


def test_criterion_07_density_cross_methods():
    rng = substream(2024, 0)
    worst_rel = 0.0
    for _ in range(10):
        u = rng.uniform(0.15, 1.0, size=6)
        x = np.maximum(1, np.round(45 * u * u).astype(int))
        n = [int((x ** j).sum()) for j in (1, 2)]
        qs = singular_series_qsum(n, P62, Q_max=256)
        eu = singular_series_euler(n, P62, p_max=256, modulus_cap=256, tol=0.0)
        rel = abs(qs.value - eu.value) / max(abs(qs.value), abs(eu.value))
        worst_rel = max(worst_rel, rel)
    series_ok = worst_rel <= 1e-3
    integral_ok = True
    worst_gap = 0.0
    for _ in range(5):
        u = rng.uniform(0.2, 1.0, size=6)
        x = np.maximum(1, np.round(45 * u * u).astype(int))
        n = [int((x ** j).sum()) for j in (1, 2)]
        quad = singular_integral_quadrature(n, P62)
        mc = mc_volume_oracle(n, P62, eta=0.03, samples=20_000_000)
        ex = mc.detail["extrapolated"]
        gap = abs(quad.value - ex["value"])
        allowed = (0.05 * max(abs(quad.value), abs(ex["value"]))
                   + quad.error_estimate + ex["half_width"])
        integral_ok = integral_ok and gap <= allowed
        worst_gap = max(worst_gap, gap / allowed)
    _report(7, series_ok and integral_ok,
            f"series routes agree to 3 digits (worst rel {worst_rel:.1e}); "
            f"integral vs volume oracle within 5%+bars "
            f"(worst {worst_gap:.2f} of allowance)")


def test_criterion_08_local_global_end_to_end():
    base = [0.346, 0.923, 0.256, 0.201, 0.997, 0.208]
    result = w4_main_term_experiment(6, 2, base, [4, 8, 16],
                                     series_p_max=101, series_modcap=512)
    ratios = [row["ratio"] for row in result["rows"]]
    x0s = [row["X0"] for row in result["rows"]]
    dist = [abs(r - 1.0) for r in ratios]
    band_ok = 0.6 <= ratios[-1] <= 1.5
    mono_ok = all(dist[i + 1] <= dist[i] + 1e-12 for i in range(len(dist) - 1))
    # violating the parity congruence forces emptiness on both routes
    n_bad = [97, 1934]
    a_bad = count_mitm(P62, n_bad).count
    s_bad = singular_series_euler(n_bad, P62).value
    vanish_ok = a_bad == 0 and s_bad < 1e-3
    _report(8, band_ok and mono_ok and vanish_ok,
            f"ratios {[round(r, 4) for r in ratios]} at scales {x0s} "
            f"(band + monotone approach); congruence-violating target: "
            f"A={a_bad}, series={s_bad}")


def test_criterion_09_dissection_partition():
    d = DissectionParams.from_scale(1e4, 3)
    rng = substream(9, 0)
    pts = rng.random((100_000, 3))
    assert classify(pts, d)[0].tolist() == classify_direct(pts, d).tolist()
    # narrow boxes sit inside the 1-d boxed set: sample the boxes directly
    radii = [d.L * d.X ** (-j) for j in (1, 2, 3)]
    boxed = np.array([(rng.integers(0, q + 1, size=3) / q
                       + rng.uniform(-1, 1, size=3) * radii) % 1.0
                      for q in range(1, int(d.L) + 1) for _ in range(300)])
    hits = in_K(boxed, d.L, d.X)[0] > 0
    assert (major_1d_witness(boxed[hits, -1], d.Q, d.X, d.k)[0] > 0).all()
    contained = int(hits.sum())
    assert contained > 0
    # completeness of the rational cover at the full cutoff (quadratic case)
    dirichlet_ok = bool((major_1d_witness(rng.random(10_000), 1e4, 1e4, 2)[0]
                         > 0).all())
    _report(9, dirichlet_ok,
            f"classify = direct set definitions on 100000 points; "
            f"{contained} sampled narrow-box points all boxed in 1-d; "
            f"full-cutoff cover complete on 10000 samples")


def test_criterion_10_subconvexity_trend():
    decay = minor_arc_decay_experiment(12, 3, 1e4, [10, 20, 40, 80],
                                       samples=400, seed=11)
    sups = [row["sup"] for row in decay["rows"]]
    decay_ok = decay["strictly_decreasing"] and decay["sup_slope"] <= -0.05
    x = [3, 7, 12, 21, 33, 40]
    h = [sum(v ** j for v in x) for j in (1, 2)]
    thm = moment_majorant_experiment(6, 2, 512.0, [8, 16, 32], h,
                                          samples=60_000, seed=1)
    ratios = [row["ratio"] for row in thm["rows"]]
    band_ok = (all(np.isfinite(ratios))
               and max(ratios) / min(ratios) <= 10.0)
    cont = dilation_containment_check(6, 32, 512.0, 2, seed=2)
    _report(10, decay_ok and band_ok and cont["all_pass"],
            f"minor sup strictly decreasing {[round(s) for s in sups]} "
            f"(slope {decay['sup_slope']:.3f}); bound-ratio band "
            f"{max(ratios) / min(ratios):.2f} <= 10; dilation containment "
            f"{cont['passed']}/{cont['checked']}")


def test_criterion_11_weyl_exponent_table():
    ok = (sigma(2) == Fraction(1, 2) and sigma(5) == Fraction(1, 16)
          and sigma(6) == Fraction(1, 30))
    _report(11, ok, "sigma(2)=1/2, sigma(5)=1/16, sigma(6)=1/30 exactly")


def test_criterion_12_mean_value_scaling():
    table = mvt_scaling_experiment(3, 2, [8, 16, 32, 64])
    slope_ok = 2.9 <= table["slope"] <= 3.5
    diag_ok = all(vinogradov_count(1, k, X) == X
                  for k in (2, 3) for X in (7, 12, 30))
    _report(12, slope_ok and diag_ok,
            f"J(3,2) log-log slope {table['slope']:.4f} in [2.9, 3.5]; "
            f"t=1 mean value equals the diagonal exactly")
