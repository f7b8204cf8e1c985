import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hklab.core import SystemParams, power_sum_vector
from hklab.counting import count_mitm
from hklab.circle import (
    ClassRegion,
    _minor_sup_candidates,
    _primitive_tuples,
    DissectionParams,
    MinorArcs1D,
    classify,
    classify_direct,
    dilation_containment_check,
    in_K,
    in_major_1d,
    in_major_1d_scan,
    lattice_representation_integral,
    major_1d_witness,
    measure_major_1d,
    minor_arc_decay_experiment,
    restricted_moment,
    restricted_representation_integral,
    sigma,
    moment_majorant_experiment,
    w4_main_term_experiment,
)
from hklab.counting import count_naive
from hklab.densities import _primitive_mask, complete_sum_all
from hklab.errors import AliasingError, BudgetExceededError, ValidationError
from hklab.expsums import complete_sum

GOLDEN = (math.sqrt(5) - 1) / 2


def test_sigma_values():
    assert sigma(2) == Fraction(1, 2)
    assert sigma(3) == Fraction(1, 4)
    assert sigma(5) == Fraction(1, 16)
    assert sigma(6) == Fraction(1, 30)
    assert sigma(9) == Fraction(1, 72)
    with pytest.raises(ValidationError):
        sigma(1)


def test_in_major_1d_examples():
    ok, lab = in_major_1d(0.0, 5, 100, 2)
    assert ok and (lab.q, lab.a) == (1, (0,))
    ok, lab = in_major_1d(0.5, 5, 100, 2)
    assert ok and (lab.q, lab.a) == (2, (1,))
    # worst-approximable point stays minor at a tight cutoff
    assert not in_major_1d(GOLDEN, 10 ** (4 / 24), 1e4, 3)[0]


def test_in_major_1d_matches_direct_scan():
    random.seed(30)
    for _ in range(400)      :
        a = random.random()
        Q = random.choice([1.5, 3, 9, 25, 60])
        X = random.choice([40.0, 300.0, 2000.0])
        k = random.choice([2, 3])
        assert in_major_1d(a, Q, X, k)[0] == in_major_1d_scan(a, Q, X, k)[0]


def test_in_major_witness_is_minimal_denominator():
    random.seed(31)
    for _ in range(100):
        a = random.random()
        ok, lab = in_major_1d(a, 30, 100.0, 2)
        ok2, lab2 = in_major_1d_scan(a, 30, 100.0, 2)
        assert ok == ok2
        if ok:
            assert lab.q == lab2.q


def test_dirichlet_completeness_quadratic():
    # at cutoff Q = X the one-dimensional dissection covers everything (k=2)
    random.seed(32)
    for _ in range(1000):
        assert in_major_1d(random.random(), 1e4, 1e4, 2)[0]


def test_in_K_examples():
    ok, lab = in_K([0.0, 0.0], 2.2, 1e4)
    assert ok and lab.q == 1
    assert in_K([0.5, 0.5], 2.2, 1e4)[0]
    assert not in_K([0.3137, 0.7252], 2.2, 1e4)[0]


def test_in_K_boundary_probe():
    # push one coordinate just past its box radius: center (1, 0) fails
    X, Z = 100.0, 1.5
    alpha = [1.01 * Z / X, 0.0]
    assert not in_K(alpha, Z, X)[0]
    alpha = [0.99 * Z / X, 0.0]
    assert in_K(alpha, Z, X)[0]


def test_in_K_labels_are_primitive():
    random.seed(33)
    for _ in range(200):
        alpha = [random.random() * 0.01, random.random() * 0.001]
        ok, lab = in_K(alpha, 6, 50.0)
        if ok:
            assert lab.primitive


def test_dissection_params_no_drift():
    d = DissectionParams.from_scale(1e4, 3)
    assert d.Q == d.L ** 3                                 # single evaluation
    assert 1 <= d.Q <= d.X


def test_classify_examples():
    d = DissectionParams.from_scale(1e4, 3)
    assert classify([0.0, 0.0, 0.0], d)[0] == "W4"
    assert classify([0.3, 0.2, GOLDEN], d)[0] == "W1"


def test_classify_matches_direct_definitions():
    d = DissectionParams.from_scale(1e4, 3)
    rng = np.random.default_rng(34)
    pts = rng.random((4000, 3))
    for p in pts:
        assert classify(p, d)[0] == classify_direct(p, d)


def test_classify_rational_points_wide_profile():
    # denser dissection: every class reachable, partition still holds
    d = DissectionParams.from_scale(300.0, 2, l_exponent=1 / 3)
    rng = np.random.default_rng(35)
    seen = set()
    for p in rng.random((3000, 2)):
        c = classify(p, d)[0]
        assert c == classify_direct(p, d)
        seen.add(c)
    for q in range(1, 4):
        for a1 in range(q):
            for a2 in range(q):
                c = classify([a1 / q + 1e-9, a2 / q + 1e-9], d)[0]
                assert c == classify_direct([a1 / q + 1e-9, a2 / q + 1e-9], d)
                seen.add(c)
    assert "W4" in seen and "W1" in seen


def test_narrow_boxes_inside_1d_major():
    # structural containment: narrow-box points have boxed final coordinate
    for l_exp, X, k in [(None, 1e4, 3), (1 / 3, 500.0, 2)]:
        d = DissectionParams.from_scale(X, k, l_exponent=l_exp)
        rng = np.random.default_rng(36)
        hits = 0
        for q in range(1, int(d.L) + 1):
            for _ in range(40):
                a = rng.integers(0, q + 1, size=k)
                alpha = a / q + rng.uniform(-1, 1, size=k) * [
                    d.L * X ** (-j) for j in range(1, k + 1)]
                alpha = alpha % 1.0
                if in_K(alpha, d.L, X)[0]:
                    hits += 1
                    assert in_major_1d(alpha[-1], d.Q, X, k)[0]
        assert hits > 0


def test_measure_major_respects_union_bound():
    for Q, X, k in [(4, 50.0, 2), (8, 100.0, 2), (3, 30.0, 3)]:
        m = measure_major_1d(Q, X, k)
        assert 0 < m["measure"] <= min(1.0, m["union_bound"]) + 1e-12


def test_measure_major_complete_at_dirichlet_cutoff():
    m = measure_major_1d(40, 40.0, 2)
    assert abs(m["measure"] - 1.0) < 1e-12


def test_minor_region_masks():
    region = MinorArcs1D(5, 100.0, 2)
    vals = np.array([0.0, 0.5, GOLDEN])
    mask = region.mask(vals)
    assert mask.tolist() == [False, False, True]


def _scan_minor(values, Q, X, k, dilation=1):
    """Oracle for ``MinorArcs1D.mask``: the direct denominator scan per point."""
    return [any(not in_major_1d_scan((v + m) / dilation, Q, X, k)[0]
                for m in range(dilation)) for v in values]


@pytest.mark.parametrize("Q,X,k", [(1.5, 40.0, 2), (9, 300.0, 2), (25, 2000.0, 3),
                                   (60, 2000.0, 2)])
def test_minor_mask_matches_scan_oracle(Q, X, k):
    rng = np.random.default_rng(int(Q * 10) + k)
    thr = Q * X ** (-k)
    # rational centres a/q offset by the arc width Q X^-k, just inside and outside
    centres = [a / q for q in range(1, int(Q) + 1) for a in range(q + 1)
               if math.gcd(a, q) == 1]
    edges = [(c + sgn * f * thr) % 1.0 for c in centres for sgn in (-1, 1)
             for f in (1.0, 1 - 1e-9, 1 + 1e-9)]
    for values in (rng.random(500), np.array(edges)):
        region = MinorArcs1D(Q, X, k)
        assert region.mask(values).tolist() == _scan_minor(values, Q, X, k)
        for dilation in (2, 6):
            dil = MinorArcs1D(Q, X, k, dilation=dilation)
            assert (dil.mask(values).tolist()
                    == _scan_minor(values, Q, X, k, dilation))


def test_major_witness_matches_scalar_test():
    rng = np.random.default_rng(33)
    values = np.concatenate([rng.random(300), [0.0, 0.5, 1 / 3, GOLDEN]])
    q, a = major_1d_witness(values, 30, 100.0, 2)
    for v, qv, av in zip(values, q, a):
        ok, lab = in_major_1d_scan(v, 30, 100.0, 2)
        assert bool(qv) == ok
        if ok:
            assert (qv, av) == (lab.q, lab.a[0])
    assert MinorArcs1D(30, 100.0, 2).contains(GOLDEN)


def test_restricted_moment_exact_even():
    m, hw = restricted_moment(2, "full", 10, 2)
    assert m == 11.0 and hw == 0.0                        # diagonal pairs
    # 2w-th moment equals the 0-based translation-invariant count
    w = 3
    m6, _ = restricted_moment(2 * w, "full", 6, 2)
    from hklab.counting import powersum_histogram

    _, counts = powersum_histogram(w, 2, 6, x_min=0)
    assert m6 == float(sum(int(c) ** 2 for c in counts))


def test_restricted_moment_full_is_vinogradov_count():
    from hklab.counting import vinogradov_count

    for t, X, k in [(4, 12.5, 2), (6, 9, 3), (8, 5, 2)]:
        m, hw = restricted_moment(t, "full", X, k)
        assert m == float(vinogradov_count(t // 2, k, X, x_min=0)) and hw == 0.0
    with pytest.raises(BudgetExceededError) as ei:
        restricted_moment(12, "full", 10 ** 6, 2)
    assert ei.value.work_done == 0


def test_restricted_moment_empty_region():
    region = MinorArcs1D(1e4, 1e4, 2)                     # empty minor set
    m, hw = restricted_moment(4, region, 50.0, 2, samples=2000, seed=1)
    assert m == 0.0


def test_restricted_moment_over_arc_classes():
    # the four class regions partition the torus: restricted second moments
    # over the classes sum to the full-torus moment (same sample streams)
    d = DissectionParams.from_scale(300.0, 2, l_exponent=1 / 3)
    X = 20.0
    total, _ = restricted_moment(2, "full", X, 2)
    parts = 0.0
    for name in ("W1", "W2", "W3", "W4"):
        m, _ = restricted_moment(2, ClassRegion(d, name), X, 2,
                                 samples=4000, seed=9)
        parts += float(np.real(m))
        assert np.real(m) >= 0
    assert abs(parts - total) <= 0.25 * total             # MC tolerance
    with pytest.raises(ValidationError):
        ClassRegion(d, "W9")


def test_lattice_integral_equals_counts():
    p = SystemParams.pure(3, 2)
    for x in ([1, 1, 1], [0, 2, 3], [1, 4, 2]):
        n = power_sum_vector(x, p)
        v = lattice_representation_integral(3, n, 4, 2)
        c = count_mitm(p, n, box=4).count
        assert abs(v - c) < 1e-6
        assert round(v.real) == c


def test_lattice_integral_equals_counts_k4():
    # s = 2, X = 2: a 5 x 9 x 17 x 33 lattice, exact for every target
    p = SystemParams.pure(2, 4)
    targets = {tuple(power_sum_vector(x, p)) for x in itertools.product(range(3), repeat=2)}
    for n in sorted(targets) + [(1, 3, 1, 1)]:
        v = lattice_representation_integral(2, n, 2, 4)
        assert abs(v - round(v.real)) < 1e-9
        assert round(v.real) == count_naive(p, n, box=2).count


def test_lattice_integral_out_of_range_target():
    assert lattice_representation_integral(3, [100, 3], 4, 2) == 0


def test_lattice_integral_aliasing_error():
    with pytest.raises(AliasingError):
        lattice_representation_integral(3, [3, 3], 4, 2, N_list=[5, 17])


def test_restricted_integral_full_dispatch():
    v, hw = restricted_representation_integral(3, [3, 3], "full", 4, 2)
    assert abs(v - 1) < 1e-6 and hw == 0.0


def test_minor_decay_experiment_small():
    r = minor_arc_decay_experiment(12, 3, 2000.0, [5, 10, 20], samples=150,
                                   seed=11)
    sups = [row["sup"] for row in r["rows"]]
    assert r["strictly_decreasing"], sups
    assert r["sup_slope"] <= -0.05
    with pytest.raises(ValidationError):
        minor_arc_decay_experiment(12, 3, 2000.0, [5, 10], samples=50)
    with pytest.raises(ValidationError):
        minor_arc_decay_experiment(6, 3, 2000.0, [5, 10, 20], samples=50)


def _gcd_primitive(q, k):
    g = np.full((q,) * k, q)
    for axis in range(k):
        shape = [1] * k
        shape[axis] = q
        g = np.gcd(g, np.arange(q).reshape(shape))
    return g == 1


def test_sup_candidates_reach_full_grid_max():
    # the CRT-combined candidate for every q <= 60 is primitive and reaches
    # the primitive maximum of |S(q, .)| over the whole grid
    for k in (2, 3):
        cands = _minor_sup_candidates(0, 30, k)
        for q, c in zip(range(1, 61), cands):
            a = [int(v) for v in np.rint(c * q)]
            assert math.gcd(q, *a) == 1, (q, k, a)
            full = np.abs(complete_sum_all(q, k))[_gcd_primitive(q, k)].max()
            assert abs(abs(complete_sum(q, a)) - full) <= 1e-9 * full, (q, k, a)


def test_primitive_tuples_match_gcd_loop():
    for q in range(1, 13):
        for k in (1, 2, 3):
            want = [a for a in itertools.product(range(1, q + 1), repeat=k)
                    if math.gcd(q, *a) == 1]
            assert _primitive_tuples(q, k) == want, (q, k)
            assert np.array_equal(_primitive_mask(q, k), _gcd_primitive(q, k))


def test_moment_majorant_experiment_small():
    x = [3, 7, 12, 21, 33, 40]
    h = [sum(v ** j for v in x) for j in (1, 2)]
    r = moment_majorant_experiment(6, 2, 128.0, [4, 8, 16], h,
                                        samples=4000, seed=2)
    ratios = [row["ratio"] for row in r["rows"]]
    assert all(np.isfinite(ratios))
    assert max(ratios) / min(ratios) < 10.0


def test_moment_majorant_empty_region_zeroes():
    # Q = X at k=2: the minor set is empty, both sides vanish
    h = [10, 40]
    r = moment_majorant_experiment(6, 2, 64.0, [64], h, samples=2000,
                                        seed=3)
    row = r["rows"][0]
    assert row["lhs_abs"] == 0.0 and row["rhs"] == 0.0
    assert math.isnan(row["ratio"])


def test_dilation_containment():
    c = dilation_containment_check(6, 16, 512.0, 2, samples=3000, seed=4)
    assert c["all_pass"]


def test_w4_experiment_smoke():
    r = w4_main_term_experiment(6, 2, [0.35, 0.52, 0.21, 0.88, 0.67, 1.0],
                                [10, 20], series_p_max=31, series_modcap=128)
    for row in r["rows"]:
        assert 0.5 < row["ratio"] < 2.0
        assert row["A"] > 0
        assert row["L"] > 1
