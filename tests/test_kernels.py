"""Kernels against independent references."""

import collections
import itertools
import math

import numpy as np
import pytest

from hklab.kernels import (
    canonical_powersum_run,
    conv_mod,
    expand_slab,
    phase_poly_sums,
    tuple_multiplicities,
)


def _direct_phase_sum(coeffs, u0, u1):
    out = []
    for row in coeffs:
        acc = 0j
        for u in range(u0, u1 + 1):
            t = sum(c * float(u) ** (j + 1) for j, c in enumerate(row))
            acc += np.exp(2j * np.pi * (t % 1.0))
        out.append(acc)
    return np.array(out)


def test_phase_poly_sums_matches_direct():
    rng = np.random.default_rng(0)
    coeffs = rng.random((8, 3))
    got = phase_poly_sums(coeffs, 0, 25)
    want = _direct_phase_sum(coeffs, 0, 25)
    assert np.abs(got - want).max() < 1e-10


def test_phase_poly_sums_negative_range():
    rng = np.random.default_rng(1)
    coeffs = rng.random((4, 2))
    got = phase_poly_sums(coeffs, -9, 14)
    want = _direct_phase_sum(coeffs, -9, 14)
    assert np.abs(got - want).max() < 1e-9


def test_phase_poly_sums_empty_range():
    assert phase_poly_sums(np.ones((3, 2)), 5, 4).tolist() == [0, 0, 0]


def test_phase_poly_sums_rejects_nonfinite():
    with pytest.raises(ValueError):
        phase_poly_sums(np.array([[np.nan]]), 0, 3)


def _exact_phase_sum(coeffs, u0, u1):
    """``sum_{u=u0}^{u1} e(coeffs[0] u + coeffs[1] u^2 + ...)``, phases exact.

    Each float ``c_j`` is the dyadic rational ``num / 2^e``, so every term's
    phase is reduced mod 1 in integer arithmetic; only ``e(t)`` is rounded.
    """
    ratios = [float(c).as_integer_ratio() for c in coeffs]
    den = max(d for _, d in ratios)           # every d is a power of two
    nums = [num * (den // d) for num, d in ratios]
    re, im = [], []
    for u in range(u0, u1 + 1):
        acc = 0
        for num in reversed(nums):            # Horner: (..(c_k u + c_{k-1}) u ..) u
            acc = (acc + num) * u
        t = 2.0 * math.pi * ((acc % den) / den)
        re.append(math.cos(t))
        im.append(math.sin(t))
    return complex(math.fsum(re), math.fsum(im))


# 1001 and 10 001 terms end in a partial block, except 1001 at k = 4 (77 blocks of 13)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("u0,u1", [(0, 25), (0, 1000), (0, 10_000),
                                   (-5000, 5000)])
def test_phase_poly_sums_matches_exact_reference(k, u0, u1):
    rng = np.random.default_rng(100 * k + (u1 - u0) % 97)
    coeffs = rng.random((2, k))
    coeffs[1] -= 0.5                          # negative frequencies too
    got = phase_poly_sums(coeffs, u0, u1)
    for row, value in zip(coeffs, got):
        assert abs(complex(value) - _exact_phase_sum(row, u0, u1)) <= 1e-6


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_phase_poly_sums_random_points_within_1e9(k):
    # the README's bound for k <= 4 and n <= 10^4 at random points
    rng = np.random.default_rng(40 + k)
    coeffs = rng.random((6, k)) - 0.5
    got = phase_poly_sums(coeffs, 0, 9999)
    for row, value in zip(coeffs, got):
        assert abs(complex(value) - _exact_phase_sum(row, 0, 9999)) < 1e-9


def test_phase_poly_sums_row_independent_of_batch():
    rng = np.random.default_rng(6)
    coeffs = rng.random((300, 3))
    for u0, u1 in [(0, 25), (-7, 4000)]:
        batch = phase_poly_sums(coeffs, u0, u1)
        for r in (0, 137, 299):
            alone = phase_poly_sums(coeffs[r:r + 1], u0, u1)[0]
            assert abs(alone - batch[r]) <= 1e-12


# short ranges, ranges one past a power of two, and batches cut into row tiles
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [3, 26, 97, 256, 257, 513, 1025, 4001])
def test_phase_poly_sums_row_bit_identical_to_batch(k, n):
    rng = np.random.default_rng(10 * k + n)
    coeffs = rng.random((300, k)) - 0.5
    batch = phase_poly_sums(coeffs, -3, n - 4)
    for r in rng.choice(300, size=43, replace=False):
        assert phase_poly_sums(coeffs[r:r + 1], -3, n - 4)[0] == batch[r]


def test_phase_poly_sums_wide_multipliers():
    # C(j,l) b^(j-l) beyond 2^53 (and 2^62) is split into exact limbs
    rng = np.random.default_rng(7)
    for k, u0 in [(3, 10 ** 6), (4, 3 * 10 ** 5), (5, 10 ** 4)]:
        coeffs = rng.random((2, k))
        got = phase_poly_sums(coeffs, u0, u0 + 300)
        for row, value in zip(coeffs, got):
            assert abs(complex(value) - _exact_phase_sum(row, u0, u0 + 300)) <= 1e-8


def _reference_histogram(t, lo, hi, k):
    ref = collections.Counter()
    for tup in itertools.product(range(lo, hi + 1), repeat=t):
        ref[tuple(sum(v ** j for v in tup) for j in range(1, k + 1))] += 1
    return ref


@pytest.mark.parametrize("t,lo,hi,k", [(1, 0, 6, 2), (2, 1, 5, 3), (3, 0, 4, 2),
                                       (4, 0, 3, 2)])
def test_canonical_run_covers_ordered_tuples(t, lo, hi, k):
    keys, mult = canonical_powersum_run(t, lo, hi, k)
    mine = collections.Counter()
    for kk, mm in zip(keys, mult):
        mine[tuple(int(v) for v in kk)] += int(mm)
    assert mine == _reference_histogram(t, lo, hi, k)
    assert int(mult.sum()) == (hi - lo + 1) ** t


def test_canonical_run_coefficient_scaling():
    keys, mult = canonical_powersum_run(2, 0, 3, 2, coeff=-1)
    assert keys.min() <= -1
    assert int(mult.sum()) == 16


@pytest.mark.parametrize("t,lo,hi,k,coeff", [(3, 0, 6, 2, 1), (3, -2, 3, 3, -2),
                                             (4, -1, 4, 2, 3), (1, -3, 3, 2, 1)])
def test_canonical_run_bounds_keep_exactly_the_keys_inside(t, lo, hi, k, coeff):
    keys, mult = canonical_powersum_run(t, lo, hi, k, coeff=coeff)
    rng = np.random.default_rng(t + hi)
    for _ in range(5):
        a, b = np.sort(rng.choice(keys.ravel(), size=(2, k)), axis=0)
        inside = np.all((keys >= a) & (keys <= b), axis=1)
        bk, bm = canonical_powersum_run(t, lo, hi, k, coeff=coeff, key_min=a, key_max=b)
        assert sorted(zip(map(tuple, bk.tolist()), bm.tolist())) == \
            sorted(zip(map(tuple, keys[inside].tolist()), mult[inside].tolist()))
    empty, _ = canonical_powersum_run(t, lo, hi, k, coeff=coeff,
                                      key_min=keys.max(axis=0) + 1,
                                      key_max=keys.max(axis=0) + 1)
    assert len(empty) == 0


def test_tuple_multiplicities_beyond_int64_factorials():
    rows = np.array([[0] * 22, [0] * 11 + [1] * 11, list(range(22))])
    got = tuple_multiplicities(rows)
    assert list(got) == [1, math.comb(22, 11), math.factorial(22)]


def test_canonical_run_empty_tuple():
    keys, mult = canonical_powersum_run(0, 0, 5, 3)
    assert keys.shape == (1, 3) and keys.sum() == 0 and mult[0] == 1


def _power_shifts(m, k, rows, c=1):
    """Rows ``c (x, x^2, ..., x^k) mod m``; ``rows`` may repeat an ``x``."""
    return np.array([[c * pow(int(x), j, m) % m for j in range(1, k + 1)] for x in rows],
                    dtype=np.int64).reshape(len(rows), k)


def _roll_conv(H, shifts):
    """Oracle: ``out[(v + shift) mod m] += H[v]``, one ``np.roll`` per shift row."""
    out = np.zeros_like(H)
    axes = tuple(range(H.ndim))
    for row in shifts:
        out += np.roll(H, tuple(int(v) for v in row), axis=axes)
    return out


def _roll_half(m, k, coeffs, dtype=np.int64):
    """Residue histogram of ``sum_i c_i (x_i, ..., x_i^k)`` by roll convolutions."""
    H = np.zeros((m,) * k, dtype=dtype)
    H[(0,) * k] = 1
    for c in coeffs:
        H = _roll_conv(H, _power_shifts(m, k, range(m), c))
    return H


def test_conv_mod_matches_reference():
    # a half of coefficients (1, 2) mod 7 by direct enumeration, one step of
    # coefficient 3, against the cell-by-cell convolution
    m, C = 7, 3
    H = np.zeros((m, m), dtype=np.int64)
    for x, y in itertools.product(range(m), repeat=2):
        H[(x + 2 * y) % m, (x * x + 2 * y * y) % m] += 1
    shifts = _power_shifts(m, 2, range(m), 3)
    want = np.zeros_like(H)
    for a, b in shifts:
        for i in range(m):
            for j in range(m):
                want[(i + a) % m, (j + b) % m] += H[i, j]
    got = conv_mod(H[:1], shifts, C, 3)  # gcd(3, 7) = 1, then gcd(6, 7) = 1
    assert got.shape == (1, m) and np.array_equal(got, want[:1])
    assert np.array_equal(expand_slab(got, m, C + 3), want)


CONV_CASES = ([(m, k) for k in (1, 2) for m in (2, 3, 4, 7, 16, 81, 121, 243, 251, 256)]
              + [(m, 3) for m in (2, 3, 4, 7, 16)])
# (half so far, coefficient added): the coefficient sums run through units,
# 2, 3 and 4 (p | C at powers of 2 and 3) and 0 mod m (the slab is the grid)
STEPS = [((1,), 1), ((1, 1), 1), ((1,), -1), ((1, -1), 2), ((3, 1), -4)]


@pytest.mark.parametrize("m,k", CONV_CASES)
def test_conv_mod_fft_matches_roll_loop(m, k):
    halves = {}
    for prefix, c in STEPS:
        if prefix not in halves:
            halves[prefix] = _roll_half(m, k, prefix)
        H = halves[prefix]
        C, C2 = sum(prefix) % m, (sum(prefix) + c) % m
        g, g2 = math.gcd(C, m), math.gcd(C2, m)
        shifts = _power_shifts(m, k, range(m), c)
        want = _roll_conv(H, shifts)
        assert np.array_equal(expand_slab(H[:g], m, C), H), prefix
        got = conv_mod(H[:g], shifts, C, c)
        assert got.dtype == np.int64 and got.shape == (g2,) + (m,) * (k - 1)
        assert np.array_equal(got, want[:g2]), (prefix, c)
        assert np.array_equal(expand_slab(got, m, C2), want), (prefix, c)


def test_conv_mod_int64_cells_near_2_60_stay_exact():
    # a real half scaled by 2^52: every sum of the step is exact in int64
    m, k = 7, 2
    H = _roll_half(m, k, (1, 2)) * 2 ** 52
    shifts = _power_shifts(m, k, range(m), 3)
    got = conv_mod(H[:1], shifts, 3, 3)
    want = _roll_conv(H.astype(object), shifts)
    assert int(want.sum()) == m ** 3 * 2 ** 52 > 2 ** 60
    assert np.array_equal(got.astype(object), want[:1])
    assert np.array_equal(expand_slab(got, m, 6).astype(object), want)


def test_conv_mod_object_cells_stay_exact():
    # a constant histogram is invariant under every translation; at C = 0
    # its slab is the whole grid
    H = np.full((3, 3), 2 ** 70, dtype=object)
    got = conv_mod(H, _power_shifts(3, 2, [0, 1, 2]), 0, 1)
    assert got.dtype == object and got.shape == (1, 3)
    assert all(v == 3 * 2 ** 70 for v in got.ravel())
    full = expand_slab(got, 3, 1)
    assert full.dtype == object and all(v == 3 * 2 ** 70 for v in full.ravel())
