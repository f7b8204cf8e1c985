import itertools
import math
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hklab import densities, expsums
from hklab.core import SystemParams, target_scale
from hklab.densities import (
    DensityEstimate,
    _irwin_hall_cdf,
    _shift_tables,
    _table_cells,
    complete_sum_all,
    main_term,
    mc_volume_oracle,
    padic_density,
    series_term,
    series_term_direct,
    singular_integral_quadrature,
    singular_series_euler,
    singular_series_qsum,
    solution_count_mod,
)
from hklab.errors import BudgetExceededError, NonConvergedError, ValidationError
from hklab.expsums import complete_sum, gl_panels, phase_tensor, tensor_integral
from hklab.local import small_primes

P62 = SystemParams.pure(6, 2)


def test_series_term_q1():
    t = series_term(1, [3, 3], P62)
    assert t.value == 1.0 and t.n_primitive == 1


def test_series_term_hand_computed_q2():
    # three primitive numerator pairs mod 2; only (1,1) has a nonzero sum
    t = series_term(2, [3, 3], P62)
    assert abs(t.value - 1.0) < 1e-12
    assert abs(t.imag) < 1e-12
    assert t.n_primitive == 3


def test_series_term_direct_agrees_with_dft():
    rng = np.random.default_rng(20)
    for q in (2, 3, 4, 5, 6, 9, 10):
        n = [int(v) for v in rng.integers(0, 50, size=2)]
        a = series_term(q, n, P62)
        b = series_term_direct(q, n, P62)
        assert abs(a.value - b.value) < 1e-9, (q, n)
        assert a.n_primitive == b.n_primitive


@pytest.mark.parametrize("q,k,n", [(6, 2, [3, 3]), (6, 2, [139, 4643]), (12, 2, [21, 91]),
                                   (30, 2, [6, 14]), (6, 3, [59, 369, 2609])])
def test_series_term_matches_direct_at_composite_moduli(q, k, n):
    # the primitive cells of a composite modulus lie off the sub-grids of
    # two or three primes at once
    params = SystemParams.pure(6 if k == 2 else 12, k)
    a = series_term(q, n, params)
    b = series_term_direct(q, n, params)
    gap = abs(complex(a.value, a.imag) - complex(b.value, b.imag))
    assert gap <= 1e-13 * max(1.0, abs(b.value))
    assert a.n_primitive == b.n_primitive


def _grid_term(q, n, params):
    """``A(q)`` on the whole ``q^k`` grid: ``complete_sum_all`` with the
    non-primitive cells zeroed, raised to the power ``s`` and contracted
    against ``e_q(-a.n)`` cell by cell."""
    k = params.k
    S = complete_sum_all(q, k)
    S[~densities._primitive_mask(q, k)] = 0
    a = np.indices((q,) * k)
    phase = sum(a[j] * (n[j] % q) for j in range(k)) % q
    return (S ** params.s * np.exp(-2j * np.pi * phase / q)).sum() / q ** params.s


# prime powers with p | k and p | s, and composite moduli; s = 6, 12 and 8
# share the primes 2 and 3 with k, s = 5, 10 and 9 add 5 and 3
ORBIT_CASES = [(1, s, q) for s in (2, 3) for q in (2, 3, 4, 5, 9, 6, 12, 15, 30)] + [
    (2, s, q) for s in (6, 5) for q in (2, 4, 8, 16, 3, 9, 27, 5, 25, 7, 49, 6, 12, 15, 30)] + [
    (3, s, q) for s in (12, 10) for q in (2, 4, 8, 3, 9, 27, 5, 25, 7, 6, 12, 15, 30)] + [
    (4, s, q) for s in (8, 9) for q in (2, 4, 8, 16, 3, 9, 5, 6, 12, 15)]


@pytest.mark.parametrize("k, s, q", ORBIT_CASES)
def test_orbit_term_matches_grid_and_direct(k, s, q):
    # the translation-orbit sum against the q^k grid contraction, and against
    # the explicit loop over primitive tuples where it is small
    params = SystemParams.pure(s, k)
    n = [int(v) for v in np.random.default_rng(1000 * k + q).integers(0, 10 ** 4, size=k)]
    t = series_term(q, n, params)
    got = complex(t.value, t.imag)
    want = _grid_term(q, n, params)
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (got, want)
    if q ** k <= 1000:
        d = series_term_direct(q, n, params)
        assert abs(got - complex(d.value, d.imag)) <= 1e-13 * max(1.0, abs(want))
        assert t.n_primitive == d.n_primitive


def test_series_term_k3_runs_past_the_old_grid_cap():
    # q = 211 > 200 has 211^3 > SERIES_GRID_CELLS_MAX numerator cells but
    # 2 x 211^2 table cells (the unit table and the rows with a_3 = 0);
    # 1 + A(p) = p^(k - s) M(p) holds for every s, and at
    # s = k = 3 the count M(p) is a direct O(p^2) loop over (x, y); the
    # target is planted at (3, 7, 12), so M(p) >= 6
    p, n = 211, [22, 202, 2098]
    assert p ** 3 > densities.SERIES_GRID_CELLS_MAX
    assert _table_cells(p, 3) == 2 * 211 ** 2
    t = series_term(p, n, SystemParams.pure(3, 3))
    x, y = np.indices((p, p))
    z = (n[0] - x - y) % p
    M = np.count_nonzero(((x * x + y * y + z * z - n[1]) % p == 0)
                         & ((x ** 3 + y ** 3 + z ** 3 - n[2]) % p == 0))
    assert M > 0 and abs(1.0 + t.value - M) <= 1e-13 * M
    assert abs(t.imag) <= 1e-13 and t.n_primitive == p ** 3 - 1


def test_series_term_refuses_over_budget_before_building(monkeypatch):
    # at q = 243, k = 3 no 3 a_3 is a unit, so every row is a plain DFT row:
    # 243^2 rows of 243 cells and the 243^2 unit table, over the cap,
    # refused before any table
    def refuse(*args, **kw):
        raise AssertionError("table built before the budget check")

    monkeypatch.setattr(np, "bincount", refuse)
    monkeypatch.setattr(np.fft, "ifft", refuse)
    assert _table_cells(243, 3) == 243 ** 2 * 244 > densities.SERIES_GRID_CELLS_MAX
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="q=243, k=3"):
            series_term(243, [59, 369, 2609], SystemParams.pure(12, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_qsum_prices_every_prime_power_before_the_first_term(monkeypatch):
    # at k = 3 the prime powers below 243 fit the table budget and q = 243
    # does not; the refusal comes before any table is built
    def refuse(*args, **kw):
        raise AssertionError("table built before the q-sum was priced")

    monkeypatch.setattr(densities, "_shift_tables", refuse)
    with pytest.raises(BudgetExceededError, match="q=243") as ei:
        singular_series_qsum([59, 369, 2609], SystemParams.pure(12, 3), Q_max=250)
    assert ei.value.work_done == 0


def _legendre(a, p):
    """``(a | p)`` for an odd prime ``p`` not dividing ``a``."""
    return 1 if pow(a % p, (p - 1) // 2, p) == 1 else -1


@pytest.mark.parametrize("s", [5, 6, 7, 8])
@pytest.mark.parametrize("n", [[96, 1934], [100, 2530], [70, 1836], [139, 4643]])
def test_series_term_k2_matches_closed_form(s, n):
    # for an odd prime p not dividing 2 s D, D = s n_2 - n_1^2, the sum of s
    # squares has A(p) = p^(1 - s/2) ((-1)^((s+2)/2) D | p) at even s,
    # A(p) = -p^((1-s)/2) (-1 | p)^((s+1)/2) (-s | p) at odd s, and A(p^2) = 0
    params = SystemParams.pure(s, 2)
    D = s * n[1] - n[0] ** 2
    for p in small_primes(59)[1:]:
        if (2 * s * D) % p == 0:
            continue
        if s % 2 == 0:
            want = p ** (1 - s / 2) * _legendre((-1) ** ((s + 2) // 2) * D, p)
        else:
            want = -p ** ((1 - s) / 2) * _legendre(-1, p) ** ((s + 1) // 2) * _legendre(-s, p)
        t = series_term(p, n, params)
        assert abs(t.value - want) <= 1e-13 and abs(t.imag) <= 1e-13, (p, t, want)
        if p <= 13:
            t = series_term(p * p, n, params)
            assert abs(t.value) <= 1e-13 and abs(t.imag) <= 1e-13, (p, t)


def test_series_term_n_primitive_is_jordan_totient():
    # J_k(q) = #{a mod q : gcd(q, a_1..a_k) = 1}, counted one tuple at a time
    for k, q_max in ((1, 30), (2, 30), (3, 12)):
        params = SystemParams.pure(2 * k, k)
        for q in range(1, q_max + 1):
            jordan = sum(math.gcd(q, *a) == 1 for a in itertools.product(range(q), repeat=k))
            assert series_term(q, [1] * k, params).n_primitive == jordan, (k, q)


def test_series_term_k1_vanishes():
    p21 = SystemParams(2, 1)
    for q in (2, 3, 7, 12):
        assert abs(series_term(q, [9], p21).value) < 1e-12


def test_complete_sum_all_matches_pointwise():
    # every cell, except a seeded subset of the two largest grids
    rng = np.random.default_rng(59)
    sampled = {(79, 3), (81, 3)}
    for q, k in ((1, 3), (2, 3), (7, 2), (16, 3), (27, 3), (79, 3), (81, 3),
                 (5, 1), (5, 4)):
        S = complete_sum_all(q, k)
        assert S.shape == (q,) * k
        if (q, k) in sampled:
            cells = [tuple(a) for a in rng.integers(0, q, size=(400, k))]
        else:
            cells = list(itertools.product(range(q), repeat=k))
        for a in cells:
            assert abs(S[a] - complete_sum(q, a)) < 1e-10, (q, a)


def _read_through_shift(q, k):
    """``S(q, a)`` on every cell read off :func:`_shift_tables`: a cell with
    ``k a_k`` a unit from ``U`` at ``tau_t a``, ``t = -a_(k-1) (k a_k)^-1``,
    times ``e_q(f_a(t))``; any other cell from its plain row of ``D``."""
    U, D, plain = _shift_tables(q, k)
    a = np.indices((q,) * k).reshape(k, -1)
    unit = np.gcd(k * a[-1], q) == 1
    assert np.array_equal(plain, np.flatnonzero(np.gcd(k * np.arange(q), q) != 1))
    assert U.shape == (q,) * (k - 1) and D.shape == (q,) * (k - 2) + (len(plain), q)
    S = np.empty(a.shape[1], dtype=complex)
    au = a[:, unit]
    inv = np.array([pow(int(v), -1, q) for v in k * au[-1] % q], dtype=np.int64)
    t = -au[-2] * inv % q
    tpow = [np.ones_like(t)]
    for _ in range(k):
        tpow.append(tpow[-1] * t % q)
    b = [sum(math.comb(j, l) * au[j - 1] % q * tpow[j - l] for j in range(l, k + 1)) % q
         for l in range(1, k + 1)]
    assert not b[k - 2].any()  # the shift clears a_(k-1)
    f = sum(au[j - 1] * tpow[j] for j in range(1, k + 1)) % q
    S[unit] = np.exp(2j * np.pi * f / q) * U[tuple(b[:k - 2]) + (b[-1],)]
    ap = a[:, ~unit]
    row = np.searchsorted(plain, ap[-1])
    S[~unit] = D[tuple(ap[1:k - 1]) + (row, ap[0])]
    return S.reshape((q,) * k)


def test_shift_reduced_grid_matches_plain_dft():
    # every cell of the grid read off the unit table through tau_t or off
    # its plain row, against the plain DFT grid: k = 3 covers unit and
    # non-unit rows (25, 49), p | k (27) and 2-powers with half the rows
    # plain (64)
    for k, qs in ((2, range(1, 70)), (3, range(1, 82)), (4, range(1, 22))):
        for q in qs:
            S, ref = _read_through_shift(q, k), complete_sum_all(q, k)
            assert S.shape == ref.shape
            assert np.abs(S - ref).max() <= 1e-12 * np.abs(ref).max(), (q, k)


def test_shift_tables_transform_only_representative_rows(monkeypatch):
    # the unit histogram's DFT along both of its axes, then one DFT along r
    # on the rows whose 3 a_3 is not a unit
    calls = []
    ifft = np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft", lambda a, *args, **kw: calls.append(
        (np.shape(a), kw.get("axis"))) or ifft(a, *args, **kw))
    for q, plain in [(p, 1) for p in (5, 7, 11, 13, 31, 79)] + [(27, 27), (49, 7), (9, 9)]:
        calls.clear()
        _shift_tables(q, 3)
        assert calls == [((q, q), 0), ((q, q), 1), ((q, plain, q), -1)], q


def test_shift_tables_refuse_over_budget_before_allocating(monkeypatch):
    # q = 49, k = 3: the 49^2 unit table and 49 x 7 plain rows of length 49;
    # the cap counts them before any table is allocated
    monkeypatch.setattr(densities, "TENSOR_CELLS_MAX", 49 ** 2 * 8 - 1)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="q=49, k=3: 19208 cells"):
            _shift_tables(49, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    monkeypatch.setattr(densities, "TENSOR_CELLS_MAX", 49 ** 2 * 8)
    U, D, plain = _shift_tables(49, 3)
    assert U.shape == (49, 49) and D.shape == (49, 7, 49)


@pytest.mark.parametrize("k, q_max", [(1, 12), (2, 30), (3, 60), (4, 16)])
def test_representative_rows_closed_form(k, q_max):
    # the cells priced are the cells allocated
    for q in range(1, q_max + 1):
        U, D, _ = _shift_tables(q, k)
        assert _table_cells(q, k) == (0 if U is None else U.size) + D.size, (q, k)


def test_shift_tables_count_rows_before_building_them(monkeypatch):
    # q = 499, k = 4 has a 499^3 unit table (2 GB of complex cells); the
    # closed-form count refuses it before anything is built, which the
    # patched np.arange would report
    def refuse(*args, **kw):
        raise AssertionError("tables built before the budget check")

    monkeypatch.setattr(np, "arange", refuse)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="q=499, k=4"):
            _shift_tables(499, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_series_term_imag_diagnostic_small():
    rng = np.random.default_rng(21)
    for _ in range(5):
        x = rng.integers(1, 30, size=6)
        n = [int((x ** j).sum()) for j in (1, 2)]
        for q in (3, 8, 15):
            t = series_term(q, n, P62)
            assert abs(t.imag) <= 1e-8 * q ** 2


def test_multiplicativity_sample():
    n = [96, 1934]
    for q1, q2 in [(2, 3), (3, 4), (4, 5), (2, 9), (5, 6)]:
        a = series_term(q1, n, P62).value
        b = series_term(q2, n, P62).value
        ab = series_term(q1 * q2, n, P62).value
        assert abs(ab - a * b) < 1e-9, (q1, q2)


def test_prime_power_factors():
    for q in range(1, 500):
        f = densities.prime_power_factors(q)
        assert math.prod(pe for _, pe in f) == q
        ps = [p for p, _ in f]
        assert ps == sorted(set(ps))
        for p, pe in f:
            assert p > 1 and all(p % d for d in range(2, p))
            while pe % p == 0:
                pe //= p
            assert pe == 1


def test_qsum_assembles_terms_from_prime_powers(monkeypatch):
    # A(q) for composite q is the product of prime-power terms; the tables
    # are built only at the 70 prime powers up to 256
    n = [139, 4643]
    calls = []
    tables = densities._shift_tables
    monkeypatch.setattr(densities, "_shift_tables",
                        lambda q, *args: calls.append(q) or tables(q, *args))
    est = singular_series_qsum(n, P62, Q_max=256)
    assert len(calls) == 70
    assert sorted(calls) == sorted(p ** e for p in small_primes(256)
                                   for e in range(1, 9) if p ** e <= 256)
    assert [q for q, _ in est.detail["terms"]] == list(range(1, 257))
    for q, value in est.detail["terms"]:
        assert abs(value - series_term(q, n, P62).value) <= 1e-15, q


def test_qsum_tail_fit_leaves_out_rounding_noise():
    # 90 of the 192 terms with q > 64 vanish in exact arithmetic and sit at
    # rounding level; fitted with them the exponent read -3.31 and the tail
    # 1.4e-11, without them the terms decay like q^-2
    est = singular_series_qsum([139, 4643], P62, Q_max=256)
    tail = [abs(v) for q, v in est.detail["terms"] if q > 64]
    assert sum(a <= 1e-12 for a in tail) == 90
    assert abs(est.detail["tail_fit"]["b"] + 2.0) < 0.01
    assert 7e-3 < est.error_estimate < 8.5e-3


def test_qsum_rejects_qmax_below_one():
    for Q_max in (0, -3):
        with pytest.raises(ValidationError):
            singular_series_qsum([96, 1934], P62, Q_max=Q_max)


def test_qsum_k1_exact():
    p21 = SystemParams(2, 1)
    est = singular_series_qsum([9], p21, Q_max=12)
    assert est.value == 1.0 and est.converged


def test_padic_density_edges():
    assert padic_density(3, 0, [3, 3], P62) == 1
    p21 = SystemParams(2, 1)
    for p in (2, 5):
        for h in (1, 2):
            assert padic_density(p, h, [7], p21) == 1


def test_solution_count_mod_hand_value():
    # parity forces sum x = sum x^2 mod 2; M(2) counts the free hyperplane
    assert solution_count_mod(2, [3, 3], P62) == 32
    assert solution_count_mod(2, [1, 2], P62) == 0


def test_solution_count_mod_k3_brute_force():
    import itertools

    p43 = SystemParams.pure(4, 3)
    for m in (2, 3, 4):
        for n in ([1, 1, 1], [5, 9, 17], [0, 2, 0]):
            brute = sum(1 for x in itertools.product(range(m), repeat=4)
                        if all(sum(v ** j for v in x) % m == n[j - 1] % m
                               for j in (1, 2, 3)))
            assert solution_count_mod(m, n, p43) == brute


def test_solution_count_mod_mixed_halves_brute_force():
    # unequal halves (1, -1, 2) and (1, 3): two cache entries, int64 pairing
    p = SystemParams.with_coefficients((1, -1, 2, 1, 3), 2)
    c = np.array(p.coeffs)[:, None]
    for m in (7, 9, 16):
        x = np.indices((m,) * 5).reshape(5, -1)
        keys = [(c * x ** j).sum(axis=0) % m for j in (1, 2)]
        for n in ([1, 4], [5, 2], [0, 0]):
            brute = int(np.count_nonzero((keys[0] == n[0] % m) & (keys[1] == n[1] % m)))
            assert solution_count_mod(m, n, p) == brute


def test_half_cache_is_lru_by_bytes(monkeypatch):
    monkeypatch.setattr(densities, "_HIST_CACHE", densities.OrderedDict())
    n = [96, 1934]
    want = {m: solution_count_mod(m, n, P62) for m in (5, 7, 11)}
    # room for the m=7 and m=11 halves but not for the m=5 one as well
    monkeypatch.setattr(densities, "_HIST_CACHE", densities.OrderedDict())
    monkeypatch.setattr(densities, "_HIST_CACHE_BYTES", 8 * (7 * 7 + 11 * 11))
    key = lambda m: (m, 2, (1, 1, 1))
    assert solution_count_mod(5, n, P62) == want[5]
    assert solution_count_mod(7, n, P62) == want[7]
    assert list(densities._HIST_CACHE) == [key(5), key(7)]
    assert solution_count_mod(5, n, P62) == want[5]      # hit: 5 is now newest
    assert list(densities._HIST_CACHE) == [key(7), key(5)]
    assert solution_count_mod(11, n, P62) == want[11]    # evicts 7, the oldest
    assert list(densities._HIST_CACHE) == [key(5), key(11)]
    assert solution_count_mod(7, n, P62) == want[7]      # rebuilt, evicts 5
    assert list(densities._HIST_CACHE) == [key(11), key(7)]
    # a half larger than the whole bound is returned, never cached, and
    # evicts nothing
    assert solution_count_mod(17, n, P62) == solution_count_mod(17, n, P62)
    assert list(densities._HIST_CACHE) == [key(11), key(7)]


def test_euler_value_independent_of_cache_bound(monkeypatch):
    n = [96, 1934]
    monkeypatch.setattr(densities, "_HIST_CACHE", densities.OrderedDict())
    want = singular_series_euler(n, P62, p_max=32, modulus_cap=32, tol=0.0)
    monkeypatch.setattr(densities, "_HIST_CACHE", densities.OrderedDict())
    monkeypatch.setattr(densities, "_HIST_CACHE_BYTES", 8 * 9 * 9)
    got = singular_series_euler(n, P62, p_max=32, modulus_cap=32, tol=0.0)
    assert got.value == want.value
    assert got.detail["per_prime"] == want.detail["per_prime"]


def test_second_euler_target_reuses_every_half(monkeypatch):
    # 70 moduli below 256: the second target must find every half cached
    monkeypatch.setattr(densities, "_HIST_CACHE", densities.OrderedDict())
    singular_series_euler([139, 4643], P62, p_max=256, modulus_cap=256, tol=0.0)
    assert len(densities._HIST_CACHE) == 70

    def forbidden(*args):
        raise AssertionError("conv_mod ran on a cached modulus")
    monkeypatch.setattr(densities, "conv_mod", forbidden)
    est = singular_series_euler([126, 3962], P62, p_max=256, modulus_cap=256, tol=0.0)
    assert est.value > 0


def _half_brute_force(m, k, coeffs):
    """Half histogram by enumerating every ``x in [0, m)^len(coeffs)``."""
    H = np.zeros((m,) * k, dtype=np.int64)
    for x in itertools.product(range(m), repeat=len(coeffs)):
        H[tuple(sum(c * v ** j for c, v in zip(coeffs, x)) % m
                for j in range(1, k + 1))] += 1
    return H


def _check_cached_halves(monkeypatch):
    # halves of 0 to 3 coefficients, pure and mixed, k = 2 and 3
    monkeypatch.setattr(densities, "_HIST_CACHE", densities.OrderedDict())
    mixed = SystemParams.with_coefficients((1, -1, 2, 1, 3), 2)
    for k in (2, 3):
        for params in (SystemParams.pure(5, k), SystemParams(mixed.s, k, mixed.coeffs),
                       SystemParams.pure(1, k)):
            for m in (5, 8, 9, 16):
                solution_count_mod(m, [1] * k, params)
    assert len(densities._HIST_CACHE) == 2 * 3 * 4 * 2
    safe = densities.INT64_SAFE
    for (m, k, coeffs), H in densities._HIST_CACHE.items():
        assert H.dtype == (object if m ** len(coeffs) >= safe else np.int64)
        assert np.array_equal(H, _half_brute_force(m, k, coeffs)), (m, k, coeffs)


def test_cached_halves_match_brute_force(monkeypatch):
    _check_cached_halves(monkeypatch)


def test_object_route_halves_match_brute_force(monkeypatch):
    # every half of mass m^c >= 64 is cast to Python ints after its seed
    monkeypatch.setattr(densities, "INT64_SAFE", 64)
    _check_cached_halves(monkeypatch)


def test_fresh_half_runs_one_step_per_added_variable(monkeypatch):
    # the first coefficient seeds the slab; a half of one coefficient (s <= 2)
    # or none runs no step
    monkeypatch.setattr(densities, "_HIST_CACHE", densities.OrderedDict())
    calls = []
    conv = densities.conv_mod
    monkeypatch.setattr(densities, "conv_mod", lambda *a: calls.append(1) or conv(*a))
    for coeffs in ((), (1,), (1, 1), (1, -1), (1, -1, 2), (2, 1, 1, 3)):
        calls.clear()
        H = densities._half_mod(11, 2, coeffs)
        assert len(calls) == max(0, len(coeffs) - 1), coeffs
        assert np.array_equal(H, _half_brute_force(11, 2, coeffs)), coeffs


def test_join_reuses_an_equal_half_and_holds_two_grids(monkeypatch):
    # with the cache bound below one grid nothing is cached: the second half
    # of pure(6, 3) is the first, so one half is built, and the join holds
    # that half and its flipped, rolled copy, not the index gather and the
    # product of the halves as well (4 grids)
    m, k, n = 32, 3, [59, 369, 2609]
    grid = 8 * m ** k
    H = _half_brute_force(m, k, (1, 1, 1))
    want = int((H * H[np.ix_(*[(nj - np.arange(m)) % m for nj in n])]).sum())
    monkeypatch.setattr(densities, "_HIST_CACHE", densities.OrderedDict())
    monkeypatch.setattr(densities, "_HIST_CACHE_BYTES", grid - 1)
    built = []
    expand = densities.expand_slab
    monkeypatch.setattr(densities, "expand_slab", lambda *a: built.append(a[1]) or expand(*a))
    tracemalloc.start()
    try:
        got = solution_count_mod(m, n, SystemParams.pure(6, k))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want and built == [m] and not densities._HIST_CACHE
    assert peak < 2.25 * grid


@pytest.mark.parametrize("m", [2, 4, 6, 8, 9])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_half_histogram_is_translation_invariant(m, k):
    # x_i -> x_i + t moves the key v of a half with coefficient sum C to
    # (T_t v)_j = sum_{l <= j} C(j,l) t^(j-l) v_l, v_0 = C, so H(T_t v) = H(v);
    # (T_t v)_1 = v_1 + C t reaches v_1 mod gcd(C, m) and nothing else
    v = np.indices((m,) * k).reshape(k, -1)
    for coeffs in ((1,), (2,), (1, 1), (1, -1), (1, 2), (2, 2), (1, 1, 1), (1, -1, 3)):
        H = _half_brute_force(m, k, coeffs)
        C = sum(coeffs)
        u = [np.full(v.shape[1], C)] + list(v)
        for t in range(m):
            Tv = tuple(sum(math.comb(j, l) * t ** (j - l) * u[l] for l in range(j + 1)) % m
                       for j in range(1, k + 1))
            assert np.array_equal(H[Tv], H.reshape(-1)), (coeffs, t)
        g = math.gcd(C, m)
        assert all(min((v1 + C * t) % m for t in range(m)) == v1 % g for v1 in range(m))


def test_padic_density_is_exact_rational():
    v = padic_density(2, 2, [3, 3], P62)
    assert isinstance(v, Fraction)
    assert v == Fraction(solution_count_mod(4, [3, 3], P62), 2 ** (2 * 4))


def test_euler_identity_small():
    # sum of modulus terms at prime powers equals the counting density
    for p in (2, 3):
        for h in (1, 2, 3):
            lhs = sum(series_term(p ** hh, [3, 3], P62).value
                      for hh in range(0, h + 1))
            rhs = float(padic_density(p, h, [3, 3], P62))
            assert abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize("cap,counted", [(100, 2), (1000, 3)])
def test_euler_refusal_reports_the_moduli_counted(monkeypatch, cap, counted):
    # m^(k+1) > cap first at m = 8 (cap 100) or m = 16 (cap 1000), after
    # m = 2, 4 (and 8) were counted
    monkeypatch.setattr(densities, "RESIDUE_CELLS_MAX", cap)
    with pytest.raises(BudgetExceededError, match=f"modulus {2 ** (counted + 1)},") as ei:
        singular_series_euler([139, 4643], P62, tol=0.0)
    assert ei.value.work_done == counted


def test_euler_vanishing_prime():
    est = singular_series_euler([1, 2], P62)
    assert est.value == 0.0 and est.converged
    assert est.detail["vanishing_prime"] == 2


def test_euler_k1_trivial():
    p21 = SystemParams(2, 1)
    est = singular_series_euler([9], p21, p_max=7)
    assert est.value == 1.0 and est.converged


def test_cross_method_one_target():
    x = np.array([4, 9, 15, 22, 31, 38])
    n = [int((x ** j).sum()) for j in (1, 2)]
    qs = singular_series_qsum(n, P62, Q_max=64)
    eu = singular_series_euler(n, P62, p_max=64, modulus_cap=64)
    assert abs(qs.value - eu.value) < 5e-3 * max(abs(qs.value), abs(eu.value))


def test_qsum_partial_sums_settle():
    # numerical Cauchy check: late partial sums fluctuate below the tail bound
    x = np.array([3, 8, 14, 20, 27, 35])
    n = [int((x ** j).sum()) for j in (1, 2)]
    est = singular_series_qsum(n, P62, Q_max=80)
    partials = np.cumsum([v for _, v in est.detail["terms"]])
    late = partials[40:]
    fluctuation = max(late) - min(late)
    assert fluctuation <= max(4 * est.error_estimate, 5e-3)


def test_integral_k1_closed_forms():
    p21 = SystemParams(2, 1)
    est = singular_integral_quadrature([50], p21)
    assert abs(est.value - 1.0) < 5e-3                     # peak of the hat
    assert est.imag_diagnostic < 1e-9


def test_integral_rejects_non_pure_system():
    # the quadrature integrates the pure system's I(beta; 1)^s, whatever the
    # coefficients, so a sign-split system would get the pure value
    with pytest.raises(ValidationError, match="pure system"):
        singular_integral_quadrature([10, 300], SystemParams.mixed_sign(3, 3, 2))


def test_integral_halfspace_symmetry():
    # conjugation symmetry: doubling the real part over a beta_1 half-space
    # reproduces the full integral
    mu = np.array([1.0, 0.25])
    s = 6
    B = 12.0
    panels = 30
    nodes, weights = gl_panels(-B, B, panels)
    gamma, gamma_w = gl_panels(0.0, 1.0, int(4 * (2 * B + 1)))
    Ig = phase_tensor(gamma, gamma_w, [nodes, nodes])
    factors = [np.exp(-2j * np.pi * m * nodes) * weights for m in mu]
    integrand = Ig ** s * np.multiply.outer(*factors)
    total = integrand.sum()
    half = integrand[nodes > 0].sum()
    assert abs(total.real - 2 * half.real) < 1e-6 * max(1.0, abs(total.real))
    assert abs(total.imag) < 1e-9


def test_integral_k4_default_box_over_grid_cap(monkeypatch):
    # the fine pass, 80 folded beta_1 nodes and 96 on each other axis, needs
    # 80 x 96^3 (about 7.1e7) cells, past the cell cap; its coarse pass,
    # 48 x 56^3 cells, would fit, so both grids are checked before either is
    # built and no tensor is evaluated
    def evaluate_anyway(*args):
        raise AssertionError("a tensor was built although the fine grid is over the cap")

    monkeypatch.setattr(expsums, "phase_tensor", evaluate_anyway)
    with pytest.raises(BudgetExceededError, match=r"\[80, 96, 96, 96\]"):
        singular_integral_quadrature([40, 200, 1000, 5000], SystemParams.pure(20, 4))


def _fine_axes(mu, B, box=1.0):
    # the folded fine grid of densities._integral_once: 1.5 B (1 + |mu_j|)
    # panels rounded up to a multiple of 4, cut down to |beta_j| <= box B
    axes = []
    for m in mu:
        panels = 4 * math.ceil(max(4, math.ceil(1.5 * B * (1.0 + abs(m)))) / 4)
        axes.append(gl_panels(-box * B, box * B, round(box * panels)))
    v1, w1 = axes[0]
    axes[0] = (v1[v1 > 0], 2.0 * w1[v1 > 0])
    return axes


_X9 = [round(9 * i / 12) for i in range(1, 13)]
_X16 = [1, 3, 4, 6, 7, 9, 10, 11, 13, 14, 15, 16]
_GAMMA_CASES = [
    ([50], 2, 20.0),                                       # k = 1
    ([50], 2, 60.0),
    ([139, 4643], 6, 48.0),                                # seed-1 benchmark targets
    ([126, 3962], 6, 48.0),
    ([sum(v ** j for v in _X9) for j in (1, 2, 3)], 12, 6.0),  # k = 3, planted X = 9
    ([sum(v ** j for v in _X16) for j in (1, 2, 3)], 12, 6.0),  # k = 3, generic X = 16
]


@pytest.mark.parametrize("n,s,B", _GAMMA_CASES)
def test_gamma_rule_matches_doubled_gamma_grid(n, s, B):
    # the graded rule against an independent uniform rule of twice
    # B k(k+1)/2 panels (two per cycle of the largest local frequency), on
    # the fine beta grid
    _, mu = target_scale(n)
    k = len(mu)
    axes = _fine_axes(mu, B)
    value = tensor_integral(*densities.gamma_rule(k, B), axes, s, mu).real
    doubled = gl_panels(0.0, 1.0, 2 * math.ceil(B * k * (k + 1) / 2))
    ref = tensor_integral(*doubled, axes, s, mu).real
    assert abs(value - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("k,B", [(1, 20.0), (1, 2.5), (2, 48.0), (2, 2.5), (3, 6.0),
                                 (4, 6.0), (5, 1.3)])
def test_gamma_rule_panels_span_at_most_one_cycle(k, B):
    # Phi(g) = B (g + ... + g^k) bounds the phase built up on [0, g] for
    # every |beta_j| <= B; the panel edges are its level sets (768, 144 and
    # 192 nodes at k = 2, 3, 4 where one panel per cycle of B k(k+1)/2 took
    # 1152, 288 and 480)
    nodes, weights = densities.gamma_rule(k, B)
    panels = max(8, math.ceil(B * k))
    assert len(nodes) == len(weights) == 8 * panels
    edges = np.concatenate([[0.0], np.cumsum(weights.reshape(panels, 8).sum(axis=1))])
    phi = B * sum(edges ** j for j in range(1, k + 1))
    assert np.all(np.diff(phi) <= 1 + 1e-12)
    assert np.all(np.diff(nodes) > 0) and 0 < nodes[0] and nodes[-1] < 1
    assert abs(edges[-1] - 1.0) <= 1e-14


@pytest.mark.parametrize("B", [2.5, 20.0, 60.0])
def test_gamma_rule_k1_nodes_are_the_uniform_rule(B):
    nodes, weights = densities.gamma_rule(1, B)
    ref_nodes, ref_weights = gl_panels(0.0, 1.0, max(8, math.ceil(B)))
    assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)


def test_integral_fine_pass_holds_grid_plus_one_chunk():
    # the k = 2 fine pass at the seed-1 benchmark target: a 576 x 736 grid
    # over 768 gamma nodes; the points are taken a chunk at a time, so the
    # peak is the grid, one chunk and under 1 MiB of rules, axes and weight
    # rows (the unchunked evaluator held 768 x (576 + 736) phase cells more)
    _, mu = target_scale([139, 4643])
    tracemalloc.start()
    try:
        _, nodes = densities._integral_once(mu, 6, 48.0, 1.5, half_box=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert nodes == [768, 576, 736]
    assert peak <= 16 * (576 * 736 + expsums.TENSOR_CHUNK_CELLS) + (1 << 20)


@pytest.mark.parametrize("n,s,B", [_GAMMA_CASES[0], _GAMMA_CASES[2], _GAMMA_CASES[4]])
def test_integral_half_box_is_a_slice_of_the_fine_grid(n, s, B):
    # the half box read off the fine grid's T^s against a separate pass over
    # |beta_j| <= B/2 with the same gamma rule and panel density
    _, mu = target_scale(n)
    k = len(mu)
    (fine, half), nodes = densities._integral_once(mu, s, B, 1.5, half_box=True)
    ref = tensor_integral(*densities.gamma_rule(k, B), _fine_axes(mu, B, 0.5), s, mu).real
    assert abs(half - ref) <= 1e-12 * abs(ref)
    assert nodes == [len(densities.gamma_rule(k, B)[0])] + [len(v) for v, _ in _fine_axes(mu, B)]


def test_integral_detail_records_both_grids():
    est = singular_integral_quadrature([139, 4643], P62)
    # mu = (1, 0.24); gamma: 48 * 2 panels; beta: B (1 + |mu_j|) panels, 1.5
    # times as many rounded up to a multiple of 4 on the fine grid, beta_1
    # folded to its positive half
    assert est.detail["grid"] == {"gamma_nodes": 768,
                                  "coarse_beta_nodes": [384, 480],
                                  "fine_beta_nodes": [576, 736]}


def test_integral_planted_positive_and_converged():
    x = np.array([4, 9, 15, 22, 31, 38])
    n = [int((x ** j).sum()) for j in (1, 2)]
    est = singular_integral_quadrature(n, P62)
    assert est.converged and est.value > 0
    assert est.imag_diagnostic < 1e-9


def test_mc_oracle_geometry_k1():
    p21 = SystemParams(2, 1)
    est = mc_volume_oracle([40], p21, eta=0.05, samples=400_000)
    assert abs(est.value - 1.0) <= 0.05                    # hat density peak


def test_mc_oracle_empty_body():
    # mu outside the reachable body: no hits, one-sided bound
    est = mc_volume_oracle([10, 1], P62, eta=0.01, samples=50_000)
    assert est.value == 0.0 and est.error_estimate > 0
    assert not est.converged


def _mc_hits_all_powers(n, params, eta, samples, seed, stream):
    """Hit count of plain cube rows at width ``eta``, every power on every row."""
    from hklab.streams import substream

    _, mu = target_scale(n)
    rng = substream(seed, stream)
    hits = done = 0
    while done < samples:
        m = min(500_000, samples - done)
        u = rng.random((m, params.s))
        ok = np.ones(m, dtype=bool)
        p = u.copy()
        for j in range(params.k):
            if j > 0:
                p = p * u
            ok &= np.abs(p.sum(axis=1) - mu[j]) <= eta
        hits += int(ok.sum())
        done += m
    return hits


def _z(a, b, samples):
    """z-score of the gap between two independent Binomial(samples, p) counts."""
    p = (a + b) / (2 * samples)
    return (a - b) / math.sqrt(2 * samples * p * (1 - p))


@pytest.mark.parametrize("n,params,eta,samples", [
    ([96, 1934], P62, 0.05, 1_000_000),
    ([20, 90, 460], SystemParams.pure(6, 3), 0.05, 1_000_000),
    # hi = 1.5: a ninth of the proposal simplex lies outside the cube
    ([10, 50], SystemParams.pure(3, 2), 0.5, 200_000)])
def test_mc_oracle_hits_match_cube_draws(n, params, eta, samples):
    # the oracle draws only the rows below mu_1 + eta; its hit counts are the
    # same binomials as those of plain cube rows, for both widths
    est = mc_volume_oracle(n, params, eta=eta, samples=samples, seed=3)
    for hits, e, stream in [(est.detail["hits"], eta, 0),
                            (est.detail["half_eta"]["hits"], eta / 2, 1)]:
        ref = _mc_hits_all_powers(n, params, e, samples, 3, stream)
        assert ref > 50
        assert abs(_z(hits, ref, samples)) <= 4, (hits, ref)


def test_irwin_hall_cdf_closed_forms():
    xs = [Fraction(j, 8) for j in range(-4, 60)] + [Fraction(1.03), Fraction(0.97)]
    for x in xs:
        # s = 2: the triangle distribution
        want = (0 if x <= 0 else x ** 2 / 2 if x <= 1
                else 1 - (2 - x) ** 2 / 2 if x <= 2 else 1)
        assert _irwin_hall_cdf(2, x) == want, x
    for s in range(1, 9):
        for x in xs:
            if 0 <= x <= 1:
                assert _irwin_hall_cdf(s, x) == x ** s / math.factorial(s)
            # F_s(x) = (x F_(s-1)(x) + (s - x) F_(s-1)(x - 1)) / s
            assert _irwin_hall_cdf(s, x) == (x * _irwin_hall_cdf(s - 1, x) + (s - x)
                                             * _irwin_hall_cdf(s - 1, x - 1)) / s
    assert [_irwin_hall_cdf(0, x) for x in (-1, 0, 1)] == [0, 1, 1]  # F_0(x) = [x >= 0]
    assert _irwin_hall_cdf(6, 1.03) == _irwin_hall_cdf(6, Fraction(1.03))


@pytest.mark.parametrize("s,eta,samples", [(2, 0.05, 500_000), (6, 0.03, 10 ** 8),
                                           (3, 0.5, 1_000_000), (12, 0.2, 10 ** 10)])
def test_mc_oracle_first_slab_rate_is_irwin_hall(s, eta, samples):
    # at k = 1 every hit is a first-slab hit: Binomial(samples, F_s(hi) - F_s(lo))
    est = mc_volume_oracle([50], SystemParams(s, 1), eta=eta, samples=samples, seed=4)
    p = float(_irwin_hall_cdf(s, 1 + eta) - _irwin_hall_cdf(s, 1 - eta))
    hits = est.detail["hits"]
    assert abs(hits - samples * p) <= 4 * math.sqrt(samples * p * (1 - p)), (hits, samples * p)


def test_mc_oracle_worker_error_reaches_caller(monkeypatch):
    # the eta/2 run draws stream 1 on the worker thread
    from hklab.streams import substream

    def failing(seed, index=0):
        if index == 1:
            raise RuntimeError("stream 1 failed")
        return substream(seed, index)

    threads = threading.active_count()
    monkeypatch.setattr(densities, "substream", failing)
    with pytest.raises(RuntimeError, match="stream 1 failed"):
        mc_volume_oracle([96, 1934], P62, samples=1_000)
    assert threading.active_count() == threads


@pytest.mark.parametrize("kwargs", [{"samples": 0}, {"samples": -5}, {"eta": 0.0},
                                    {"eta": -0.1}, {"eta": 1.0}, {"eta": 2.5}])
def test_mc_oracle_rejects_bad_inputs(kwargs):
    with pytest.raises(ValidationError):
        mc_volume_oracle([96, 1934], P62, **kwargs)


def test_mc_oracle_reproducible():
    a = mc_volume_oracle([96, 1934], P62, eta=0.05, samples=200_000, seed=5)
    b = mc_volume_oracle([96, 1934], P62, eta=0.05, samples=200_000, seed=5)
    assert a.value == b.value and a.detail["hits"] == b.detail["hits"]


def test_mc_oracle_independent_of_chunk_size(monkeypatch):
    # the kept rows are the first accepted proposals of the stream, however
    # many are drawn at once; a ninth are rejected at hi = 1.5
    args = ([10, 50], SystemParams.pure(3, 2))
    ref = mc_volume_oracle(*args, eta=0.5, samples=4_000, seed=5)
    monkeypatch.setattr(densities, "MC_CHUNK_ROWS", 7)
    assert mc_volume_oracle(*args, eta=0.5, samples=4_000, seed=5).detail == ref.detail


def test_mc_extrapolation_tracks_quadrature():
    # the two-width extrapolation should land at least as close to the
    # quadrature value as the raw wide-slab estimate does
    x = np.array([5, 11, 19, 26, 34, 41])
    n = [int((x ** j).sum()) for j in (1, 2)]
    quad = singular_integral_quadrature(n, P62)
    mc = mc_volume_oracle(n, P62, eta=0.06, samples=4_000_000, seed=8)
    ex = mc.detail["extrapolated"]
    raw_gap = abs(mc.value - quad.value)
    ex_gap = abs(ex["value"] - quad.value)
    assert ex_gap <= raw_gap + ex["half_width"]


def test_main_term_zero_series():
    series = DensityEstimate(0.0, "EulerProduct{p_max=13}", 0.0, True)
    integral = DensityEstimate(0.7, "BoxQuadrature{B=48}", 0.01, True)
    mt = main_term([1, 2], P62, series, integral)
    assert mt["value"] == 0.0


def test_main_term_k1_ratio():
    p21 = SystemParams(2, 1)
    m = 60
    series = singular_series_qsum([m], p21, Q_max=10)
    integral = singular_integral_quadrature([m], p21)
    mt = main_term([m], p21, series, integral)
    exact = m + 1                                          # pairs summing to m
    assert abs(mt["value"] / exact - 1.0) < 0.05
    assert mt["scale_convention"] == "raw"


def test_main_term_requires_convergence():
    bad = DensityEstimate(1.0, "TruncatedSum{Q_max=5}", math.inf, False)
    good = DensityEstimate(0.5, "BoxQuadrature{B=48}", 0.01, True)
    with pytest.raises(NonConvergedError):
        main_term([3, 3], P62, bad, good)
