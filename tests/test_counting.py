import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hklab import counting
from hklab.core import SystemParams, power_sum_vector
from hklab.counting import (
    count_mitm,
    count_naive,
    default_box,
    mvt_scaling_experiment,
    powersum_histogram,
    vinogradov_count,
)
from hklab.errors import BudgetExceededError, MemoryBudgetError, ValidationError
from hklab.local import holder_necessary


def test_count_examples():
    p = SystemParams.pure(3, 2)
    assert count_naive(p, (3, 3)).count == 1          # only (1,1,1)
    assert count_mitm(p, (3, 3)).count == 1
    assert count_naive(p, (0, 0)).count == 1          # all-zero tuple
    assert count_mitm(SystemParams.pure(5, 3), (0, 0, 0)).count == 1
    p2 = SystemParams.pure(2, 2)
    assert count_naive(p2, (2, 2)).count == 1         # only (1,1)


def test_count_infeasible_under_power_means():
    p = SystemParams.pure(3, 2)
    ok, _ = holder_necessary([1, 4], 3)
    assert not ok
    assert count_mitm(p, (1, 4)).count == 0
    assert count_naive(p, (1, 4)).count == 0


def test_count_mixed_sign_example():
    pm = SystemParams.mixed_sign(1, 1, 2)
    assert count_naive(pm, (1, 3), box=5, x_min=0).count == 1  # (2,1)
    assert count_mitm(pm, (1, 3), box=5, x_min=0).count == 1


def test_mixed_sign_needs_explicit_box():
    pm = SystemParams.mixed_sign(2, 1, 2)
    with pytest.raises(ValidationError):
        count_naive(pm, (1, 3))


def test_count_pair_one_dim_style():
    # s=2 split: ordered pairs summing to 5 with squares matching
    p = SystemParams.pure(2, 2)
    n = (5, 13)  # (2,3) and (3,2)
    assert count_mitm(p, n).count == 2


def test_cross_check_random_instances():
    random.seed(101)
    for _ in range(30):
        s = random.randint(2, 6)
        k = random.randint(2, 3)
        B = random.randint(2, 8)
        p = SystemParams.pure(s, k)
        if random.random() < 0.7:
            x = [random.randint(0, B) for _ in range(s)]
            n = power_sum_vector(x, p)
        else:
            n = [random.randint(0, 3 * B ** j) for j in range(1, k + 1)]
        a = count_naive(p, n, box=B).count
        b = count_mitm(p, n, box=B).count
        assert a == b, (s, k, B, n, a, b)


def test_ordered_count_lower_bound_from_witness():
    # a witness with all-distinct entries contributes s! ordered tuples
    p = SystemParams.pure(4, 2)
    x = [1, 3, 5, 8]
    n = power_sum_vector(x, p)
    assert count_mitm(p, n).count >= math.factorial(4)


def test_default_box_is_sound():
    p = SystemParams.pure(4, 3)
    n = power_sum_vector([3, 0, 7, 2], p)
    B = default_box(p, n)
    assert B >= 7
    assert count_naive(p, n, box=B).count == count_naive(p, n, box=B + 5).count


def test_budget_exhaustion():
    p = SystemParams.pure(6, 2)
    with pytest.raises(BudgetExceededError) as ei:
        count_naive(p, (60, 1000), budget=50)
    assert ei.value.work_done > 0


def test_mitm_budget_stops_before_enumeration(monkeypatch):
    def enumerate_anyway(*args, **kwargs):
        raise AssertionError("enumeration ran although the budget was exceeded")

    monkeypatch.setattr(counting, "canonical_powersum_run", enumerate_anyway)
    with pytest.raises(BudgetExceededError) as ei:
        count_mitm(SystemParams.pure(8, 2), [200, 6000], budget=10)
    assert ei.value.work_done == 0


def test_mitm_budget_binds_bigint_route():
    p = SystemParams.pure(4, 12)  # 4 * 40^12 passes int64: exact-integer join
    n = power_sum_vector([1, 2, 3, 4], p)
    with pytest.raises(BudgetExceededError):
        count_mitm(p, n, box=40, budget=1)
    res = count_mitm(p, n, box=40, budget=2 * math.comb(42, 2))
    assert res.method == "mitm-bigint" and res.count == 24


def test_mitm_bigint_route_negates_mirrored_half(monkeypatch):
    # sign-split halves on the exact-integer route match the int64 route
    pm = SystemParams.mixed_sign(3, 3, 2)
    targets = [[0, 0], [9, 77], [-7, -41], [3, 5]]
    fast = [count_mitm(pm, n, box=12).count for n in targets]
    assert count_mitm(pm, [0, 0], box=12).method == "mitm"
    monkeypatch.setattr(counting, "INT64_SAFE", 500)  # 6 * 12^2 = 864 passes it
    slow = [count_mitm(pm, n, box=12) for n in targets]
    assert all(r.method == "mitm-bigint" for r in slow)
    assert [r.count for r in slow] == fast
    assert fast[0] == vinogradov_count(3, 2, 12)


def test_mitm_negated_half_nonzero_target():
    # the pin is count_naive's, which takes 3.0e8 steps here (default budget 5e7)
    pm = SystemParams.mixed_sign(3, 3, 2)
    assert count_mitm(pm, [10, 300], box=30).count == 84_507


def test_vinogradov_examples():
    assert vinogradov_count(1, 2, 9) == 9             # diagonal only
    assert vinogradov_count(1, 4, 17) == 17
    assert vinogradov_count(2, 1, 4) == 44            # brute-forced pair count
    assert vinogradov_count(2, 3, 6) == 2 * 36 - 6    # permutation diagonal


def test_vinogradov_brute_force_oracle():
    # independent oracle: direct enumeration over [1,X]^{2t}
    import itertools

    t, k, X = 2, 2, 4
    count = 0
    for tup in itertools.product(range(1, X + 1), repeat=2 * t):
        x, y = tup[:t], tup[t:]
        if all(sum(v ** j for v in x) == sum(v ** j for v in y)
               for j in range(1, k + 1)):
            count += 1
    assert vinogradov_count(t, k, X) == count


def test_vinogradov_diagonal_lower_bound_and_mass():
    t, k, X = 3, 2, 12
    J = vinogradov_count(t, k, X)
    assert J >= X ** t
    _, counts = powersum_histogram(t, k, X, x_min=1)
    assert sum(int(c) for c in counts) == X ** t      # histogram mass


def test_scaling_experiment():
    table = mvt_scaling_experiment(1, 3, [8, 16, 32, 64])
    assert abs(table["slope"] - 1.0) <= 0.01
    with pytest.raises(ValidationError):
        mvt_scaling_experiment(2, 2, [8, 16])


def test_scaling_experiment_diagonal_regime():
    table = mvt_scaling_experiment(2, 2, [8, 16, 32, 64])
    assert 1.9 <= table["slope"] <= 2.4  # diagonal-dominated


def test_mixed_sign_matches_brute_force():
    import itertools

    random.seed(77)
    for _ in range(15):
        l = random.randint(1, 3)
        m = random.randint(1, 3)
        k = random.randint(2, 3)
        B = random.randint(2, 5)
        pm = SystemParams.mixed_sign(l, m, k)
        x = [random.randint(1, B) for _ in range(l + m)]
        n = power_sum_vector(x, pm)
        brute = sum(1 for t in itertools.product(range(1, B + 1), repeat=l + m)
                    if power_sum_vector(t, pm) == n)
        assert count_naive(pm, n, box=B).count == brute
        assert count_mitm(pm, n, box=B).count == brute


def test_general_coefficients_match_brute_force():
    import itertools

    random.seed(78)
    for _ in range(10):
        s = random.randint(2, 4)
        k = random.randint(2, 3)
        B = random.randint(2, 4)
        coeffs = [random.choice([-2, -1, 1, 2, 3]) for _ in range(s)]
        pc = SystemParams.with_coefficients(coeffs, k)
        x = [random.randint(1, B) for _ in range(s)]
        n = power_sum_vector(x, pc)
        brute = sum(1 for t in itertools.product(range(1, B + 1), repeat=s)
                    if power_sum_vector(t, pc) == n)
        assert count_naive(pc, n, box=B).count == brute
        assert count_mitm(pc, n, box=B).count == brute


def test_counts_match_between_int64_and_bigint_paths(monkeypatch):
    p = SystemParams.pure(4, 2)
    n = power_sum_vector([5, 11, 2, 7], p)
    fast = count_mitm(p, n)
    monkeypatch.setattr(counting, "INT64_SAFE", 100)  # 4 * 13^2 = 676 passes it
    slow = count_mitm(p, n)
    assert fast.method == "mitm" and slow.method == "mitm-bigint"
    assert fast.count == slow.count == count_naive(p, n).count


def test_wide_radix_keys_join_in_python_integers(monkeypatch):
    # every key fits int64 (4 * 12^6 < 2^62), but the radix product of the
    # six key columns does not: one bounded enumeration still serves the count
    p = SystemParams.pure(4, 6)
    n = [23, 203, 2099, 23219, 265883, 3104363]
    assert n == power_sum_vector([1, 3, 7, 12], p) and default_box(p, n) == 12
    res = count_mitm(p, n)
    assert res.method == "mitm-bigint"
    assert res.count == count_naive(p, n).count == 24
    calls = []
    enumerate_run = counting.canonical_powersum_run

    def doubled(*args, **kwargs):
        calls.append(kwargs)
        keys, mult = enumerate_run(*args, **kwargs)
        return keys, 2 * mult

    # both mirrored halves read the one enumeration: doubling its
    # multiplicities quadruples the count
    monkeypatch.setattr(counting, "canonical_powersum_run", doubled)
    assert count_mitm(p, n).count == 4 * 24
    assert len(calls) == 1 and calls[0]["key_min"] is not None


@pytest.mark.parametrize("t,k,X", [(3, 2, 12), (2, 6, 12)])
def test_powersum_histogram_returns_sorted_encodings(t, k, X):
    # (2, 6, 12): the six key columns' radix product passes int64
    keys, counts = powersum_histogram(t, k, X, x_min=0)
    assert isinstance(keys, np.ndarray) and keys.shape == counts.shape
    assert all(a < b for a, b in zip(keys[:-1], keys[1:]))
    assert sum(int(c) for c in counts) == (X + 1) ** t
    assert vinogradov_count(t, k, X, x_min=0) == sum(int(c) ** 2 for c in counts)


def _brute_count(coeffs, k, n, lo, hi):
    import itertools

    return sum(1 for t in itertools.product(range(lo, hi + 1), repeat=len(coeffs))
               if all(sum(c * v ** j for c, v in zip(coeffs, t)) == nj
                      for j, nj in enumerate(n, start=1)))


@pytest.mark.parametrize("x_min", [-2, -1])
def test_naive_matches_brute_force_with_negative_values(x_min):
    # even powers of a range containing 0 reach down to 0, not to x_min^j
    random.seed(79)
    for _ in range(12):
        s = random.randint(2, 4)
        k = random.randint(2, 3)
        B = random.randint(x_min + 1, 3)
        coeffs = [random.choice([-2, -1, 1, 2]) for _ in range(s)]
        pc = SystemParams.with_coefficients(coeffs, k)
        x = [random.randint(x_min, B) for _ in range(s)]
        n = power_sum_vector(x, pc)
        assert count_naive(pc, n, box=B, x_min=x_min).count == \
            _brute_count(coeffs, k, n, x_min, B)


_SYSTEMS = st.one_of(
    st.integers(1, 5).map(lambda s: (1,) * s),
    st.tuples(st.integers(1, 3), st.integers(1, 3)).map(
        lambda lm: (1,) * lm[0] + (-1,) * lm[1]),
    st.lists(st.sampled_from([-2, -1, 1, 2, 3]), min_size=1, max_size=5).map(tuple),
)


@settings(max_examples=150, deadline=None)
@given(coeffs=_SYSTEMS, k=st.integers(1, 3), x_min=st.integers(-2, 1),
       width=st.integers(0, 4), data=st.data())
def test_mitm_matches_naive_property(coeffs, k, x_min, width, data):
    box = x_min + width
    x = data.draw(st.lists(st.integers(x_min, box), min_size=len(coeffs),
                           max_size=len(coeffs)))
    planted = [sum(c * v ** j for c, v in zip(coeffs, x)) for j in range(1, k + 1)]
    # planted targets, nearby ones, and ones far outside the reachable range
    shift = data.draw(st.sampled_from([0, 1, -1, 10 ** 6, -10 ** 30]))
    n = [v + (shift if j == 0 else 0) for j, v in enumerate(planted)]
    p = SystemParams.with_coefficients(coeffs, k)
    assert count_mitm(p, n, box=box, x_min=x_min).count == \
        count_naive(p, n, box=box, x_min=x_min).count


@pytest.mark.parametrize("X,count", [(9, 117_754_560), (16, 2_787_737_040)])
def test_theorem_regime_counts(X, count):
    # s = k(k+1) = 12, k = 3 on the planted tuple round(X i / 12), i = 1..12
    p = SystemParams.pure(12, 3)
    n = power_sum_vector([round(X * i / 12) for i in range(1, 13)], p)
    assert count_mitm(p, n).count == count


@pytest.mark.parametrize("params,n,box,x_min", [
    (SystemParams.pure(8, 2), [120, 2000], None, None),
    (SystemParams.mixed_sign(3, 3, 2), [0, 0], 10, 1),
    # 4 * 40^12 passes int64: the one C(42, 2) enumeration is in Python integers
    (SystemParams.pure(4, 12), power_sum_vector([1, 2, 3, 4], SystemParams.pure(4, 12)),
     40, None),
])
def test_mitm_enumerates_mirrored_half_once(monkeypatch, params, n, box, x_min):
    expected = count_mitm(params, n, box=box, x_min=x_min).count
    calls = []
    enumerate_run = counting.canonical_powersum_run

    def counted(*args, **kwargs):
        calls.append(args)
        return enumerate_run(*args, **kwargs)

    monkeypatch.setattr(counting, "canonical_powersum_run", counted)
    assert count_mitm(params, n, box=box, x_min=x_min).count == expected
    assert len(calls) == 1


# mirrored halves: sign 1 (pure, even s) and sign -1 (mixed_sign), at zero
# and at nonzero planted targets
MIRRORED = [
    (SystemParams.pure(4, 2), [14, 62], None, None),             # (1, 3, 4, 6)
    (SystemParams.pure(4, 2), [0, 0], 5, 0),
    (SystemParams.pure(6, 3), [20, 92, 512], None, None),       # (1, 2, 2, 3, 5, 7)
    (SystemParams.mixed_sign(2, 2, 2), [0, 0], 8, 1),
    (SystemParams.mixed_sign(2, 2, 2), [8, 56], 8, 1),           # (5, 6 | 1, 2)
    (SystemParams.mixed_sign(3, 3, 2), [0, 0], 7, 1),
    (SystemParams.mixed_sign(3, 3, 2), [6, 52], 7, 1),           # (2, 5, 7 | 1, 3, 4)
    (SystemParams.mixed_sign(2, 2, 3), [7, 47, 271], 7, 1),      # (4, 6 | 1, 2)
]


@pytest.mark.parametrize("bigint", [False, True])
@pytest.mark.parametrize("params,n,box,x_min", MIRRORED)
def test_mirrored_join_sorts_once_and_matches_naive(monkeypatch, params, n, box, x_min,
                                                     bigint):
    # the image n - sign K of the one enumeration is read off K's sorted
    # keys, so the join sorts once; with INT64_SAFE lowered every key,
    # encoding and multiplicity is a Python integer (the mitm-bigint route)
    want = count_naive(params, n, box=box, x_min=x_min).count
    assert want > 0
    if bigint:
        monkeypatch.setattr(counting, "INT64_SAFE", 4)
    sorts = []
    unique_sum = counting._unique_sum
    monkeypatch.setattr(counting, "_unique_sum", lambda *a: sorts.append(1) or unique_sum(*a))
    res = count_mitm(params, n, box=box, x_min=x_min)
    assert res.count == want
    assert res.method == ("mitm-bigint" if bigint else "mitm")
    assert len(sorts) == 1


def test_mitm_work_counts_the_enumerated_half_once():
    # one canonical enumeration serves both mirrored halves
    p = SystemParams.pure(8, 2)
    n = [120, 2000]
    box = default_box(p, n)
    assert count_mitm(p, n).work == math.comb(box - 0 + 4, 4)
    pm = SystemParams.mixed_sign(3, 3, 2)
    assert count_mitm(pm, [0, 0], box=10, x_min=1).work == math.comb(10 - 1 + 3, 3)
    # the budget check counts the same half once
    assert count_mitm(p, n, budget=math.comb(box + 4, 4)).count > 0
    with pytest.raises(BudgetExceededError):
        count_mitm(p, n, budget=math.comb(box + 4, 4) - 1)


def test_object_dot_path_gives_same_counts(monkeypatch):
    # keys, encodings and histogram masses stay below 10^4, the dot products
    # do not, so only the final sums move to Python integers
    pm = SystemParams.mixed_sign(3, 3, 2)
    J = vinogradov_count(3, 2, 10)
    assert count_mitm(pm, [0, 0], box=10, x_min=1).count == J
    monkeypatch.setattr(counting, "INT64_SAFE", 10 ** 4)
    res = count_mitm(pm, [0, 0], box=10, x_min=1)
    assert res.method == "mitm" and res.count == J
    assert vinogradov_count(3, 2, 10) == J


def test_mitm_memory_estimate_covers_run_products(monkeypatch):
    # first half (1, 2): two runs, 100^2 rows, where the old single-run
    # estimate counted C(101, 2) of them
    def enumerate_anyway(*args, **kwargs):
        raise AssertionError("enumeration ran although the memory budget was exceeded")

    monkeypatch.setattr(counting, "canonical_powersum_run", enumerate_anyway)
    p = SystemParams.with_coefficients([1, 2, 1], 2)
    assert math.comb(101, 2) * 24 < 500_000 < 100 ** 2 * counting._row_bytes(2, np.int64)
    monkeypatch.setattr(counting, "MEMORY_BUDGET_BYTES", 500_000)
    with pytest.raises(MemoryBudgetError) as ei:
        count_mitm(p, [4, 6], box=100)
    assert ei.value.work_done == 0


def test_mitm_memory_estimate_prices_python_integer_rows():
    # k = 8 keys pass int64, so every key cell is a pointer and an int
    # object: the 2925 mirrored half rows peak near 700 bytes each, above
    # the int64 price of 272 and within the Python-integer price
    p = SystemParams.mixed_sign(3, 3, 8)
    rows = math.comb(27, 3)
    tracemalloc.start()
    try:
        res = count_mitm(p, [0] * 8, box=25, x_min=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.method == "mitm-bigint"
    assert rows * counting._row_bytes(8, np.int64) < peak <= rows * counting._row_bytes(8, object)
