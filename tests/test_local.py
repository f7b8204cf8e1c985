import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from hklab.core import SystemParams, target_scale
from hklab.local import (
    _fibre_roots,
    _lift_step,
    _refine,
    fermat_congruences,
    holder_necessary,
    minor_valuation,
    padic_witness,
    real_witness,
    small_primes,
    solubility_report,
)


def test_holder_examples():
    assert holder_necessary([3, 3], 3)[0]                 # boundary equality
    assert not holder_necessary([1, 4], 5)[0]
    # planted equal tuples always pass
    for m in (1, 2, 5):
        n = [3 * m ** j for j in (1, 2, 3)]
        assert holder_necessary(n, 3)[0]


def test_holder_planted_random():
    random.seed(12)
    for _ in range(30):
        s = random.randint(2, 6)
        k = random.randint(2, 4)
        x = [random.randint(0, 20) for _ in range(s)]
        n = [sum(v ** j for v in x) for j in range(1, k + 1)]
        assert holder_necessary(n, s)[0], (x, n)


def test_holder_failure_forces_zero_count():
    from hklab.counting import count_naive

    random.seed(13)
    tried = 0
    while tried < 30:
        k = random.randint(2, 3)
        s = random.randint(2, 4)
        n = [random.randint(1, 40) for _ in range(k)]
        if holder_necessary(n, s)[0]:
            continue
        tried += 1
        assert count_naive(SystemParams.pure(s, k), n).count == 0


def test_fermat_examples():
    assert fermat_congruences([3, 3])[0]
    assert not fermat_congruences([1, 2])[0]


def test_fermat_prime_set():
    _, det = fermat_congruences([1, 2, 3, 4, 5])
    assert [d["p"] for d in det] == [2, 3, 5]             # p-1 <= k-1


def test_fermat_witness_profiles_pass():
    random.seed(14)
    for _ in range(100):
        s = random.randint(2, 8)
        k = random.randint(2, 5)
        x = [random.randint(0, 30) for _ in range(s)]
        n = [sum(v ** j for v in x) for j in range(1, k + 1)]
        assert fermat_congruences(n)[0]


def test_padic_witness_planted_distinct_residues():
    p = 7
    x = (0, 1, 2, 3, 4, 6)
    n = [sum(v ** j for v in x) for j in (1, 2)]
    r = padic_witness(n, 6, p)
    assert r.status == "found" and r.depth == 1 and r.tau == 0 and r.lifted


def test_padic_witness_parity_obstruction():
    r = padic_witness([1, 2], 6, 2)
    assert r.status == "not_found" and r.depth == 1


def test_padic_witness_never_returns_nonprimitive():
    # zero target: the all-zero residue solution must be filtered out
    for p in (2, 3, 5):
        r = padic_witness([0, 0], 4, p)
        if r.status == "found":
            assert any(v % p for v in r.witness)


def test_padic_witness_lifts_congruently():
    random.seed(15)
    for p in (2, 3, 5):
        x = [random.randint(0, 12) for _ in range(6)]
        n = [sum(v ** j for v in x) for j in (1, 2)]
        r = padic_witness(n, 6, p)
        assert r.status == "found", (p, n, r)
        step = _lift_step(r.witness, n, len(n), p, p ** r.depth)
        refinements = _refine(r.witness, *step, p, p ** r.depth)
        assert refinements, (p, r)
        mod = p ** max(1, r.depth - r.tau)
        for ref in refinements[:4]:
            assert all((a - b) % mod == 0
                       for a, b in zip(ref, r.witness))


def test_minor_valuation_planted():
    # all-equal coordinates: every k-by-k minor vanishes
    assert minor_valuation([3, 3, 3], 2, 2, cap=5) == 5
    # distinct residues mod 7: some minor is a unit
    assert minor_valuation([1, 2, 4], 2, 7, cap=5) == 0


def _det(M):
    """Exact determinant by Fraction elimination."""
    A = [[Fraction(v) for v in row] for row in M]
    det = Fraction(1)
    for c in range(len(A)):
        piv = next((r for r in range(c, len(A)) if A[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det *= A[c][c]
        for r in range(c + 1, len(A)):
            f = A[r][c] / A[c][c]
            A[r] = [a - f * b for a, b in zip(A[r], A[c])]
    return int(det)


def test_minor_valuation_matches_determinants():
    # the minimum over every k-by-k minor of the Jacobian, each minor's
    # valuation read off its determinant
    rng = random.Random(17)
    for _ in range(300):
        k = rng.randint(1, 4)
        s = rng.randint(k, 6)
        p = rng.choice([2, 3, 5, 7])
        cap = rng.randint(1, 8)
        x = [rng.randint(0, 40) for _ in range(s)]
        M = [[j * v ** (j - 1) for v in x] for j in range(1, k + 1)]
        want = cap
        for cols in itertools.combinations(range(s), k):
            d = _det([[row[i] for i in cols] for row in M])
            v = 0
            while d != 0 and d % p == 0 and v < cap:
                d //= p
                v += 1
            want = min(want, cap if d == 0 else v)
        assert minor_valuation(x, k, p, cap) == want, (x, k, p, cap)


def test_real_witness_plant_and_recover():
    x = [12, 27, 31, 5, 19, 22]
    n = [sum(v ** j for v in x) for j in (1, 2)]
    r = real_witness(n, 6)
    assert r.status == "found" and r.nonsingular
    assert r.residual <= 1e-9 * max(1.0, 1.0)             # normalized residual


def test_real_witness_singular_diagonal():
    r = real_witness([6 * 3, 6 * 9], 6)
    assert r.status == "found" and not r.nonsingular and r.distinct == 1


def test_real_witness_holder_gate():
    r = real_witness([1, 4], 6)
    assert r.status == "not_found" and "necessity" in r.reason


def test_real_witness_deterministic():
    n = [sum(v ** j for v in [2, 9, 4, 4, 1, 7]) for j in (1, 2)]
    a = real_witness(n, 6, seed=3)
    b = real_witness(n, 6, seed=3)
    assert a.witness == b.witness and a.restart == b.restart


def _planted(s, k, count=8):
    rng = random.Random(100 * s + k)
    xs = [[rng.randint(1, 30) for _ in range(s)] for _ in range(count)]
    return [[sum(v ** j for v in x) for j in range(1, k + 1)] for x in xs]


# indices of _planted(s, k) that the damped Newton search (32 restarts of 60
# steps) certified with a non-singular witness; the fibre map keeps every one
NEWTON_CERTIFIED = {
    (6, 2): [0, 1, 2, 3, 4, 5, 6, 7], (6, 3): [0, 1, 3, 4, 5, 7],
    (6, 4): [0, 1, 2, 4, 5, 6, 7], (12, 2): [0, 1, 2, 4, 6, 7],
    (12, 3): [0, 1, 4, 5], (12, 4): [6], (20, 2): [0, 1, 2, 3, 4, 5, 6, 7],
    (20, 3): [], (20, 4): [],
}


@pytest.mark.parametrize("s, k", sorted(NEWTON_CERTIFIED))
def test_real_witness_keeps_every_newton_certificate(s, k):
    for i, n in enumerate(_planted(s, k)):
        r = real_witness(n, s)
        if i in NEWTON_CERTIFIED[(s, k)]:
            assert r.status == "found" and r.nonsingular, (s, k, i, r)
        if r.status == "found":
            _, mu = target_scale(n)
            assert r.residual <= 1e-9 * max(1.0, float(np.max(np.abs(mu))))
            assert len(r.witness) == s and min(r.witness) > 0


def test_real_witness_paper_target_is_nonsingular():
    # the k = 3, s = 12 target that the Newton search left at not_found
    r = real_witness([59, 369, 2609], 12)
    assert r.status == "found" and r.nonsingular and r.distinct == 12
    x = np.array(r.witness)
    assert np.allclose([np.sum(x ** j) for j in (1, 2, 3)], [59, 369, 2609],
                       rtol=1e-9, atol=0)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_fibre_roots_recover_planted_coordinates(k):
    rng = np.random.default_rng(40 + k)
    for _ in range(20):
        fixed = rng.random(rng.integers(0, 6))
        free = rng.random(k)
        mu = np.array([np.sum(fixed ** j) + np.sum(free ** j) for j in range(1, k + 1)])
        assert np.allclose(_fibre_roots(fixed, mu), np.sort(free), rtol=0, atol=1e-9)


def test_padic_work_stays_within_budget_at_s12():
    # level 1 alone needs 3^11 heads at p = 3; p = 2 would build 2^10 children per node
    budget = 100_000
    rep = solubility_report([59, 369, 2609], 12, budget=budget)
    for p, r in rep.padic.items():
        assert r.status == "inconclusive" and r.work <= budget, (p, r)
    assert rep.padic[3].work == 0 and "level-1" in rep.padic[3].reason


def test_padic_tau_pass_is_priced_before_it_runs():
    # 3^9 heads fit the budget, the tau pass over their solutions does not
    x = [20, 3, 1, 29, 17, 9, 14, 25, 8, 30]
    n = [sum(v ** j for v in x) for j in (1, 2, 3)]
    r = padic_witness(n, 10, 3, budget=3 ** 9 + 100)
    assert r.status == "inconclusive" and r.work == 3 ** 9 and r.depth == 1


def test_small_primes():
    assert small_primes(13) == [2, 3, 5, 7, 11, 13]
    assert small_primes(1) == []


def test_solubility_report_verdicts():
    x = [5, 9, 13, 17, 23, 29]
    n = [sum(v ** j for v in x) for j in (1, 2)]
    rep = solubility_report(n, 6, primes=[2, 3, 5, 7])
    assert rep.verdict == "locally-soluble"
    rep2 = solubility_report([1, 2], 6, primes=[2, 3])
    assert rep2.verdict == "insoluble"
    # warning for very few variables
    rep3 = solubility_report([3, 3, 3], 3, primes=[2])
    assert any("2^k - 1" in w for w in rep3.warnings)


def test_solubility_report_json_stable():
    rep = solubility_report([1, 2], 6, primes=[2])
    blob = rep.to_json()
    data = json.loads(blob)
    assert data["verdict"] == "insoluble"
    assert list(data.keys()) == sorted(data.keys())
