import itertools
import json
import random
from fractions import Fraction

from hklab.core import SystemParams
from hklab.local import (
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
        refinements = _refine(r.witness, n, 6, len(n), p, p ** r.depth)
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
