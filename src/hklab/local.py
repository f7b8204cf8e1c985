"""Local solubility machinery.

Necessary conditions (power-mean inequalities in exact integer form, the
small-prime congruence system) plus searches for certified witnesses: a
residue solution that lifts p-adically in the multivariate Hensel sense
(some k-by-k Jacobian minor of valuation ``tau`` found at depth
``gamma > 2 tau``), each stage priced against the budget before it runs,
and a positive non-singular real solution on the fibre map.  Fixing
``s - k`` coordinates leaves ``k`` whose power sums are known; Newton's
identities make those the roots of one degree-k polynomial, so each seeded
restart finds them in closed form.

``NotFound`` from the p-adic search proves there is no primitive p-adic
solution (an exhausted residue tree); the real search is heuristic and its
failures are reported as inconclusive, never as insolubility.
"""

import itertools
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import _target_vector, target_scale
from .errors import ValidationError
from .streams import substream

FRONTIER_CAP = 4096    # p-adic candidates kept per depth, smallest minor valuation first
REAL_RESTARTS = 32     # seeded restarts of the real search, two fibre points each
DISTINCT_RTOL = 1e-6   # relative gap that separates two real coordinates


# ---------------------------------------------------------------------------
# necessary conditions
# ---------------------------------------------------------------------------

def holder_necessary(n, s):
    """Power-mean necessity: ``n_l^j <= n_j^l`` and ``n_j^l <= s^(l-j) n_l^j``.

    Evaluated for every pair ``1 <= j <= l <= k`` in exact integer arithmetic.
    Returns ``(ok, details)`` with one record per pair.
    """
    n = _target_vector(n)
    k = len(n)
    details = []
    ok = True
    for l in range(1, k + 1):
        for j in range(1, l + 1):
            lower = n[l - 1] ** j <= n[j - 1] ** l
            upper = n[j - 1] ** l <= s ** (l - j) * n[l - 1] ** j
            details.append({"j": j, "l": l, "lower_ok": lower, "upper_ok": upper})
            ok = ok and lower and upper
    return ok, details


def small_primes(limit):
    sieve = np.ones(max(limit + 1, 2), dtype=bool)
    sieve[:2] = False
    for p in range(2, int(limit ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return [int(p) for p in np.flatnonzero(sieve) if p <= limit]


def fermat_congruences(n):
    """Congruence necessity: ``n_l = n_j (mod p)`` when ``l = j (mod p-1)``.

    Only primes with ``p - 1 <= k - 1`` produce constrained pairs; ``p = 2``
    forces all entries to share parity.
    """
    n = _target_vector(n)
    k = len(n)
    details = []
    ok = True
    for p in small_primes(k):
        bad = []
        for j in range(1, k + 1):
            for l in range(j + 1, k + 1):
                if (l - j) % (p - 1) == 0 and (n[l - 1] - n[j - 1]) % p != 0:
                    bad.append((j, l))
        details.append({"p": p, "ok": not bad, "violations": bad})
        ok = ok and not bad
    return ok, details


# ---------------------------------------------------------------------------
# p-adic witness search
# ---------------------------------------------------------------------------

@dataclass
class PadicResult:
    status: str                # "found" | "not_found" | "inconclusive"
    p: int
    witness: tuple = None      # residues mod p^depth
    depth: int = 0             # gamma at which the certificate was issued
    tau: int = None            # minimal minor valuation of the witness
    lifted: bool = False       # one extra refinement level verified
    work: int = 0
    reason: str = ""


def _valuation(v, p, cap):
    if v == 0:
        return cap
    t = 0
    while v % p == 0 and t < cap:
        v //= p
        t += 1
    return t


def minor_valuation(x, k, p, cap):
    """Minimal p-adic valuation over all k-by-k Jacobian minors (capped).

    The minor on columns ``i_1 < ... < i_k`` is the scaled Vandermonde
    ``k! * prod_{a<b} (x_{i_b} - x_{i_a})``, so its valuation is ``v_p(k!)``
    plus the valuations of the pairwise differences (``cap`` for a zero one).
    """
    x = [int(v) for v in x]
    base = _valuation(math.factorial(k), p, cap)
    pair = {(i, l): _valuation(x[l] - x[i], p, cap)
            for i, l in itertools.combinations(range(len(x)), 2)}
    best = cap
    for cols in itertools.combinations(range(len(x)), k):
        best = min(best, base + sum(pair[il] for il in itertools.combinations(cols, 2)))
        if best == 0:
            break
    return best


def _solve_affine_mod_p(J, r, p):
    """All solutions t of ``J t = r (mod p)``: (particular, nullspace basis).

    Returns None when inconsistent.  ``J`` is k x s over Z/p.
    """
    k = len(J)
    s = len(J[0])
    A = [row[:] + [r[i] % p] for i, row in enumerate(J)]
    pivots = []
    rr = 0
    for col in range(s):
        piv = None
        for i in range(rr, k):
            if A[i][col] % p:
                piv = i
                break
        if piv is None:
            continue
        A[rr], A[piv] = A[piv], A[rr]
        inv = pow(A[rr][col], -1, p)
        A[rr] = [(v * inv) % p for v in A[rr]]
        for i in range(k):
            if i != rr and A[i][col] % p:
                f = A[i][col]
                A[i] = [(a - f * b) % p for a, b in zip(A[i], A[rr])]
        pivots.append(col)
        rr += 1
        if rr == k:
            break
    for i in range(rr, k):
        if A[i][s] % p:
            return None
    part = [0] * s
    for i, col in enumerate(pivots):
        part[col] = A[i][s]
    free = [c for c in range(s) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * s
        vec[fc] = 1
        for i, col in enumerate(pivots):
            vec[col] = (-A[i][fc]) % p
        basis.append(vec)
    return part, basis


def padic_witness(n, s, p, budget=2_000_000):
    """Search for a primitive residue solution certified to lift p-adically.

    Iterative deepening over depth gamma: level-1 solutions come from direct
    enumeration (last variable by lookup); refinements solve the linearized
    system mod p.  A witness is accepted at depth gamma when its minimal
    Jacobian-minor valuation tau satisfies ``2 tau < gamma``.  The frontier
    is kept at the candidates with the smallest minor valuation (the ones a
    certificate can come from); ``not_found`` is only reported when the tree
    emptied without any such pruning, so it remains a proof of emptiness.
    The search stops at depth ``2 (1 + floor(log_p k)) + 3``, deep enough to
    certify the small primes where singularity concentrates.  ``work`` counts
    level-1 heads, tau evaluations and refined children (1 for a childless
    node); each stage is priced before it runs, so ``work <= budget``.
    """
    n = _target_vector(n)
    k = len(n)
    depth_max = 2 * (1 + int(math.log(k, p))) + 3
    work = p ** (s - 1)  # one unit per level-1 head, priced before the enumeration
    if work > budget:
        return PadicResult("inconclusive", p,
                           reason="budget exceeded during level-1 enumeration")

    # depth 1: enumerate solutions mod p
    powvec = {}
    for v in range(p):
        key = tuple(pow(v, j, p) for j in range(1, k + 1))
        powvec.setdefault(key, []).append(v)
    vec_of = [tuple(pow(v, j, p) for j in range(1, k + 1)) for v in range(p)]
    frontier = []
    pruned = False
    target = tuple(v % p for v in n)
    for head in itertools.product(range(p), repeat=s - 1):
        resid = list(target)
        for v in head:
            pv = vec_of[v]
            for j in range(k):
                resid[j] = (resid[j] - pv[j]) % p
        for last in powvec.get(tuple(resid), ()):
            x = head + (last,)
            if any(v % p for v in x):  # primitivity: not all = 0 mod p
                frontier.append(x)

    if not frontier:
        return PadicResult("not_found", p, depth=1, work=work,
                           reason="no primitive solutions mod p")

    mod = p
    for gamma in range(1, depth_max + 1):
        if work + len(frontier) > budget:  # one unit per tau evaluation
            return PadicResult("inconclusive", p, depth=gamma, work=work,
                               reason="budget exceeded while deepening")
        taus = []
        for x in frontier:
            work += 1
            tau = minor_valuation(x, k, p, cap=gamma)
            if 2 * tau < gamma:
                lifted = _lift_step(x, n, k, p, mod) is not None
                return PadicResult("found", p, witness=tuple(x), depth=gamma,
                                   tau=tau, lifted=lifted, work=work)
            taus.append(tau)
        if gamma == depth_max:
            break
        if len(frontier) > FRONTIER_CAP:
            order = sorted(range(len(frontier)), key=lambda i: (taus[i], i))
            frontier = [frontier[i] for i in order[:FRONTIER_CAP]]
            pruned = True
        new_frontier = []
        for x in frontier:
            step = _lift_step(x, n, k, p, mod)
            cost = p ** len(step[1]) if step else 1  # children, priced before they are built
            if work + cost > budget:
                return PadicResult("inconclusive", p, depth=gamma, work=work,
                                   reason="budget exceeded while deepening")
            work += cost
            if step:
                new_frontier.extend(_refine(x, *step, p, mod))
        if not new_frontier:
            if pruned:
                return PadicResult("inconclusive", p, depth=gamma + 1, work=work,
                                   reason="frontier emptied after pruning")
            return PadicResult("not_found", p, depth=gamma + 1, work=work,
                               reason=f"no primitive solutions mod p^{gamma + 1}")
        frontier = new_frontier
        mod *= p

    return PadicResult("inconclusive", p, depth=depth_max, work=work,
                       reason="no certified witness within depth_max")


def _lift_step(x, n, k, p, mod):
    """The linear step from a solution mod ``mod`` to ``mod * p``: ``(part, basis)``.

    None when ``x`` is no solution mod ``mod`` or the step is inconsistent.
    """
    resid = []
    for j in range(1, k + 1):
        fj = sum(int(v) ** j for v in x)
        d = (n[j - 1] - fj) % (mod * p)
        if d % mod:
            return None
        resid.append((d // mod) % p)
    J = [[(j * pow(int(v), j - 1, p)) % p for v in x] for j in range(1, k + 1)]
    return _solve_affine_mod_p(J, resid, p)


def _refine(x, part, basis, p, mod):
    """The ``p^len(basis)`` children of ``x`` for the step ``(part, basis)``."""
    kids = []
    for combo in itertools.product(range(p), repeat=len(basis)):
        t = list(part)
        for c, vec in zip(combo, basis):
            if c:
                for i in range(len(x)):
                    t[i] = (t[i] + c * vec[i]) % p
        kids.append(tuple(int(v) + mod * t[i] for i, v in enumerate(x)))
    return kids


# ---------------------------------------------------------------------------
# real witness search
# ---------------------------------------------------------------------------

@dataclass
class RealResult:
    status: str                 # "found" | "not_found"
    witness: list = None        # positive reals, original scale
    residual: float = None      # normalized infinity norm
    distinct: int = 0
    nonsingular: bool = False
    restart: int = None
    reason: str = ""


def real_witness(n, s, seed=0):
    """Fibre-map search for a positive solution with full-rank Jacobian.

    Each restart fixes ``s - k`` coordinates at the equal-split point
    ``mu_1 / s`` (shaken by up to 30% after restart 0), then at one uniform
    draw with the target's per-coordinate mean and variance, and takes the
    other ``k`` from ``_fibre_roots``.  A point counts when it is positive
    and its power sums meet ``mu`` within ``1e-9 max(1, max |mu|)``, so the
    real parts of a complex root pair pass only for a double root within it.
    The first non-singular point (lowest restart index) is returned, so the
    search is deterministic; ``not_found`` is inconclusive by design.
    """
    n = _target_vector(n)
    k = len(n)
    if s < k:
        raise ValidationError("need s >= k for the square subsystem")
    ok, _ = holder_necessary(n, s)
    if not ok:
        return RealResult("not_found", reason="power-mean necessity fails")
    scale, mu = target_scale(n)
    if scale == 0:
        return RealResult("not_found", reason="zero target has no positive solution")
    tol = 1e-9 * max(1.0, float(np.max(np.abs(mu))))
    mean = mu[0] / s
    half = math.sqrt(3.0 * max(mu[1] / s - mean ** 2, 0.0)) if k > 1 else 0.0
    best_singular = None
    for restart in range(REAL_RESTARTS):
        rng = substream(seed, restart)
        shaken = np.full(s - k, max(mean, 1e-3))
        if restart > 0:
            shaken *= 1.0 + 0.6 * (rng.random(s - k) - 0.5)
        for fixed in (shaken, rng.uniform(mean - half, mean + half, s - k)):
            full = np.concatenate([fixed, _fibre_roots(fixed, mu)])
            residual = float(np.max(np.abs(
                [np.sum(full ** j) - mu[j - 1] for j in range(1, k + 1)])))
            if np.any(full <= 0) or not residual <= tol:
                continue
            distinct = _distinct_count(full)
            J = np.array([[j * v ** (j - 1) for v in full] for j in range(1, k + 1)])
            sv = np.linalg.svd(J, compute_uv=False)
            res = RealResult("found", witness=(full * scale).tolist(), residual=residual,
                             distinct=distinct, restart=restart,
                             nonsingular=bool(distinct >= k and sv[-1] > 1e-8 * sv[0]))
            if res.nonsingular:
                return res
            best_singular = best_singular or res
    if best_singular is not None:
        best_singular.reason = "only singular witnesses located"
        return best_singular
    return RealResult("not_found", reason="no restart reached a positive real point")


def _fibre_roots(fixed, mu):
    """The ``k = len(mu)`` coordinates completing ``fixed`` to power sums ``mu``.

    Newton's identities ``m e_m = sum_{i<=m} (-1)^(i-1) e_(m-i) p_i`` turn the
    power sums left over, ``p_j = mu_j - sum(fixed^j)``, into elementary
    symmetric values, and the coordinates are the roots of
    ``x^k - e_1 x^(k-1) + ... + (-1)^k e_k``, returned as sorted real parts.
    """
    k = len(mu)
    p = [mu[j - 1] - np.sum(fixed ** j) for j in range(1, k + 1)]
    e = [1.0]
    for m in range(1, k + 1):
        e.append(sum((-1) ** (i - 1) * e[m - i] * p[i - 1] for i in range(1, m + 1)) / m)
    return np.sort(np.roots([(-1) ** m * e[m] for m in range(k + 1)]).real)


def _distinct_count(v):
    vs = np.sort(np.asarray(v, dtype=float))
    scale = max(1.0, float(np.max(np.abs(vs))))
    return 1 + int(np.sum(np.diff(vs) > DISTINCT_RTOL * scale))


# ---------------------------------------------------------------------------
# consolidated report
# ---------------------------------------------------------------------------

@dataclass
class SolubilityReport:
    holder_ok: bool
    holder_detail: list
    fermat_ok: bool
    fermat_detail: list
    padic: dict
    real: RealResult
    verdict: str
    warnings: list = field(default_factory=list)

    def to_json(self):
        out = {
            "holder_ok": self.holder_ok,
            "fermat_ok": self.fermat_ok,
            "holder_detail": self.holder_detail,
            "fermat_detail": self.fermat_detail,
            "padic": {str(p): asdict(r) for p, r in sorted(self.padic.items())},
            "real": asdict(self.real),
            "verdict": self.verdict,
            "warnings": self.warnings,
        }
        return json.dumps(out, sort_keys=True, default=str)


def solubility_report(n, s, primes=None, seed=0, budget=2_000_000):
    """Run every local test and consolidate the verdict.

    Verdict is ``insoluble`` when a hard necessary condition fails (power
    means, congruences, or a proven-empty residue tree), ``locally-soluble``
    when a real and all requested p-adic witnesses certify, else
    ``inconclusive``.
    """
    n = _target_vector(n)
    k = len(n)
    holder_ok, hd = holder_necessary(n, s)
    fermat_ok, fd = fermat_congruences(n)
    if primes is None:
        primes = sorted(set(small_primes(max(k, 13))))
    warnings = []
    if s < 2 ** k - 1:
        warnings.append(
            f"s = {s} < 2^k - 1 = {2 ** k - 1}: p-adic solubility is not assured "
            "in general with this few variables")
    padic = {}
    insoluble = not (holder_ok and fermat_ok)
    all_found = True
    for p in primes:
        r = padic_witness(n, s, p, budget=budget)
        padic[p] = r
        if r.status == "not_found":
            insoluble = True
        if r.status != "found":
            all_found = False
    real = real_witness(n, s, seed=seed) if holder_ok else RealResult(
        "not_found", reason="power-mean necessity fails")
    if insoluble:
        verdict = "insoluble"
    elif all_found and real.status == "found" and real.nonsingular:
        verdict = "locally-soluble"
    else:
        verdict = "inconclusive"
    return SolubilityReport(holder_ok, hd, fermat_ok, fd, padic, real, verdict,
                            warnings)
