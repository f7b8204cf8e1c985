"""Arc dissection of the frequency torus and the mean-value experiments.

The final coordinate gets a one-dimensional rational dissection (denominator
up to Q, width ``Q X^{-k}``); the full torus gets nested box families
around primitive rational points (width ``Z X^{-j}`` per axis, denominator
up to Z).  Points classify into four disjoint classes: 1-d minor; boxed
major but outside the wide boxes; inside the wide boxes but outside the
narrow ones; narrow boxes.

Experiments at desk scale check signs, monotone trends, and bounded ratios;
the asymptotic exponents themselves are out of numerical reach and are only
reported as reference values.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from . import expsums
from .core import SystemParams, target_scale
from .counting import count_mitm
from .densities import (
    _primitive_mask,
    first_near_max_cells,
    main_term,
    prime_power_factors,
    series_terms,
    singular_integral_quadrature,
    singular_series_euler,
    _integral_once,
)
from .errors import ValidationError
from .expsums import gl_panels, tensor_integral, weyl_sum_batch
from .streams import substream

EPS_SLACK = 0.05  # fixed report-time slack for exponent comparisons
CF_STEPS = 64        # continued-fraction steps of the 1-d witness scan
STRATA = 32          # final-coordinate strata of the restricted Monte Carlo
CONTAINMENT_SAMPLES = 10_000  # minor points drawn by dilation_containment_check


def sigma(k):
    """Minor-arc decay exponent: ``1/2^(k-1)`` for small k, ``1/(k(k-1))`` after."""
    if k < 2:
        raise ValidationError("exponent defined for k >= 2")
    if k <= 5:
        return Fraction(1, 2 ** (k - 1))
    return Fraction(1, k * (k - 1))


@dataclass(frozen=True)
class DissectionParams:
    """Scale and cutoffs; ``Q = L**k`` is evaluated once so no drift creeps in."""

    X: float
    k: int
    L: float
    Q: float

    @classmethod
    def from_scale(cls, X, k, l_exponent=None):
        if l_exponent is None:
            l_exponent = 1.0 / (8 * k * k)
        L = float(X) ** l_exponent
        return cls(float(X), k, L, L ** k)

    @property
    def Q2(self):
        return self.Q * self.Q


@dataclass(frozen=True)
class ArcLabel:
    q: int
    a: tuple       # (a,) with |q alpha_k - a| <= Q X^-k


W1, W2, W3, W4 = "W1", "W2", "W3", "W4"


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def major_1d_witness(alphas, Q, X, k):
    """1-d major-arc witnesses ``(q, a)`` of many points at once.

    For each point ``alpha`` (taken mod 1) this finds the smallest ``q <= Q``
    with ``|q alpha - a| <= Q X^{-k}``.  The smallest such ``q`` is a best
    rational approximation of the second kind, hence a continued-fraction
    convergent, so the scan walks the convergents of every point in
    increasing denominator (at most ``CF_STEPS`` steps) and stops each point
    at its first hit.  Returns int64 arrays ``(q, a)``; ``q == 0`` marks a
    minor point.
    """
    if not (1 <= Q):
        raise ValidationError("need Q >= 1")
    alpha = np.asarray(alphas, dtype=np.float64).ravel()
    alpha = alpha - np.floor(alpha)
    thr = Q * float(X) ** (-k)
    wq = np.zeros(alpha.shape, dtype=np.int64)
    wa = np.zeros(alpha.shape, dtype=np.int64)
    # rows: alpha, fractional remainder x, convergents p0/q0 and p1/q1
    st = np.empty((6, alpha.size))
    st[0] = alpha
    st[2:6] = [[1.0], [0.0], [0.0], [1.0]]
    st[4] = np.floor(alpha)
    st[1] = alpha - st[4]
    live = np.arange(alpha.size)
    for it in range(CF_STEPS + 1):
        if it:
            x = 1.0 / st[1]
            a = np.floor(x)
            st[1] = x - a
            st[2:4], st[4:6] = st[4:6], a * st[4:6] + st[2:4]
        inside = st[5] <= Q
        hit = inside & (np.abs(st[5] * st[0] - st[4]) <= thr)
        if hit.any():
            wq[live[hit]] = st[5, hit]
            wa[live[hit]] = st[4, hit]
            inside &= ~hit
        keep = inside & (st[1] > 1e-15)
        live = live[keep]
        if not live.size:
            break
        st = st[:, keep]
    return wq, wa


def in_major_1d(alpha_k, Q, X, k):
    """1-d major-arc membership of the leading frequency coordinate.

    One point of :func:`major_1d_witness`: returns ``(True, label)`` with the
    smallest witness denominator, or ``(False, None)``.
    """
    q, a = major_1d_witness([alpha_k], Q, X, k)
    if q[0]:
        return True, ArcLabel(int(q[0]), (int(a[0]),))
    return False, None


def in_major_1d_scan(alpha_k, Q, X, k):
    """Direct denominator scan (independent oracle for the CF-based test)."""
    alpha = alpha_k - math.floor(alpha_k)
    thr = Q * float(X) ** (-k)
    for q in range(1, int(math.floor(Q)) + 1):
        a = round(q * alpha)
        if abs(q * alpha - a) <= thr and gcd(q, int(a)) == 1:
            return True, ArcLabel(q, (int(a),))
    return False, None


def in_K(alphas, Z, X):
    """Box-family witnesses of the rows of an ``(N, k)`` array (taken mod 1).

    Each row gets the smallest ``q <= Z`` whose nearest-integer numerators
    ``a = rint(q alpha)`` give all ``|alpha_j - a_j/q| <= Z X^{-j}`` and
    ``gcd(q, a) = 1``; a non-primitive hit reduces to a center with smaller
    denominator, which the ascending scan has already covered.  Returns
    int64 arrays ``q`` (N,) and ``a`` (N, k); ``q == 0`` marks a point
    outside the box family.
    """
    alpha = np.asarray(alphas, dtype=np.float64)
    alpha = alpha - np.floor(alpha)
    n, k = alpha.shape
    radii = np.array([Z * float(X) ** (-j) for j in range(1, k + 1)])
    wq = np.zeros(n, dtype=np.int64)
    wa = np.zeros((n, k), dtype=np.int64)
    live = np.arange(n)
    for q in range(1, int(math.floor(Z)) + 1):
        if not live.size:
            break
        a = np.rint(q * alpha).astype(np.int64)
        hit = ((np.abs(alpha - a / q) <= radii).all(axis=1)
               & (np.gcd(q, np.gcd.reduce(a, axis=1)) == 1))
        if hit.any():
            wq[live[hit]] = q
            wa[live[hit]] = a[hit]
            live, alpha = live[~hit], alpha[~hit]
    return wq, wa


def classify(alphas, d):
    """Classes and witnesses of the rows of an ``(N, k)`` array of points.

    In short-circuit order: 1-d minor (W1); outside the wide boxes
    ``K(Q^2)`` (W2, 1-d witness); outside the narrow boxes ``K(L)`` (W3,
    wide-box witness); else W4 (narrow-box witness).  Boxes are scanned at
    1-d major points only.  Returns ``(cls, q, a)`` with ``q == 0`` for W1
    and ``a`` of shape ``(N, k)``; a W2 row holds its 1-d numerator last.
    """
    alpha = np.asarray(alphas, dtype=np.float64)
    q, a1 = major_1d_witness(alpha[:, -1], d.Q, d.X, d.k)
    maj = q > 0
    qw, aw = in_K(alpha[maj], d.Q2, d.X)
    qn, an = in_K(alpha[maj], d.L, d.X)
    outside = [qw == 0, qn == 0]
    cls = np.full(len(alpha), W1)
    cls[maj] = np.select(outside, [W2, W3], W4)
    q[maj] = np.select(outside, [q[maj], qw], qn)
    a = np.zeros(alpha.shape, dtype=np.int64)
    a[:, -1] = a1
    a[maj] = np.select([o[:, None] for o in outside], [a[maj], aw], an)
    return cls, q, a


def classify_direct(alphas, d):
    """Evaluate all four class definitions from their set formulas.

    Independent of the short-circuit order in :func:`classify`: every
    membership is evaluated at every row of the ``(N, k)`` array.  Returns
    the class names; raises at the first point in not exactly one class.
    """
    alpha = np.asarray(alphas, dtype=np.float64)
    maj = major_1d_witness(alpha[:, -1], d.Q, d.X, d.k)[0] > 0
    in_wide = in_K(alpha, d.Q2, d.X)[0] > 0
    in_narrow = in_K(alpha, d.L, d.X)[0] > 0
    names = np.array([W1, W2, W3, W4])
    members = np.array([~maj, maj & ~in_wide, maj & in_wide & ~in_narrow,
                        in_narrow])
    bad = np.flatnonzero(members.sum(axis=0) != 1)
    if bad.size:
        i = bad[0]
        raise AssertionError(f"partition violation at {alpha[i]}: "
                             f"{dict(zip(names.tolist(), members[:, i].tolist()))}")
    return names[members.argmax(axis=0)]


def measure_major_1d(Q, X, k):
    """Exact measure of the 1-d major union, with the crude union bound."""
    if not (1 <= Q):
        raise ValidationError("need Q >= 1")
    thr = Q * float(X) ** (-k)
    intervals = []
    for q in range(1, int(math.floor(Q)) + 1):
        w = thr / q
        for a in range(0, q + 1):
            if gcd(a, q) == 1:
                intervals.append((max(0.0, a / q - w), min(1.0, a / q + w)))
    intervals.sort()
    total = 0.0
    cur_lo, cur_hi = intervals[0]
    for lo, hi in intervals[1:]:
        if lo > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    total += cur_hi - cur_lo
    return {"measure": total, "union_bound": Q * Q * (Q + 1) * float(X) ** (-k)}


# ---------------------------------------------------------------------------
# regions for restricted integrals
# ---------------------------------------------------------------------------

class MinorArcs1D:
    """``[0,1)`` minus the 1-d major union; optionally dilated by s (mod 1)."""

    def __init__(self, Q, X, k, dilation=1):
        self.Q = Q
        self.X = X
        self.k = k
        self.dilation = dilation

    def mask(self, values):
        values = np.asarray(values, dtype=np.float64)
        # beta in s*B iff (beta + m)/s in B for some integer m < s
        cand = (values[:, None] + np.arange(self.dilation)) / self.dilation
        q, _ = major_1d_witness(cand, self.Q, self.X, self.k)
        return (q.reshape(cand.shape) == 0).any(axis=1)


# ---------------------------------------------------------------------------
# restricted mean values
# ---------------------------------------------------------------------------

def lattice_representation_integral(s, h, X, k):
    """Exact full-torus integral of ``f^s e(-alpha.h)`` by aliasing-free lattice.

    ``f^s e(-alpha.h)`` is a trigonometric polynomial whose frequency in axis
    j ranges over ``[-h_j, s floor(X)^j - h_j]``, so the ``N_j``-point average
    with ``N_j = s floor(X)^j + 1`` is exact.  Targets outside the reachable
    frequency range integrate to zero exactly.

    The integrand at ``-alpha`` is the conjugate of the one at ``alpha``, and
    negation mod 1 maps every lattice axis onto itself, so the first axis is
    folded to ``j = 0..floor(N_1/2)`` and the real part kept: ``j = 0`` and,
    for even ``N_1``, ``j = N_1/2`` are their own mirrors and keep weight
    ``1/N_1``; every other ``j`` stands for ``j`` and ``N_1 - j`` with
    weight ``2/N_1``.  The value is therefore real.
    """
    h = [int(v) for v in h]
    Xf = int(math.floor(X))
    if any(hj < 0 or hj > s * Xf ** j for j, hj in enumerate(h, start=1)):
        return 0.0
    Ns = [s * Xf ** j + 1 for j in range(1, k + 1)]
    N1 = Ns[0]
    j = np.arange(N1 // 2 + 1)
    folded = (j / N1, np.where((j == 0) | (2 * j == N1), 1.0, 2.0) / N1)
    axes = [folded] + [(np.arange(N) / N, 1.0 / N) for N in Ns[1:]]
    return tensor_integral(np.arange(Xf + 1.0), np.ones(Xf + 1), axes, s, h).real


def restricted_representation_integral(s, h, regions, X, k, samples=20000,
                                       seed=0):
    """Estimates of ``E[f^s e(-alpha.h) 1_B]``, one ``(mean, halfwidth)`` per region ``B``.

    Stratified Monte-Carlo over the torus with membership masking; the
    regions share one sample pool (see :func:`_region_mc`).  The exact
    full-torus value is :func:`lattice_representation_integral`.
    """
    h = [float(v) for v in h]
    if len(h) != k:
        raise ValidationError("shift profile must have length k")

    def func(al):
        # alpha.h summed column by column, so a row's phase rounds the same
        # whatever the batch size (a one-row matrix product is a dot product)
        phase = al[:, 0] * h[0]
        for j in range(1, len(h)):
            phase = phase + al[:, j] * h[j]
        return weyl_sum_batch(al, X) ** s * np.exp(-2j * np.pi * phase)

    return _region_mc(regions, X, k, samples, seed, func)


def restricted_moment(t, regions, X, k, samples=20000, seed=0):
    """Estimates of ``E[|f|^t 1_B]``, one ``(mean, halfwidth)`` per region ``B``.

    The regions share one sample pool, as in
    :func:`restricted_representation_integral`.  The exact full-torus moment
    at even ``t`` is ``vinogradov_count(t // 2, k, X, x_min=0)``.
    """
    return _region_mc(regions, X, k, samples, seed,
                      lambda al: np.abs(weyl_sum_batch(al, X)) ** t)


def _region_mc(regions, X, k, samples, seed, func):
    """Stratified torus MC of ``E[func(alpha) 1_B(alpha)]`` for each region ``B``.

    Strata split the final coordinate; per-stratum counter-based streams make
    the result independent of chunking/worker count.  The strata are drawn
    into one pool and ``func`` (a phase sum over ``0..X``) is evaluated once
    on the points that any region keeps, in row chunks of
    :func:`expsums.batch_rows`.  Each region masks the pool by its final
    coordinate and is summed per stratum in stratum order, so a region's
    estimate does not depend on the others in the list.  Returns one
    ``(mean, halfwidth)`` per region.
    """
    per = max(1, samples // STRATA)
    count = per * STRATA
    al = np.empty((STRATA, per, k))
    for st in range(STRATA):
        al[st] = substream(seed, st).random((per, k))
        al[st, :, -1] = (st + al[st, :, -1]) / STRATA
    al = al.reshape(count, k)
    masks = np.array([r.mask(al[:, -1]) for r in regions])
    kept = np.flatnonzero(masks.any(axis=0))
    pooled = np.zeros(count, dtype=np.complex128)
    rows = max(1, expsums.batch_rows(X))
    for lo in range(0, kept.size, rows):
        pooled[kept[lo:lo + rows]] = func(al[kept[lo:lo + rows]])
    ones = np.ones(per)
    out = []
    for mask in masks:
        vals = np.where(mask, pooled, 0.0).reshape(STRATA, per)
        sq = np.abs(vals) ** 2
        total, totsq = 0.0 + 0.0j, 0.0
        for st in range(STRATA):
            total += vals[st].sum()
            totsq += float(sq[st] @ ones)
        mean = total / count
        var = max(totsq / count - abs(mean) ** 2, 0.0)
        out.append((mean, 1.96 * math.sqrt(var / count)))
    return out


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _minor_sup_candidates(Q_min, Q_max, k):
    """Master candidate pool of extremal rational points covering all Q levels.

    Near a rational point ``a/q`` the sum has modulus about ``(X/q)|S(q,a)|``,
    so for every denominator in ``(Q_min, 2 Q_max]`` the numerator vector
    maximizing ``|S(q, a)|`` over primitive residues is the natural sup
    witness.  Over the prime powers ``q_i || q``,
    ``S(q, a) = prod_i S(q_i, (a_j (q/q_i)^(j-1))_j)``, which maps primitive
    ``a`` one-to-one onto tuples of primitive factor vectors, so the maximum
    is the product of the factor maxima.  Each factor's maximizer ``b_i`` is
    the first primitive cell in C order within a relative ``1e-9`` of the
    maximum (exact ties are common, so it is not whichever rounding
    favours), read off the complete-sum tables by
    :func:`densities.first_near_max_cells`.  The CRT combination
    ``a_j = sum_i b_ij (q/q_i) mod q`` reaches the product, since
    ``r -> (q/q_i) r`` permutes the residues mod ``q_i``.  One shared
    deterministic pool keeps the per-Q sups nested: the major-arc mask
    removes the small denominators as Q grows.  Every table is checked
    against the cell cap before the first is built.
    """
    factors = {q: prime_power_factors(q) for q in range(int(Q_min) + 1, 2 * int(Q_max) + 1)}
    best = first_near_max_cells(sorted({pe for f in factors.values() for _, pe in f}), k)
    cands = []
    for q, f in factors.items():
        a = np.zeros(k, dtype=np.int64)
        for _, pe in f:
            a += best[pe] * (q // pe)
        a %= q
        if a[-1] == 0:
            a[-1] = q  # keep the final coordinate off the integers
        cands.append(a / q)
    return np.array(cands)


def minor_arc_decay_experiment(s, k, X, Q_list, samples=400, seed=0, h=None):
    """Sup of |f| over the rational candidates in the 1-d minor set, per Q.

    The candidates are the fixed pool of :func:`_minor_sup_candidates`: for
    each denominator in ``(min Q, 2 max Q]`` the numerator vector maximizing
    the complete sum, where ``|f|`` is about ``(X/q) max_a |S(q, a)|``.
    Each Q masks the pool by its minor set and reports the largest ``|f|``
    left, so the ``sup`` is a deterministic lower bound on the minor-set sup,
    the same for every seed, and non-increasing in Q because the minor sets
    are nested.  ``samples`` and ``seed`` size and seed only the optional
    ``I_restricted`` column (the restricted integral at shift ``h``, on its
    own pool with seed ``seed + 7``).  Log-log slope and the reference decay
    exponents are reported.
    """
    Q_list = sorted(Q_list)
    if len(Q_list) < 3:
        raise ValidationError("need at least 3 Q values")
    if Q_list[0] < 1:
        raise ValidationError("need Q >= 1")
    if s < k * (k + 1):
        raise ValidationError("minor-arc comparison needs s >= k(k+1)")
    pool = _minor_sup_candidates(min(Q_list), max(Q_list), k)
    fpool = np.abs(weyl_sum_batch(pool, X))
    rows = []
    for Q in Q_list:
        minor = MinorArcs1D(Q, X, k).mask(pool[:, -1])
        rows.append({"Q": Q, "sup": float(np.max(fpool, where=minor, initial=0.0)),
                     "measure_major": measure_major_1d(Q, X, k)})
    if h is not None:
        # one pool (seed + 7) serves every Q; only the minor-arc mask differs
        restricted = restricted_representation_integral(
            s, h, [MinorArcs1D(Q, X, k) for Q in Q_list], X, k,
            samples=samples * 10, seed=seed + 7)
        norm = float(X) ** (s - k * (k + 1) / 2)
        for row, (est, hw) in zip(rows, restricted):
            row["I_restricted"] = abs(est) / norm
            row["I_halfwidth"] = hw / norm
    sups = np.array([r["sup"] for r in rows])
    qs = np.array(Q_list, dtype=float)
    slope = float(np.polyfit(np.log(qs), np.log(np.maximum(sups, 1e-300)), 1)[0])
    return {
        "s": s, "k": k, "X": X, "rows": rows,
        "sup_slope": slope,
        "strictly_decreasing": bool(np.all(np.diff(sups) < 0)),
        "reference_sigma": float(-sigma(k)),
        "reference_wide_exponent": -1.0 / (6 * k * k),     # illustrative
        "reference_narrow_exponent": -1.0 / (12 * k ** 3),  # illustrative
        "eps_slack": EPS_SLACK,
    }


def moment_majorant_experiment(s, k, X, Q_list, h, samples=60000, seed=0):
    """Ratio of the shifted-moment bound: restricted integral vs its majorant.

    Both sides are estimated by the same stratified Monte-Carlo machinery.
    The restricted integral itself is cancellation-dominated at desk scale,
    so its estimate is noise-limited; the reported ratios are upper-bound
    style and the acceptance check asks only for a bounded band over Q.
    Each of the three quantities (the minor-arc integral, ``J_wide`` and
    ``J_dilated``) has its own seed and one sample pool that its Q levels
    share; a level's estimate is the one a one-region list would give.
    """
    rows = []
    logX = math.log(X)
    Qs = sorted(Q_list)
    minor = [MinorArcs1D(Q, X, k) for Q in Qs]
    dilated = [MinorArcs1D(Q, X, k, dilation=s) for Q in Qs]
    lhs_all = restricted_representation_integral(s, h, minor, X, k,
                                                 samples=samples, seed=seed)
    j1_all = restricted_moment(s + 1, minor, 2 * X, k, samples=samples,
                               seed=seed + 1)
    j2_all = restricted_moment(s + 1, dilated, X, k, samples=samples,
                               seed=seed + 2)
    for Q, (lhs, lhs_hw), (j1, j1_hw), (j2, j2_hw) in zip(Qs, lhs_all, j1_all, j2_all):
        j1 = float(np.real(j1))
        j2 = float(np.real(j2))
        if not all(math.isfinite(v) for v in (abs(lhs), j1, j2)):
            raise ValidationError(f"non-finite factor at Q={Q}")
        rhs = (1.0 / X) * logX ** s * j1 ** (s / (s + 1)) * j2 ** (1 / (s + 1))
        rows.append({
            "Q": Q,
            "lhs_abs": abs(lhs), "lhs_halfwidth": lhs_hw,
            "J_wide": j1, "J_wide_halfwidth": j1_hw,
            "J_dilated": j2, "J_dilated_halfwidth": j2_hw,
            "rhs": rhs,
            "ratio": (abs(lhs) / rhs if rhs > 0
                      else (math.nan if abs(lhs) == 0 else math.inf)),
        })
    return {"s": s, "k": k, "X": X, "rows": rows}


def dilation_containment_check(s, Q, X, k, seed=0):
    """Sampled check that s-dilated minor points stay minor at cutoff Q/s.

    Nothing is drawn when the major arcs at Q cover the torus (no minor
    points), and a cutoff Q/s below 1 has no major arcs, so every dilated
    point is minor there.
    """
    if measure_major_1d(Q, X, k)["measure"] >= 1:
        return {"checked": 0, "passed": 0, "all_pass": True}
    rng = substream(seed, 0)
    minor_Q = MinorArcs1D(Q, X, k)
    minor_Qs = MinorArcs1D(Q / s, X, k) if Q >= s else None
    checked = 0
    passed = 0
    while checked < CONTAINMENT_SAMPLES:
        vals = rng.random(4 * CONTAINMENT_SAMPLES)
        vals = vals[minor_Q.mask(vals)][: CONTAINMENT_SAMPLES - checked]
        checked += len(vals)
        passed += int(minor_Qs.mask((s * vals) % 1.0).sum()) if minor_Qs else len(vals)
    return {"checked": checked, "passed": passed, "all_pass": passed == checked}


def w4_main_term_experiment(s, k, base_tuple, scale_list, l_exponent=1.0 / 3,
                            series_p_max=101, series_modcap=512):
    """End-to-end comparison: exact counts vs the density main term.

    For each scale the planted tuple is dilated and rounded, the exact count
    is computed by the half-split join, the main term from the converged
    density estimates, and additionally the L-truncated series / box-truncated
    integral at the dissection scale, plus a direct numerical integral of
    ``f^s e(-alpha.n)`` over the narrow-box union.  The asymptotic-profile cutoff
    exponent ``1/(8k^2)`` leaves a single narrow box at desk scale, so the
    default here widens it; pass ``l_exponent=None`` for the strict profile.

    Two scales coexist: ``X0 = max_j n_j^(1/j)`` is the scale the count and
    the main term report against, and ``Xd = 2 X0`` is the scale all arc
    machinery (and so ``mu_d = n_j / Xd^j``) uses.
    """
    base = np.asarray(base_tuple, dtype=float)
    params = SystemParams.pure(s, k)
    rows = []
    for scale in scale_list:
        x = np.maximum(1, np.round(scale * base).astype(int))
        n = [int(np.sum(x ** j)) for j in range(1, k + 1)]
        A = count_mitm(params, n).count
        series = singular_series_euler(n, params, p_max=series_p_max,
                                       modulus_cap=series_modcap)
        integral = singular_integral_quadrature(n, params)
        main = main_term(n, params, series, integral)["value"]
        X0, mu = target_scale(n)
        Xd = 2.0 * X0
        d = DissectionParams.from_scale(Xd, k, l_exponent=l_exponent)
        trunc_series = sum(t.value for t in series_terms(n, params, int(d.L)))
        mu_d = mu / 2.0 ** np.arange(1, k + 1)
        trunc_integral, _ = _integral_once(mu_d, s, max(d.L, 1.0), panel_scale=4.0)
        t_narrow = narrow_box_integral(s, k, n, d)
        rows.append({
            "scale": scale, "n": n, "A": A, "X0": X0,
            "series": series.value, "integral": integral.value,
            "main_term": main,
            "ratio": A / main if main != 0 else math.inf,
            "series_trunc_L": trunc_series,
            "series_trunc_gap": abs(trunc_series - series.value),
            "integral_trunc_L": trunc_integral,
            "integral_trunc_gap": abs(trunc_integral - integral.value),
            "narrow_box_integral": t_narrow,
            "L": d.L,
        })
    return {"s": s, "k": k, "rows": rows, "l_exponent": l_exponent}


def narrow_box_integral(s, k, n, d):
    """Direct quadrature of ``f^s e(-alpha.n)`` over the narrow-box union.

    Boxes sit at primitive rational centers with denominator up to L and
    per-axis half-width ``L X^{-j}``; the integrand inside a box oscillates
    about ``2 s L`` cycles per axis, and ``s L`` panels of 8 nodes give four
    nodes per cycle.
    """
    X, L = d.X, d.L
    xs = np.arange(int(math.floor(X)) + 1.0)
    panels = max(2, int(math.ceil(s * L)))
    total = 0.0 + 0.0j
    for q in range(1, int(L) + 1):
        for a in _primitive_tuples(q, k):
            axes = [gl_panels(c / q - L * X ** -j, c / q + L * X ** -j, panels)
                    for j, c in enumerate(a, start=1)]
            total += tensor_integral(xs, np.ones(len(xs)), axes, s, n)
    return total


def _primitive_tuples(q, k):
    """Numerator vectors 1..q with gcd(q, a_1..a_k) = 1 (all of them)."""
    # rolled so that cell j stands for the numerator j + 1
    rolled = np.roll(_primitive_mask(q, k), -1, axis=tuple(range(k)))
    return [tuple(int(v) for v in a) for a in np.argwhere(rolled) + 1]
