"""Exact solution counting for power-sum systems.

``count_naive`` is the simple pruned depth-first oracle.  ``count_mitm``
splits the variables in half and joins power-sum keys of the two halves:

* it enumerates one half only when the second half's coefficients equal the
  first's or are their negation (the pure system, ``mixed_sign(l, l, k)``),
  and reuses those keys, negated in the second case;
* it prunes each half during the enumeration to keys that can still meet
  the target, ``[n - max(other half), n - min(other half)]``, with the
  reachable ranges of :func:`power_range`;
* it reduces each half to sorted unique encoded keys with summed
  multiplicities and joins them with one ``searchsorted``;
* it sums the products with an int64 ``np.dot`` when a certificate rules out
  overflow, and in Python integers otherwise.

Both count ordered tuples; ``count_naive`` is the oracle for the join.
``vinogradov_count`` evaluates the full-torus even moment of the degree-k
generating sum from the same reduced histogram and certified dot (sum of
squared key frequencies).

There is one join.  Keys are int64 while a certificate bounds every power
sum below ``INT64_SAFE`` (``_int64_safe``), and encodings while the radix
product stays below it; otherwise the same numpy operations run on object
arrays of Python integers, and the count is reported as ``"mitm-bigint"``.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import INT64_SAFE, _target_vector
from .errors import BudgetExceededError, MemoryBudgetError, ValidationError
from .kernels import _key_bounds, canonical_powersum_run

MEMORY_BUDGET_BYTES = 2_000_000_000  # peak bytes of count_mitm's unpruned half rows (_row_bytes)


@dataclass
class CountResult:
    count: int
    method: str
    work: int
    elapsed: float


def default_box(params, n):
    """Tightest generic per-variable bound for the pure system.

    Every variable satisfies ``x^j <= n_j`` for each j, hence
    ``x <= min_j floor(n_j^(1/j))``.
    """
    if not params.is_pure:
        raise ValidationError("non-pure systems need an explicit box")
    bound = None
    for j, nj in enumerate(n, start=1):
        if nj < 0:
            return 0
        b = _int_root(nj, j)
        bound = b if bound is None else min(bound, b)
    return bound


def _int_root(n, j):
    """Largest integer r with r**j <= n (exact)."""
    if n < 0:
        return -1
    if j == 1:
        return n
    r = int(round(n ** (1.0 / j)))
    while r ** j > n:
        r -= 1
    while (r + 1) ** j <= n:
        r += 1
    return r


def power_range(c, j, a, b):
    """``(min, max)`` of ``c * v**j`` over the integers ``v`` in ``[a, b]``, ``a <= b``.

    ``v**j`` is monotone on each side of 0, so the extremes lie at ``a``,
    ``b`` or, when ``a <= 0 <= b``, at 0.
    """
    ends = [c * a ** j, c * b ** j] + ([0] if a <= 0 <= b else [])
    return min(ends), max(ends)


def count_naive(params, n, box=None, x_min=None, budget=50_000_000):
    """Ordered solution count by pruned depth-first enumeration."""
    n = _target_vector(n)
    if len(n) != params.k:
        raise ValidationError("target length must equal k")
    lo = params.x_min if x_min is None else int(x_min)
    if box is None:
        box = default_box(params, n)
    box = int(box)
    t0 = time.perf_counter()
    k = params.k
    coeffs = params.coeffs
    s = params.s
    if box < lo:
        return CountResult(0, "naive", 0, time.perf_counter() - t0)

    # per-depth residual bounds: with variables i..s-1 unassigned, the
    # reachable residual in coordinate j lies in [lo_bound, hi_bound]
    suffix_min = [[0] * k for _ in range(s + 1)]
    suffix_max = [[0] * k for _ in range(s + 1)]
    for i in range(s - 1, -1, -1):
        for j in range(k):
            a, b = power_range(coeffs[i], j + 1, lo, box)
            suffix_min[i][j] = suffix_min[i + 1][j] + a
            suffix_max[i][j] = suffix_max[i + 1][j] + b

    pow_table = [[v ** j for j in range(1, k + 1)] for v in range(lo, box + 1)]
    work = 0
    count = 0
    residual = list(n)

    # iterative DFS over assignment depth
    stack = [(0, lo)]  # (depth, next value to try)
    chosen = []
    while stack:
        depth, v = stack.pop()
        if len(chosen) > depth:
            # undo deeper assignments
            while len(chosen) > depth:
                dv, dc = chosen.pop()
                pw = pow_table[dv - lo]
                for j in range(k):
                    residual[j] += dc * pw[j]
        if v > box:
            continue
        stack.append((depth, v + 1))
        work += 1
        if work > budget:
            raise BudgetExceededError("naive enumeration budget exceeded", work_done=work)
        c = coeffs[depth]
        pw = pow_table[v - lo]
        ok = True
        for j in range(k):
            r = residual[j] - c * pw[j]
            if not (suffix_min[depth + 1][j] <= r <= suffix_max[depth + 1][j]):
                ok = False
                break
        if not ok:
            continue
        for j in range(k):
            residual[j] -= c * pw[j]
        chosen.append((v, c))
        if depth + 1 == s:
            if all(r == 0 for r in residual):
                count += 1
            dv, dc = chosen.pop()
            pw = pow_table[dv - lo]
            for j in range(k):
                residual[j] += dc * pw[j]
        else:
            stack.append((depth + 1, lo))
    return CountResult(count, "naive", work, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# meet-in-the-middle
# ---------------------------------------------------------------------------

def _coeff_runs(coeffs):
    """Split a coefficient tuple into (value, length) runs of equal value."""
    runs = []
    for c in coeffs:
        if runs and runs[-1][0] == c:
            runs[-1][1] += 1
        else:
            runs.append([c, 1])
    return [(c, t) for c, t in runs]


def _reach(coeffs, lo, hi, k):
    """Componentwise ``(mins, maxs)`` of the key of a variable block over ``[lo, hi]``."""
    ranges = [[power_range(c, j, lo, hi) for c in coeffs] for j in range(1, k + 1)]
    return [sum(r[0] for r in rj) for rj in ranges], [sum(r[1] for r in rj) for rj in ranges]


def _mirror_sign(c_first, c_second):
    """1 when the second half's coefficients are the first's, -1 when they
    are their negation, else 0."""
    return (1 if c_second == c_first
            else -1 if c_second == tuple(-c for c in c_first) else 0)


def _half_histogram(coeffs, lo, hi, k, key_min, key_max, dtype):
    """Keys in ``[key_min, key_max]`` and multiplicities of one variable block.

    Variables with equal coefficients are enumerated canonically and weighted
    by the multinomial multiplicity; distinct coefficient runs combine by
    Cartesian product.  Each run is pruned during its enumeration, and after
    each product the rows that the later runs can no longer bring into the
    bounds are dropped.  Keys have ``dtype`` (int64, or object for Python
    integers).  Multiplicities are Python integers when the block's
    ``(hi - lo + 1)^len(coeffs)`` ordered tuples could overflow an int64 sum.
    """
    runs = _coeff_runs(coeffs)
    reach = [_reach((c,) * t, lo, hi, k) for c, t in runs]
    keys = np.zeros((1, k), dtype=dtype)
    exact64 = (hi - lo + 1) ** len(coeffs) < INT64_SAFE
    mult = np.ones(1, dtype=np.int64 if exact64 else object)
    for i, (c, t) in enumerate(runs):
        # what the runs after this one can still add
        rest_min = [sum(r[0][j] for r in reach[i + 1:]) for j in range(k)]
        rest_max = [sum(r[1][j] for r in reach[i + 1:]) for j in range(k)]
        part_min = [key_min[j] - rest_max[j] for j in range(k)]
        part_max = [key_max[j] - rest_min[j] for j in range(k)]
        rk, rm = canonical_powersum_run(
            t, lo, hi, k, coeff=c,
            key_min=[part_min[j] - int(keys[:, j].max()) for j in range(k)],
            key_max=[part_max[j] - int(keys[:, j].min()) for j in range(k)])
        keys = (keys[:, None, :] + rk[None, :, :]).reshape(-1, k)
        mult = (mult[:, None] * rm[None, :]).reshape(-1)
        if i:
            ok = np.all((keys >= _key_bounds(part_min, dtype))
                        & (keys <= _key_bounds(part_max, dtype)), axis=1)
            keys, mult = keys[ok], mult[ok]
        if not len(keys):
            break
    return keys, mult


def _int64_safe(params, lo, hi):
    worst = max(abs(lo), abs(hi))
    per_var = max(abs(c) for c in params.coeffs) * worst ** params.k
    return params.s * per_var < INT64_SAFE


def _column_bounds(*key_arrays):
    """Per-column ``(lo, hi)`` of k-column keys over all the arrays."""
    k = key_arrays[0].shape[1]
    return ([min(int(a[:, j].min()) for a in key_arrays) for j in range(k)],
            [max(int(a[:, j].max()) for a in key_arrays) for j in range(k)])


def _encode_keys(keys, lo, hi):
    """Mixed-radix encoding of rows of k-column keys with ``lo_j <= keys[:, j] <= hi_j``.

    Returns the encodings and the strides: ``enc = sum_j (key_j - lo_j)
    stride_j``.  Encodings are int64 for int64 keys whose radix product
    stays below ``INT64_SAFE``, and Python integers (object) otherwise.
    """
    radix = [h - l + 1 for l, h in zip(lo, hi)]
    if math.prod(radix) >= INT64_SAFE:
        keys = keys.astype(object)
    enc = np.zeros(len(keys), dtype=keys.dtype)
    strides = [math.prod(radix[:j]) for j in range(len(radix))]
    for j, stride in enumerate(strides):
        enc += (keys[:, j] - lo[j]) * stride
    return enc, strides


def _unique_sum(enc, mult):
    """Sorted unique encoded keys (non-empty input) with summed multiplicities."""
    order = np.argsort(enc)
    enc, mult = enc[order], mult[order]
    starts = np.flatnonzero(np.r_[True, enc[1:] != enc[:-1]])
    return enc[starts], np.add.reduceat(mult, starts)


def _certified_dot(a, b):
    """Exact ``sum(a * b)`` of non-negative integer multiplicity arrays.

    int64 ``np.dot`` runs only when ``max(a) * sum(b) < INT64_SAFE``, which
    bounds every partial sum; otherwise the sum is taken in Python integers.
    ``b.sum()`` is exact: int64 multiplicities here come from histograms of
    fewer than INT64_SAFE ordered tuples.
    """
    if not len(a):
        return 0
    if (a.dtype != object and b.dtype != object
            and int(a.max()) * int(b.sum()) < INT64_SAFE):
        return int(np.dot(a, b))
    return int(np.dot(a.astype(object), b.astype(object)))


def _row_bytes(k, dtype):
    """Peak bytes per unpruned half row: keys, their complements, encodings
    and enumeration temporaries, ``3 k + 10`` cells of 8 bytes for int64 keys
    (110-145 bytes a row measured at k = 2 and 3) and of 24 bytes for Python
    integers, a pointer and its share of the int objects (550-1045 bytes a
    row, 19.6-22.7 a cell, measured at k = 6..12)."""
    return (24 if dtype == object else 8) * (3 * k + 10)


def count_mitm(params, n, box=None, x_min=None, budget=50_000_000):
    """Ordered solution count via half-split histogram join."""
    n = _target_vector(n)
    if len(n) != params.k:
        raise ValidationError("target length must equal k")
    lo = params.x_min if x_min is None else int(x_min)
    if box is None:
        box = default_box(params, n)
    box = int(box)
    t0 = time.perf_counter()
    if box < lo:
        return CountResult(0, "mitm", 0, time.perf_counter() - t0)
    k = params.k
    s1 = (params.s + 1) // 2
    c_first, c_second = params.coeffs[:s1], params.coeffs[s1:]
    # the second half reuses the first's enumeration when its coefficients
    # are the same (sign 1) or their negation (sign -1)
    sign = _mirror_sign(c_first, c_second)
    halves = (c_first,) if sign else (c_first, c_second)

    # rows before pruning: per half, the Cartesian product of its run blocks
    rows = sum(math.prod(math.comb(box - lo + t, t) for _, t in _coeff_runs(half))
               for half in halves)
    dtype = np.int64 if _int64_safe(params, lo, box) else object
    if rows * _row_bytes(k, dtype) > MEMORY_BUDGET_BYTES:
        raise MemoryBudgetError(
            "half histogram would exceed the memory budget; use a smaller box",
            work_done=0,
        )
    # canonical tuples of the halves enumerated
    work = sum(math.comb(box - lo + t, t) for half in halves for _, t in _coeff_runs(half))
    if work > budget:
        raise BudgetExceededError("mitm enumeration budget exceeded", work_done=0)

    min1, max1 = _reach(c_first, lo, box, k)
    min2, max2 = _reach(c_second, lo, box, k)
    if any(not a + c <= nj <= b + d for nj, a, b, c, d in zip(n, min1, max1, min2, max2)):
        return CountResult(0, "mitm", work, time.perf_counter() - t0)
    # a key K of one half can meet the other half only if n - K is reachable
    lo1, hi1 = [nj - v for nj, v in zip(n, max2)], [nj - v for nj, v in zip(n, min2)]
    lo2, hi2 = [nj - v for nj, v in zip(n, max1)], [nj - v for nj, v in zip(n, min1)]
    if sign:
        # one enumeration K is the first half and sign * K the second
        if sign < 0:
            lo2, hi2 = [-v for v in hi2], [-v for v in lo2]
        k1, m1 = _half_histogram(c_first, lo, box, k, list(map(min, lo1, lo2)),
                                 list(map(max, hi1, hi2)), dtype)
        if not len(k1):
            return CountResult(0, "mitm", work, time.perf_counter() - t0)
        # K is encoded once, with a radix that also holds its image n - sign K,
        # and sorted once: enc(n - sign K) = delta - sign enc(K), so the
        # image's sorted keys are delta - u1 reversed (sign 1) or u1 + delta
        klo, khi = _column_bounds(k1)
        ends = [(nj - sign * a, nj - sign * b) for nj, a, b in zip(n, klo, khi)]
        klo = [min(a, *e) for a, e in zip(klo, ends)]
        khi = [max(b, *e) for b, e in zip(khi, ends)]
        e1, strides = _encode_keys(k1, klo, khi)
        u1, c1 = _unique_sum(e1, m1)
        delta = sum((nj - (1 + sign) * a) * st for nj, a, st in zip(n, klo, strides))
        u2, c2 = (delta - u1[::-1], c1[::-1]) if sign > 0 else (u1 + delta, c1)
    else:
        k1, m1 = _half_histogram(c_first, lo, box, k, lo1, hi1, dtype)
        k2, m2 = _half_histogram(c_second, lo, box, k, lo2, hi2, dtype)
        if not (len(k1) and len(k2)):
            return CountResult(0, "mitm", work, time.perf_counter() - t0)
        k2 = np.asarray(n, dtype=dtype)[None, :] - k2
        bounds = _column_bounds(k1, k2)
        (e1, _), (e2, _) = _encode_keys(k1, *bounds), _encode_keys(k2, *bounds)
        u1, c1 = _unique_sum(e1, m1)
        u2, c2 = _unique_sum(e2, m2)
    pos = np.minimum(np.searchsorted(u1, u2), len(u1) - 1)
    hit = u1[pos] == u2
    total = _certified_dot(c1[pos[hit]], c2[hit])
    method = "mitm-bigint" if e1.dtype == object else "mitm"
    return CountResult(total, method, work, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# full-torus even moments (Vinogradov mean values)
# ---------------------------------------------------------------------------

def powersum_histogram(t, k, hi, x_min=1):
    """Frequencies r(m) of power-sum keys over ordered t-tuples in [x_min, hi].

    Returns ``(keys, counts)``: the sorted mixed-radix encodings of the
    distinct keys (int64, or Python integers past int64) and their exact
    frequencies (int64, or Python integers when ``(hi - x_min + 1)^t`` could
    overflow); used by the mean-value evaluators.
    """
    if hi < x_min:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=object)
    keys, mult = canonical_powersum_run(t, x_min, hi, k)
    if (hi - x_min + 1) ** t >= INT64_SAFE:
        mult = mult.astype(object)
    return _unique_sum(_encode_keys(keys, *_column_bounds(keys))[0], mult)


def vinogradov_count(t, k, X, x_min=1, budget=50_000_000):
    """Exact 2t-th moment count: pairs of t-tuples with equal power sums."""
    if t < 1 or k < 1:
        raise ValidationError("t and k must be positive")
    hi = int(math.floor(X))
    n_tuples = math.comb(hi - x_min + t, t) if hi >= x_min else 0
    if n_tuples > budget:
        raise BudgetExceededError("mean-value enumeration budget exceeded",
                                  work_done=0)
    _, counts = powersum_histogram(t, k, hi, x_min=x_min)
    return _certified_dot(counts, counts)


def mvt_scaling_experiment(t, k, X_list, budget=50_000_000):
    """Fit the log-log growth of the mean value over a list of scales."""
    X_list = list(X_list)
    if len(X_list) < 3:
        raise ValidationError("need at least 3 scales for a slope fit")
    rows = [{"X": X, "J": vinogradov_count(t, k, X, budget=budget)} for X in X_list]
    logx = np.log([r["X"] for r in rows])
    logj = np.log([float(r["J"]) for r in rows])
    slope, intercept = np.polyfit(logx, logj, 1)
    return {
        "t": t,
        "k": k,
        "rows": rows,
        "slope": float(slope),
        "intercept": float(intercept),
        "critical_exponent": 2 * t - k * (k + 1) / 2,
        "subcritical_exponent": 2 * t - k,
    }

