"""Exact solution counting for power-sum systems.

``count_naive`` is the simple pruned depth-first oracle; ``count_mitm``
splits the variables in half, histograms power-sum keys of the first half,
and joins the second half against the complement key.  Both count ordered
tuples and agree exactly wherever both run.  ``vinogradov_count`` evaluates
the full-torus even moment of the degree-k generating sum by the same
histogram machinery (sum of squared key frequencies).

Histograms stay in int64 arrays while value ranges provably fit; otherwise
the enumeration falls back to exact Python integers.
"""

import math
import time
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .core import INT64_SAFE, _target_vector
from .errors import BudgetExceededError, MemoryBudgetError, ValidationError
from .kernels import canonical_powersum_run


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
    lo_pows = [lo ** j for j in range(1, k + 1)]
    hi_pows = [box ** j for j in range(1, k + 1)]
    suffix_min = [[0] * k for _ in range(s + 1)]
    suffix_max = [[0] * k for _ in range(s + 1)]
    for i in range(s - 1, -1, -1):
        c = coeffs[i]
        for j in range(k):
            a = c * lo_pows[j]
            b = c * hi_pows[j]
            if a > b:
                a, b = b, a
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


def _half_histogram(coeffs, lo, hi, k):
    """Keys and multiplicities for ordered tuples of one variable block.

    Variables with equal coefficients are enumerated canonically and weighted
    by the multinomial multiplicity; distinct coefficient runs combine by
    Cartesian product.
    """
    keys = np.zeros((1, k), dtype=np.int64)
    mult = np.ones(1, dtype=np.int64)
    for c, t in _coeff_runs(coeffs):
        rk, rm = canonical_powersum_run(t, lo, hi, k, coeff=c)
        keys = (keys[:, None, :] + rk[None, :, :]).reshape(-1, k)
        mult = (mult[:, None] * rm[None, :]).reshape(-1)
    return keys, mult


def _int64_safe(params, lo, hi):
    worst = max(abs(lo), abs(hi))
    per_var = max(abs(c) for c in params.coeffs) * worst ** params.k
    return params.s * per_var < INT64_SAFE


def _encode_keys(*key_arrays):
    """Mixed-radix encode rows of k-column int64 keys into scalars.

    Returns encoded arrays (same order) or None when the radix product would
    overflow int64.
    """
    k = key_arrays[0].shape[1]
    lo = np.array([min(int(a[:, j].min()) for a in key_arrays) for j in range(k)])
    hi = np.array([max(int(a[:, j].max()) for a in key_arrays) for j in range(k)])
    radix = (hi - lo + 1).astype(object)
    total = 1
    for r in radix:
        total *= int(r)
    if total >= INT64_SAFE:
        return None
    out = []
    for a in key_arrays:
        enc = np.zeros(len(a), dtype=np.int64)
        stride = 1
        for j in range(k):
            enc += (a[:, j] - lo[j]) * stride
            stride *= int(radix[j])
        out.append(enc)
    return out


def count_mitm(params, n, box=None, x_min=None, budget=50_000_000,
               memory_budget_bytes=2_000_000_000):
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
    s1 = (params.s + 1) // 2
    c_first, c_second = params.coeffs[:s1], params.coeffs[s1:]

    est_rows = math.comb(box - lo + s1, s1)
    if est_rows * 24 > memory_budget_bytes:
        raise MemoryBudgetError(
            "half histogram would exceed the memory budget; "
            "use a smaller box or a larger memory_budget_bytes",
            work_done=0,
        )
    # canonical tuples both halves would enumerate, one block per coefficient run
    work = sum(math.comb(box - lo + t, t)
               for half in (c_first, c_second) for _, t in _coeff_runs(half))
    if work > budget:
        raise BudgetExceededError("mitm enumeration budget exceeded", work_done=0)

    if not _int64_safe(params, lo, box):
        return _count_mitm_python(params, n, lo, box, s1, t0)

    k1, m1 = _half_histogram(c_first, lo, box, params.k)
    k2, m2 = _half_histogram(c_second, lo, box, params.k)
    need = np.asarray(n, dtype=np.int64)[None, :] - k2
    enc = _encode_keys(k1, need)
    if enc is None:
        return _count_mitm_python(params, n, lo, box, s1, t0)
    e1, eneed = enc
    order = np.argsort(e1, kind="stable")
    e1s = e1[order]
    m1s = m1[order]
    csum = np.concatenate(([0], np.cumsum(m1s.astype(object))))
    left = np.searchsorted(e1s, eneed, side="left")
    right = np.searchsorted(e1s, eneed, side="right")
    total = 0
    for i in range(len(eneed)):
        if right[i] > left[i]:
            total += int(csum[right[i]] - csum[left[i]]) * int(m2[i])
    return CountResult(total, "mitm", work, time.perf_counter() - t0)


def _count_mitm_python(params, n, lo, box, s1, t0):
    """Exact big-integer fallback with dict join."""
    k = params.k

    def half(coeffs):
        table = {(0,) * k: 1}
        for c, t in _coeff_runs(coeffs):
            block = {}
            for tup in combinations_with_replacement(range(lo, box + 1), t):
                key = tuple(c * sum(v ** j for v in tup) for j in range(1, k + 1))
                mult = math.factorial(t)
                run = 1
                for i in range(1, t):
                    if tup[i] == tup[i - 1]:
                        run += 1
                    else:
                        mult //= math.factorial(run)
                        run = 1
                mult //= math.factorial(run)
                block[key] = block.get(key, 0) + mult
            new = {}
            for key1, mu1 in table.items():
                for key2, mu2 in block.items():
                    key = tuple(a + b for a, b in zip(key1, key2))
                    new[key] = new.get(key, 0) + mu1 * mu2
            table = new
        return table

    h1 = half(params.coeffs[:s1])
    h2 = half(params.coeffs[s1:])
    work = len(h1) + len(h2)
    total = 0
    for key2, mu2 in h2.items():
        need = tuple(a - b for a, b in zip(n, key2))
        mu1 = h1.get(need)
        if mu1:
            total += mu1 * mu2
    return CountResult(total, "mitm-bigint", work, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# full-torus even moments (Vinogradov mean values)
# ---------------------------------------------------------------------------

def powersum_histogram(t, k, hi, x_min=1):
    """Frequencies r(m) of power-sum keys over ordered t-tuples in [x_min, hi].

    Returns ``(encoded_or_raw_keys, counts)`` where counts are exact ints;
    used by the mean-value evaluators.  The raw (k-column) keys are returned
    when int64 encoding is not possible.
    """
    if hi < x_min:
        return np.zeros((0, k), dtype=np.int64), np.zeros(0, dtype=object)
    if t * hi ** k < INT64_SAFE:
        keys, mult = canonical_powersum_run(t, x_min, hi, k)
        enc = _encode_keys(keys)
        if enc is not None:
            e = enc[0]
            order = np.argsort(e, kind="stable")
            es, ms = e[order], mult[order]
            boundaries = np.flatnonzero(np.diff(es)) + 1
            groups = np.split(ms, boundaries)
            counts = np.array([int(g.sum()) for g in groups], dtype=object)
            uniq = es[np.concatenate(([0], boundaries))]
            return uniq, counts
    table = {}
    for tup in combinations_with_replacement(range(x_min, hi + 1), t):
        key = tuple(sum(v ** j for v in tup) for j in range(1, k + 1))
        mult = math.factorial(t)
        run = 1
        for i in range(1, t):
            if tup[i] == tup[i - 1]:
                run += 1
            else:
                mult //= math.factorial(run)
                run = 1
        mult //= math.factorial(run)
        table[key] = table.get(key, 0) + mult
    items = sorted(table.items())
    return [key for key, _ in items], np.array([c for _, c in items], dtype=object)


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
    return int(sum(int(c) * int(c) for c in counts))


def mvt_scaling_experiment(t, k, X_list, x_min=1, budget=50_000_000):
    """Fit the log-log growth of the mean value over a list of scales."""
    X_list = list(X_list)
    if len(X_list) < 3:
        raise ValidationError("need at least 3 scales for a slope fit")
    rows = []
    for X in X_list:
        J = vinogradov_count(t, k, X, x_min=x_min, budget=budget)
        rows.append({"X": X, "J": J})
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


def unordered_count(params, n, box=None, budget=50_000_000):
    """Derived report: number of solution multisets (pure system only)."""
    if not params.is_pure:
        raise ValidationError("unordered counts are defined for the pure system")
    n = _target_vector(n)
    if box is None:
        box = default_box(params, n)
    if box < 0:
        return 0
    if math.comb(box + params.s, params.s) > budget:
        raise BudgetExceededError("unordered enumeration budget exceeded")
    target = tuple(n)
    total = 0
    for tup in combinations_with_replacement(range(0, box + 1), params.s):
        key = tuple(sum(v ** j for v in tup) for j in range(1, params.k + 1))
        if key == target:
            total += 1
    return total
