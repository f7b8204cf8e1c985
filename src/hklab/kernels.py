"""Hot numeric kernels.

All kernels are numpy only.

The modular convolution step (``conv_mod``) works on a translation slab.
Moving every variable of a half by ``t`` maps its residue key ``v`` to
``(T_t v)_j = sum_{l<=j} C(j,l) t^(j-l) v_l`` with ``v_0 = C``, the sum of
the half's coefficients (Vaughan, *The Hardy-Littlewood Method*, ch. 4), so
the half's histogram satisfies ``H(T_t v) = H(v)`` for every ``t mod m``.
As ``(T_t v)_1 = v_1 + C t``, every cell has a translate with
``v_1 < g = gcd(C, m)`` (``g = m`` when ``C = 0 mod m``); the half is held
as that slab of ``g m^(k-1)`` cells.  Adding a variable is ``g' m^k`` exact
integer gathers, ``g'`` the new ``gcd``, for int64 and object (Python int)
cells alike; ``expand_slab`` rebuilds the full ``m^k`` grid.

Phase sums use a blocked Taylor-shift engine.  The range of ``n`` terms is
cut into as few blocks of equal length ``B`` as ``B^k <= 2^15`` and
``B <= 256`` allow (the last block may fall short), and never fewer than
two: numpy's in-place complex product rounds a one-element array unlike its
vector loop, and one block per row would make a one-row call differ from
its batch in the last bits.  For a block starting at ``b`` the phase is
``p(b + v) = sum_l d_l(b) v^l`` with ``d_l(b) = sum_j c_j C(j,l) b^(j-l)``;
since ``v`` is an integer only ``d_l mod 1`` matters.  Each product of
``c_j`` with the integer ``C(j,l) b^(j-l)`` is reduced mod 1 by ``mul_mod1``
(Dekker's two-product; the integer is split into exact 53-bit limbs when it
is larger), so ``d_l mod 1`` is correct to a few ulp whatever ``b`` is; the
``n^k eps`` drift of a difference table run over the whole range never
arises.  Inside a block a multiplicative difference engine advances
``e(Delta^i p)``, vectorised over all rows and blocks: one Python step per
in-block index and ``k`` complex exponentials per block (``Delta^k p`` is
the same in every block).  A term's
phase error is at most a small multiple of ``B^k eps`` (about 1e-11), so a
sum over ``n`` terms is off by at most about ``1e-11 n``.  Against an exact
rational reference at random points the error stayed below 7e-10 for
``k <= 4`` and ``n <= 10^4``; near a rational with small denominator, where
``|f|`` is of order ``n``, it reached 5e-9 (a relative 1e-12).
"""

import functools
import math

import numpy as np

from .core import INT64_SAFE
from .errors import ValidationError


# ---------------------------------------------------------------------------
# batched phase-polynomial sums:  sum_{u=u0}^{u1} e(c_1 u + ... + c_k u^k)
# ---------------------------------------------------------------------------

_LIMB_BITS = 53      # an integer below 2^53 is an exact float64
_TILE = 1 << 14      # elements per phase tile or slab-step block; keeps temporaries in cache
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant


def _blocks(k, n):
    """Block length ``B`` and block count for ``n >= 1`` terms of degree ``k``.

    As few balanced blocks as ``B^k <= 2^15`` (rounding stays small) and
    ``B <= 256`` allow, and at least two, so that a one-row call matches its
    batch bit for bit (see the module docstring).
    """
    nb = max(min(n, 2), -(-n // min(256, max(2, int(2.0 ** (15.0 / k))))))
    return -(-n // nb), nb


def _centred(x):
    """``x - rint(x)`` in ``[-1/2, 1/2]``; exact for every float64."""
    return x - np.rint(x)


def mul_mod1(a, b):
    """``a * b`` minus a whole number, in ``[-1, 1]``, for integers ``|b| < 2^53``.

    Dekker's two-product (Numer. Math. 18, 1971) of the centred ``a`` and
    ``b`` is ``p + e`` exactly, so removing ``rint(p)`` leaves a few ulp of 1
    however large ``b`` is.
    """
    a = _centred(a)
    t, u = _SPLIT * a, _SPLIT * b  # Veltkamp: halves of at most 26 bits
    a_hi, b_hi = t - (t - a), u - (u - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    p = a * b
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return _centred(p) + e


def _taylor_multipliers(k, b0, nb, B):
    """Exact limbs of the shift multipliers ``C(j,l) b^(j-l)``, ``l < j <= k``.

    ``b`` runs over the block starts ``b0 + B i``, ``i < nb``.  Each multiplier
    is written as ``sum_i m_i 2^(53 i)`` with every ``|m_i| < 2^53``, so each
    limb is an exact float64.  Returns ``(l, j, i)`` per row of the limb
    table, sorted by ``l``, and the table itself, shape ``(T, nb)``.
    """
    bmax = max(abs(b0), abs(b0 + B * (nb - 1)))
    wide = max(math.comb(j, l) * bmax ** (j - l)
               for j in range(1, k + 1) for l in range(j)) >= 1 << 62
    b = np.arange(nb, dtype=np.int64) * B + b0
    if wide:
        b = b.astype(object)
    index, limbs = [], []
    for l in range(k):
        for j in range(l + 1, k + 1):
            M = math.comb(j, l) * b ** (j - l)
            bits = (math.comb(j, l) * bmax ** (j - l)).bit_length()
            mag, sign = abs(M), np.sign(M)
            for i in range(max(1, -(-bits // _LIMB_BITS))):
                part = (mag >> (_LIMB_BITS * i)) & ((1 << _LIMB_BITS) - 1)
                limbs.append((sign * part).astype(np.float64))
                index.append((l, j, i))
    return np.array(index), np.array(limbs)


@functools.lru_cache(maxsize=None)
def _difference_matrix(k):
    """``D[i, l] = (Delta^i v^l)(0)``: forward differences of the monomials."""
    return np.array([[sum((-1) ** (i - v) * math.comb(i, v) * v ** l
                           for v in range(i + 1)) for l in range(k + 1)]
                     for i in range(k + 1)], dtype=np.float64)


def _block_sums(c, index, limbs, B, last):
    """Per-row sums over consecutive blocks of ``B`` terms.

    ``c`` holds the centred coefficients, shape ``(m, k)``; ``index`` and
    ``limbs`` come from :func:`_taylor_multipliers` for the block starts;
    ``last`` is the number of terms in the final block.
    """
    m, k = c.shape
    l_of, j_of, i_of = index.T
    # c_j 2^(53 i) mod 1, exactly, for every limb index in use
    scaled = [c]
    for _ in range(int(i_of.max())):
        scaled.append(_centred(scaled[-1] * float(1 << _LIMB_BITS)))
    cj = np.stack(scaled)[i_of, :, j_of - 1][:, :, None]      # (T, m, 1)
    r = mul_mod1(cj, limbs[:, None, :])                      # (T, m, nb)
    # d_l(b) = sum_j c_j C(j,l) b^(j-l) mod 1: the shifted coefficients
    starts = np.flatnonzero(np.r_[True, l_of[1:] != l_of[:-1]])
    d = np.empty((k + 1, m, r.shape[2]))
    d[:k] = np.add.reduceat(r, starts, axis=0)
    d[k] = 0.0
    d[1:] += c.T[:, :, None]
    d = _centred(d)
    # e(Delta^i p) at v = 0 for every block, advanced multiplicatively
    theta = _centred(np.einsum("il,lmb->imb", _difference_matrix(k), d))
    z = np.exp(2j * np.pi * theta[:k])
    zk = np.exp(2j * np.pi * theta[k][:, :1])  # Delta^k = k! c_k in every block
    acc = z[0].copy()
    for v in range(1, B):
        for i in range(k - 1):
            z[i] *= z[i + 1]
        z[k - 1] *= zk
        if v < last:
            acc += z[0]
        else:
            acc[:, :-1] += z[0][:, :-1]
    return acc.sum(axis=1)


def phase_poly_sums(coeffs, u0, u1):
    """Batch of sums ``sum_{u=u0}^{u1} e(sum_j coeffs[r,j] u^(j+1))``.

    ``coeffs`` is ``(m, k)`` float64; returns ``(m,)`` complex128.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
    if coeffs.ndim != 2:
        raise ValueError("coeffs must be 2-d (batch, degree)")
    if not np.all(np.isfinite(coeffs)):
        raise ValidationError("non-finite frequency")
    u0, u1 = int(u0), int(u1)
    m, k = coeffs.shape
    out = np.zeros(m, dtype=np.complex128)
    n = u1 - u0 + 1
    if n <= 0:
        return out
    if k == 0:
        return out + n
    c = _centred(coeffs)
    B, nb = _blocks(k, n)
    span = min(nb, _TILE)
    rows = max(1, _TILE // span)
    for i0 in range(0, nb, span):
        cnt = min(span, nb - i0)
        last = n - (nb - 1) * B if i0 + cnt == nb else B
        index, limbs = _taylor_multipliers(k, u0 + i0 * B, cnt, B)
        for r0 in range(0, m, rows):
            out[r0:r0 + rows] += _block_sums(c[r0:r0 + rows], index, limbs, B, last)
    return out


# ---------------------------------------------------------------------------
# canonical (non-decreasing) tuple enumeration with power-sum keys
# ---------------------------------------------------------------------------

def _enum_canonical(t, powtab, key_min, key_max):
    """Non-decreasing ``t``-rows of value indices and their keys, pruned by bounds.

    ``powtab[i]`` is the key of the single value ``i``.  With bounds, a row
    of depth ``d`` whose last index is ``i`` is dropped when its key plus
    ``t - d`` times the range of ``powtab`` over indices ``>= i`` cannot land
    in ``[key_min, key_max]``, so every completed row lies inside them.
    """
    nv, k = powtab.shape
    if key_min is not None:
        # suffix extremes: the reachable key range of one more value >= row[-1]
        suf_min = np.minimum.accumulate(powtab[::-1], axis=0)[::-1]
        suf_max = np.maximum.accumulate(powtab[::-1], axis=0)[::-1]

    def prune(rows, keys, left):
        if key_min is None:
            return rows, keys
        last = rows[:, -1]
        ok = np.ones(len(rows), dtype=bool)
        for j in range(k):
            ok &= keys[:, j] + left * suf_min[last, j] <= key_max[j]
            ok &= keys[:, j] + left * suf_max[last, j] >= key_min[j]
        return rows[ok], keys[ok]

    idx = np.min_scalar_type(nv)
    rows, keys = prune(np.arange(nv, dtype=idx).reshape(-1, 1), powtab, t - 1)
    for d in range(1, t):
        last = rows[:, -1].astype(np.int64)
        counts = nv - last
        rep = np.repeat(np.arange(len(rows)), counts)
        # new last index: last[rep] plus the position within each row's block
        new_last = np.arange(len(rep)) - np.repeat(np.cumsum(counts) - counts - last, counts)
        rows = np.column_stack([rows[rep], new_last.astype(idx)])
        keys = keys[rep] + powtab[new_last]
        rows, keys = prune(rows, keys, t - d - 1)
    return rows, keys


def tuple_multiplicities(rows):
    """Ordered rearrangements ``t! / prod(run!)`` of each non-decreasing row.

    ``rows`` is ``(N, t)``; equal neighbours form a run.  The result is int64,
    or Python integers (object) when ``t!`` does not fit int64.
    """
    n, t = rows.shape
    facts = [math.factorial(i) for i in range(t + 1)]
    facts = np.array(facts, dtype=np.int64 if facts[-1] < 2 ** 63 else object)
    prod = np.ones(n, dtype=facts.dtype)
    run = np.ones(n, dtype=np.int64)
    for i in range(1, t):
        same = rows[:, i] == rows[:, i - 1]
        prod = np.where(same, prod, prod * facts[run])
        run = np.where(same, run + 1, 1)
    return facts[t] // (prod * facts[run])


def _key_bounds(bounds, dtype):
    """Integer key bounds as a ``dtype`` array.  int64 bounds are clipped into
    ``[-INT64_SAFE, INT64_SAFE]``, which holds every key of an int64 table."""
    if dtype == object:
        return np.array([int(v) for v in bounds], dtype=object)
    return np.array([min(max(int(v), -INT64_SAFE), INT64_SAFE) for v in bounds],
                    dtype=np.int64)


def canonical_powersum_run(t, lo, hi, k, coeff=1, key_min=None, key_max=None):
    """Keys and multiplicities of non-decreasing ``t``-tuples in ``[lo, hi]``.

    Key of a tuple is ``coeff * (sum x, sum x^2, ..., sum x^k)``;
    multiplicity is the number of ordered rearrangements.  Returns
    ``(keys (N,k), mult (N,))``.  Keys are int64 when
    ``t * |coeff| * max(|lo|,|hi|)^k < INT64_SAFE``, which bounds every
    partial key, and Python integers (object) otherwise; ``mult`` is int64
    (Python integers once ``t! >= 2^63``).  With ``key_min`` and ``key_max``
    (length ``k``) only tuples whose key lies in ``[key_min, key_max]`` in
    every component are returned, and partial tuples that cannot reach that
    box are dropped during the enumeration.
    """
    dtype = np.int64 if t * abs(coeff) * max(abs(lo), abs(hi)) ** k < INT64_SAFE else object
    vals = np.arange(lo, hi + 1, dtype=np.int64).astype(dtype, copy=False)
    powtab = np.empty((len(vals), k), dtype=dtype)
    acc = vals * int(coeff)
    for j in range(k):
        powtab[:, j] = acc
        if j < k - 1:
            acc = acc * vals
    if key_min is not None:
        key_min, key_max = _key_bounds(key_min, dtype), _key_bounds(key_max, dtype)
    if t == 0:
        keys = np.zeros((1, k), dtype=dtype)
        if key_min is not None and not np.all((key_min <= 0) & (0 <= key_max)):
            keys = keys[:0]
        return keys, np.ones(len(keys), dtype=np.int64)
    rows, keys = _enum_canonical(t, powtab, key_min, key_max)
    return keys, tuple_multiplicities(rows)


# ---------------------------------------------------------------------------
# translation slabs of residue histograms, for counting solutions mod m
# ---------------------------------------------------------------------------

def _slab_gather(windows, m, C, u1, d):
    """``H(u1[p], w_2 - d[p, 1], ..., w_k - d[p, k-1])`` for every ``p`` and ``w``.

    ``H`` is the histogram of a half whose coefficients sum to ``C`` and
    ``windows`` is :func:`_windows` of its slab; ``d`` is ``(P, k)``.  Each
    ``u`` is read at the translate ``T_t u`` whose first key ``u1 + C t`` is
    the slab row ``r = u1 mod g``, ``g = gcd(C, m)`` (``m`` when
    ``C = 0 mod m``; ``t`` is unique mod ``m / g``).  For ``j >= 2``,
    ``(T_t u)_j = sum_{l<=j} C(j,l) t^(j-l) u_l`` with ``u_0 = C`` is
    ``sum_{2<=l<=j} C(j,l) t^(j-l) w_l`` plus a part ``beta_j`` fixed by
    ``p``.  That map is built once per ``p``; its last coordinate is a
    cyclic shift of ``w_k``, read as one window, so a cell costs one gather.
    Returns shape ``(P,) + (m,) * (k - 1)``.
    """
    k = d.shape[1]
    C %= m
    g = math.gcd(C, m)
    r = u1 % g
    t = (r - u1) // g * pow(C // g, -1, m // g) % (m // g)
    tp = [np.ones_like(t)]  # t^i mod m
    for _ in range(k):
        tp.append(tp[-1] * t % m)
    grid = (1,) * (k - 2)
    col = lambda a: a.reshape(a.shape + grid)
    w = [np.arange(m).reshape([m if i == l else 1 for i in range(k - 2)])
         for l in range(k - 2)]  # w_2 .. w_(k-1), without the pair axis
    index = [col(r)]
    for j in range(2, k + 1):
        beta = (C * tp[j] + j * tp[j - 1] % m * u1) % m
        T = 0
        for l in range(2, j + 1):
            a = math.comb(j, l) * tp[j - l] % m
            beta -= a * d[:, l - 1] % m
            if l < k:  # w_k is the window axis
                T = T + col(a) * w[l - 2]
        index.append((T + col(beta % m)) % m)
    return windows[tuple(index)]


def _windows(S, m):
    """``W[..., i, :]`` is ``S`` rolled by ``-i`` along its last axis: a view
    of ``S`` with that axis doubled.  At ``k = 1`` the slab is read as it is."""
    if S.ndim == 1:
        return S
    doubled = np.concatenate([S, S[..., :m - 1]], axis=-1)
    return np.lib.stride_tricks.sliding_window_view(doubled, m, axis=-1)


def expand_slab(S, m, C):
    """The full ``(m,) * k`` histogram of a half whose coefficients sum to ``C``, from its slab."""
    return _slab_gather(_windows(S, m), m, C, np.arange(m),
                        np.zeros((m, S.ndim), dtype=np.int64))


def conv_mod(H, shifts, C, c):
    """One slab step: the slab of a half after adding a variable of coefficient ``c``.

    ``H`` is the slab of a half whose coefficients sum to ``C``: the cells
    of its residue histogram with first key in ``[0, g)``, ``g = gcd(C, m)``
    (``m`` when ``C = 0 mod m``), shape ``(g,) + (m,) * (k - 1)``, int64 or
    object (Python ints).  ``shifts`` holds ``c (x, ..., x^k) mod m`` for
    every ``x`` in ``[0, m)``.  Returns the slab of the half with the new
    variable, ``out[w] = sum_x H[w - shifts[x]]`` for ``w_1 < gcd(C + c, m)``:
    ``gcd(C + c, m) m^k`` exact integer gathers, taken in blocks of ``x`` of
    about ``_TILE`` cells.
    """
    shifts = np.ascontiguousarray(shifts, dtype=np.int64)
    m, k = shifts.shape
    g = math.gcd((C + c) % m, m)
    out = np.zeros((g,) + (m,) * (k - 1), dtype=H.dtype)
    w1 = np.arange(g)
    windows = _windows(H, m)
    step = max(1, _TILE // out.size)
    for x0 in range(0, m, step):
        sh = shifts[x0:x0 + step]
        u1 = ((w1 - sh[:, :1]) % m).ravel()  # x-major pairs (x, w_1)
        part = _slab_gather(windows, m, C, u1, np.repeat(sh, g, axis=0))
        out += part.reshape((len(sh),) + out.shape).sum(axis=0)
    return out
