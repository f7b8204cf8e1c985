"""Hot numeric kernels.

All kernels are numpy only.

Modular convolution (``conv_mod``) is an FFT cyclic convolution made exact
by a certificate: the rounded result is kept only when an a-priori bound on
the floating-point error, computed from the input norms, is below 1/2, the
total mass is exact and no cell is negative.  Otherwise, and for
object-integer histograms, the ``np.roll`` loop runs.

Phase sums use a blocked Taylor-shift engine.  The range is cut into blocks
of ``B`` terms (``B = 32`` up to ``k = 3``, ``16`` at ``k = 4`` and
``B^k <= 2^16`` beyond).  For a block starting at ``b`` the phase is
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
sum over ``n`` terms is off by at most about ``1e-11 n``; against an exact
rational reference the error is below 1e-9 for ``k <= 4`` and
``n <= 10^4``.
"""

import functools
import math

import numpy as np

from .core import INT64_SAFE


# ---------------------------------------------------------------------------
# batched phase-polynomial sums:  sum_{u=u0}^{u1} e(c_1 u + ... + c_k u^k)
# ---------------------------------------------------------------------------

_LIMB_BITS = 53      # an integer below 2^53 is an exact float64
_TILE = 1 << 14      # (rows x blocks) elements per tile; keeps temporaries in cache
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant


def _block_length(k):
    """Terms per block: at most 32, and ``B^k <= 2^16`` so rounding stays small."""
    return min(32, max(2, int(2.0 ** (16.0 / k))))


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
        raise ValueError("non-finite frequency")
    u0, u1 = int(u0), int(u1)
    m, k = coeffs.shape
    out = np.zeros(m, dtype=np.complex128)
    n = u1 - u0 + 1
    if n <= 0:
        return out
    if k == 0:
        return out + n
    c = _centred(coeffs)
    B = min(_block_length(k), n)
    nb = -(-n // B)
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
# modular convolution step for counting solutions mod m
# ---------------------------------------------------------------------------

# Brent & Zimmermann (Modern Computer Arithmetic, 2010, section 3.3) bound
# the error of a convolution by a length-2^n complex floating-point FFT by
# |x| |y| ((1+eps)^(3n) (1+eps sqrt5)^(3n+1) (1+mu)^(3n) - 1), Euclidean
# norms, twiddle factors off by at most mu.  pocketfft runs real-input,
# mixed-radix and (for lengths with a large prime factor, such as 251)
# Bluestein transforms, which the theorem does not cover as stated; the
# bound is multiplied by _FFT_SAFETY for them and for the float64 rounding
# of the norms.  At m = 251 Bluestein runs two transforms of a smooth length
# >= 2m - 1 plus chirp products, about 2.5 times the levels of the radix-2
# case.  Measured on m = 2..256, k = 1..3, the largest error was 0.07 of
# the unscaled bound (at m = 251).
_EPS = 2.0 ** -53
_FFT_SAFETY = 16.0


def _fft_error_bound(shape, norm_x, norm_y):
    """A-priori bound on ``max |FFT convolution - exact convolution|``."""
    n = sum(math.ceil(math.log2(m)) for m in shape)  # levels; mu = eps
    growth = math.expm1(6 * n * math.log1p(_EPS)
                        + (3 * n + 1) * math.log1p(_EPS * math.sqrt(5.0)))
    return _FFT_SAFETY * norm_x * norm_y * growth


def _conv_mod_fft(H, shifts):
    """FFT cyclic convolution of ``H`` with the shift histogram.

    The rounded result is returned only when the error bound is below 1/2
    (so rounding gives the exact integers), the total mass is the exact
    ``H.sum() * len(shifts)`` and no cell is negative; otherwise ``None``.
    """
    idx = np.ravel_multi_index(tuple(shifts.T), H.shape)
    G = np.bincount(idx, minlength=H.size).reshape(H.shape).astype(np.float64)
    h = H.astype(np.float64)
    if _fft_error_bound(H.shape, math.sqrt(np.vdot(h, h)),
                        math.sqrt(np.vdot(G, G))) >= 0.5:
        return None
    axes = tuple(range(H.ndim))
    out = np.fft.irfftn(np.fft.rfftn(h, axes=axes) * np.fft.rfftn(G, axes=axes),
                        s=H.shape, axes=axes)
    out = np.rint(out).astype(np.int64)
    if int(out.sum()) != int(H.sum()) * len(shifts) or out.min() < 0:
        return None
    return out


def _conv_mod_numpy(H, sh):
    """Integer reference: one ``np.roll`` per shift (int64 or object cells)."""
    out = np.zeros_like(H)
    axes = tuple(range(H.ndim))
    for row in sh:
        out += np.roll(H, tuple(int(v) for v in row), axis=axes)
    return out


def conv_mod(H, shifts):
    """One convolution step: ``out[(v + shift) mod m] += H[v]`` over all shifts.

    ``H`` is an array of non-negative integer counts, int64 or object
    (Python ints), any number of dims, each axis with its own modulus;
    ``shifts`` is ``(n, ndim)`` with entries reduced mod the axis sizes.
    int64 input goes through the certified FFT (O(m^k log m)); when the
    certificate fails, and for object input, the exact ``np.roll`` loop
    (O(n m^k)) runs instead.
    """
    shifts = np.ascontiguousarray(shifts, dtype=np.int64)
    if np.asarray(H).dtype == object:
        return _conv_mod_numpy(H, shifts)
    H = np.ascontiguousarray(H, dtype=np.int64)
    out = _conv_mod_fft(H, shifts)
    return _conv_mod_numpy(H, shifts) if out is None else out
