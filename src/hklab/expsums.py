"""Generating functions and their exact identities.

Covers the degree-k exponential sum over an integer range (``weyl_sum``),
complete rational sums over residues (``complete_sum``), the oscillatory
integral ``I(beta; X)``, and exact verifiers for the reindexing /
resolution / binomial-transform identities that drive the shift argument.
"""

import logging
import math
from dataclasses import dataclass
from math import comb

import numpy as np

from .core import reduce_mod1, unit_phase
from .errors import AliasingError, BudgetExceededError, ToleranceError, ValidationError
from .kernels import mul_mod1, phase_poly_sums

log = logging.getLogger(__name__)

# empirical constants for soft sanity bounds; violations are logged, never raised
SANITY_COMPLETE_SUM_C = 3.0
SANITY_INTEGRAL_C = 4.0
PHASE_TERMS_MAX = 200_000_000  # terms (points times range) of one Weyl-sum batch


def _coords(alpha):
    arr = np.atleast_1d(np.asarray(alpha, dtype=np.float64))
    if not np.all(np.isfinite(arr)):
        raise ValidationError("non-finite frequency")
    return arr


# ---------------------------------------------------------------------------
# exponential sums
# ---------------------------------------------------------------------------

def weyl_sum(alpha, X):
    """``sum_{0 <= x <= X} e(alpha_1 x + ... + alpha_k x^k)``."""
    return weyl_sum_batch(_coords(alpha)[None, :], X)[0]


def batch_rows(X):
    """Most rows one :func:`weyl_sum_batch` call over ``0..X`` may take."""
    return PHASE_TERMS_MAX // (int(math.floor(X)) + 1)


def weyl_sum_batch(alphas, X):
    """Batched ``weyl_sum`` over rows of ``alphas``; deterministic order."""
    alphas = np.atleast_2d(np.asarray(alphas, dtype=np.float64))
    if X < 0:
        raise ValidationError("range must be non-negative")
    if len(alphas) > batch_rows(X):
        raise BudgetExceededError("phase-sum budget exceeded", work_done=0)
    return phase_poly_sums(alphas, 0, int(math.floor(X)))


def direct_weyl_sum(alpha, X):
    """Term-by-term reference evaluation (independent of the kernel path)."""
    a = _coords(alpha)
    total = 0j
    for x in range(int(math.floor(X)) + 1):
        t = 0.0
        for j, c in enumerate(a, start=1):
            t += reduce_mod1(c * float(x) ** j)
        total += unit_phase(t)
    return total


def complete_sum(q, a):
    """``S(q, a) = sum_{r=1}^{q} e_q(a_1 r + ... + a_k r^k)`` (exact residues)."""
    q = int(q)
    if q < 1:
        raise ValidationError("modulus must be positive")
    a = [int(v) for v in a]
    k = len(a)
    table = np.exp(2j * np.pi * np.arange(q) / q)
    # exact int64 residues of a_1 r + ... + a_k r^k over r = 1..q: every
    # product is of two residues, below q^2 (< 2^63 for q < 3e9)
    r = np.arange(1, q + 1, dtype=np.int64) % q
    rp = r
    t = np.zeros(q, dtype=np.int64)
    for c in a:
        t = (t + (c % q) * rp) % q
        rp = rp * r % q
    total = complex(table[t].sum())
    if math.gcd(q, *a) == 1 and q > 1:
        bound = q ** (1.0 - 1.0 / k + 0.01)
        if abs(total) > SANITY_COMPLETE_SUM_C * bound:
            log.info("complete_sum sanity constant exceeded: |S(%d,%s)|=%.3f vs C*q^(1-1/k+0.01)=%.3f",
                     q, a, abs(total), SANITY_COMPLETE_SUM_C * bound)
    return total


# ---------------------------------------------------------------------------
# oscillatory integral
# ---------------------------------------------------------------------------

@dataclass
class OscillatoryIntegral:
    value: complex
    error_estimate: float
    panels: int


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
# leggauss is symmetric only to rounding; make the mirror exact
_GL_NODES = 0.5 * (_GL_NODES - _GL_NODES[::-1])
_GL_WEIGHTS = 0.5 * (_GL_WEIGHTS + _GL_WEIGHTS[::-1])

# Cells (complex128, 16 bytes each) that a tensor grid and one point chunk of
# :func:`phase_tensor` may hold together: 2^25 cells is 512 MiB.  The
# largest default grid, the fine pass of the k = 3 singular integral at
# B = 6, folds its 160 beta_1 nodes to 80 and so holds 80 x 96 x 96 cells on
# the planted s = 12 target, about 7.4e5, next to a chunk of 2^18.
TENSOR_CELLS_MAX = 1 << 25
# Cells of one point chunk of :func:`phase_tensor`: half for the chunk's
# phase rows against every axis, half for one row block of its share of the
# grid.  2^18 cells is 4 MiB, about 100 gamma nodes of the k = 2 fine pass.
TENSOR_CHUNK_CELLS = 1 << 18
OSC_PANELS_MAX = 1 << 15  # panels of the finest rule a tolerance may ask for


def _uniform_edges(lo, hi, panels):
    edges = np.linspace(lo, hi, panels + 1)
    if lo == -hi:
        edges = 0.5 * (edges - edges[::-1])
    return edges


def gl_panels(lo, hi, panels):
    """Nodes and weights of the composite 8-node Gauss-Legendre rule on ``[lo, hi]``.

    On a symmetric interval (``lo == -hi``) the nodes are exactly mirrored,
    ``nodes == -nodes[::-1]``, and so are the weights.
    """
    return gl_edges(_uniform_edges(lo, hi, panels))


def gl_axis(lo, hi, panels):
    """:func:`gl_panels` as a factored axis of :func:`phase_tensor`: ``((mids, offsets), weights)``.

    Node ``8 p + i`` is ``mids[p] + offsets[i]``: the panel midpoints and the
    8 offsets that the equal panels share (the nodes of :func:`gl_panels` to
    rounding).  On a symmetric interval both are exactly mirrored.
    """
    edges = _uniform_edges(lo, hi, panels)
    mids = 0.5 * (edges[1:] + edges[:-1])
    return (mids, 0.5 * (hi - lo) / panels * _GL_NODES), gl_edges(edges)[1]


def gl_edges(edges):
    """Nodes and weights of the 8-node Gauss-Legendre rule on every panel
    ``[edges[i], edges[i + 1]]``, panel by panel."""
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def axis_nodes(axis):
    """Values of a :func:`phase_tensor` axis: a plain array as it is, a factored
    axis ``(mids, offsets)`` as ``mids[p] + offsets[i]`` in panel order."""
    if isinstance(axis, tuple):
        mids, offsets = axis
        return (mids[:, None] + offsets[None, :]).ravel()
    return np.asarray(axis, dtype=np.float64)


def tensor_chunk(n_points, sizes):
    """``(points, rows)`` of one chunk of :func:`phase_tensor` on a grid of ``sizes``.

    A chunk is ``points`` points against every axis, and its share of the
    grid is added ``rows`` leading cells at a time; each part holds at most
    half of ``TENSOR_CHUNK_CELLS`` cells unless one point or one row alone
    needs more.  Raises ``BudgetExceededError`` when the grid and one chunk
    would pass ``TENSOR_CELLS_MAX`` cells, so a caller can check a grid
    before any tensor is built.
    """
    lead, last = math.prod(sizes[:-1]), sizes[-1]
    half = TENSOR_CHUNK_CELLS // 2
    points = min(n_points, max(1, half // (lead + last)))
    rows = min(lead, max(1, half // last))
    cells = math.prod(sizes) + points * (lead + last) + rows * last
    if cells > TENSOR_CELLS_MAX:
        raise BudgetExceededError(
            f"tensor grid {sizes} over {n_points} points needs {cells} cells, "
            f"above {TENSOR_CELLS_MAX}", work_done=0)
    return points, rows


def phase_tensor(points, weights, axis_values):
    """``T[i_1, ..., i_k] = sum_g w_g prod_j e(g^j v_j[i_j])`` on a tensor grid.

    ``axis_values[j-1]`` is axis ``j``: a plain array of values ``v_j``, or a
    factored axis ``(mids, offsets)`` whose values are ``mids[p] + offsets[i]``
    (:func:`gl_axis`, :func:`axis_nodes`).  Quadrature nodes with their
    weights give ``I(beta; 1)`` on the grid; the integers ``0..X`` with unit
    weights give the Weyl sum ``f``, their phases ``x^j v`` reduced mod 1
    exactly by ``kernels.mul_mod1`` (while ``X^k < 2^53``).

    Phases are factored by panel, ``e(g^j v) = e(g^j mid_p) e(g^j off_i)``:
    each point exponentiates the panel midpoints and the shared offsets and
    multiplies them out, so a factored axis of ``8 P`` values costs ``P + 8``
    complex ``exp`` per point (a plain axis is the one-offset case).  The
    points are taken a chunk at a time (:func:`tensor_chunk`): a chunk's
    phases against all axes but the last are multiplied out into the head
    ``H``, then contracted against the last axis ``L`` into the grid one
    block of rows at a time, so only the grid and one chunk are held.

    On an even, exactly mirrored last axis (``v == -v[::-1]``) only its
    non-negative half ``L`` is built, and the contraction is one real matrix
    product ``[Hr Hi]^T [Lr Li]`` per row block, half the floating-point
    work of the complex product with the whole axis.  Its blocks
    ``P0 = Hr^T L`` and ``P1 = Hi^T L`` are summed over the chunks in the
    grid's own memory; then ``T(., v) = P0 + i P1`` and
    ``T(., -v) = conj(P0) + i conj(P1)`` are read off them in place.  Any
    other last axis is contracted by the complex product.  Raises
    ``BudgetExceededError`` before allocating when the grid and one chunk
    would pass ``TENSOR_CELLS_MAX`` cells.
    """
    axes = [a if isinstance(a, tuple) else (np.asarray(a, dtype=np.float64), np.zeros(1))
            for a in axis_values]
    sizes = [len(mids) * len(offsets) for mids, offsets in axes]
    lead, last = math.prod(sizes[:-1]), sizes[-1]
    chunk, rows = tensor_chunk(len(points), sizes)
    exact = (np.array_equal(points, np.rint(points))
             and float(np.max(np.abs(points))) ** len(sizes) < 2.0 ** 53)
    mids, offsets = axes[-1]
    mirrored = (last % 2 == 0 and np.array_equal(mids, -mids[::-1])
                and np.array_equal(offsets, -offsets[::-1]))
    half = last // 2 if mirrored else 0  # values of the last axis read off the mirror

    def phases(g, j, start=0):
        """``e(g^j v)`` for the values ``v[start:]`` of axis ``j``, shape ``(len(g), .)``."""
        mids, offsets = axes[j - 1]
        first = start // len(offsets)
        gj = (g.astype(np.int64) ** j).astype(np.float64) if exact else g ** j
        mid, off = (np.exp(2j * np.pi * (mul_mod1(u[None, :], gj[:, None]) if exact
                                         else np.outer(gj, u)))
                    for u in (mids[first:], offsets))
        return (mid[:, :, None] * off[:, None, :]).reshape(len(g), -1)[:, start - first * len(offsets):]

    T = np.zeros((lead, last), dtype=complex)
    weights = np.asarray(weights)
    for start in range(0, len(points), chunk):
        g = points[start:start + chunk]
        # weights ride on the last axis: at k = 2 the first matrix is the head
        head = np.ones((len(g), 1), dtype=complex)
        for j in range(1, len(sizes)):
            mat = phases(g, j)
            head = mat if j == 1 else (head[:, :, None] * mat[:, None, :]).reshape(len(g), -1)
        L = phases(g, len(sizes), half)
        L *= weights[start:start + chunk, None]
        for r in range(0, lead, rows):
            n = min(rows, lead - r)
            if mirrored:
                # rows (a, re/im of H), columns (b, re/im of L): row a of the
                # block is P0[a] then P1[a], complex, in T's row-a memory
                acc = T[r:r + n].view(np.float64).reshape(2 * n, last)
                acc += head.view(np.float64)[:, 2 * r:2 * (r + n)].T @ L.view(np.float64)
            else:
                T[r:r + n] += head[:, r:r + n].T @ L
    if mirrored:
        del head, L  # the last chunk, freed before the row-block buffer
        P = np.empty((rows, 2, half), dtype=complex)
        for r in range(0, lead, rows):
            n = min(rows, lead - r)
            P0, P1 = P[:n, 0], P[:n, 1]
            P[:n] = T[r:r + n].reshape(n, 2, half)
            P1 *= 1j
            # T(v) = P0 + i P1 on the non-negative half; T(-v) = conj(P0 - i P1),
            # written in reverse order onto the negative half
            np.add(P0, P1, out=T[r:r + n, half:])
            np.subtract(P0, P1, out=T[r:r + n, half - 1::-1])
            np.conjugate(T[r:r + n, :half], out=T[r:r + n, :half])
    return T.reshape(sizes)


def power_in_place(T, s):
    """``T **= s`` for an integer ``s >= 1`` by binary squaring, one block of leading rows at a time.

    Each block keeps a copy of its base and is squared and multiplied in
    place, so the only array besides ``T`` is one block of at most
    ``TENSOR_CHUNK_CELLS // 2`` cells.  At ``s = 6`` that is three complex
    multiplies and one block copy per cell.  ``T`` may be any strided view.
    """
    T = T if T.ndim > 1 else T[:, None]
    rows = max(1, (TENSOR_CHUNK_CELLS // 2) // math.prod(T.shape[1:]))
    bits = bin(int(s))[3:]  # after the leading 1
    base = np.empty_like(T[:rows]) if "1" in bits else None
    for r in range(0, len(T), rows):
        block = T[r:r + rows]
        if base is not None:
            base = base[:len(block)]
            base[...] = block
        for bit in bits:
            block *= block
            if bit == "1":
                block *= base


def tensor_integral(points, weights, axes, s, targets):
    """``sum_cells T^s prod_j w_j e(-t_j v_j)`` with ``T = phase_tensor(points, weights, v)``.

    ``axes[j-1] = (v_j, w_j)`` are axis values, plain or factored
    (:func:`axis_nodes`), and weights.  ``w_j`` may also
    be a stack of ``r`` weight rows, shape ``(r, len(v_j))``, broadcast
    against the other axes' weights: the result is then the array of the
    ``r`` sums, all contracted from one ``T^s`` (a sub-box is the weights
    zeroed outside it).  ``T`` is overwritten by ``T^s``
    (:func:`power_in_place`) and contracted one axis at a time, the last
    axis against every row at once and then each row on its own, so ``T``
    is the only array of grid size.
    """
    T = phase_tensor(points, weights, [v for v, _ in axes])
    factors = [np.atleast_2d(np.exp(-2j * np.pi * t * axis_nodes(v)) * np.asarray(w))
               for (v, w), t in zip(axes, targets)]
    n_rows = max(len(f) for f in factors)
    factors = [np.broadcast_to(f, (n_rows, f.shape[-1])) for f in factors]
    power_in_place(T, s)
    T = T @ factors[-1].T
    for f in reversed(factors[:-1]):
        T = np.einsum("...ir,ri->...r", T, f)
    return T if any(np.ndim(w) > 1 for _, w in axes) else complex(T[0])


def _osc_quad(beta, X, panels):
    return phase_tensor(*gl_panels(0.0, X, panels), beta[:, None]).item()


def oscillatory_integral(beta, X, tol=None):
    """``I(beta; X) = integral_0^X e(beta_1 g + ... + beta_k g^k) dg``.

    Composite 8-node Gauss-Legendre with the panel count proportional to the
    total phase variation, evaluated by :func:`phase_tensor` on one-value
    axes; the error estimate comes from panel doubling.  Raises
    ``BudgetExceededError`` before building any node when the finer rule's
    nodes would pass ``TENSOR_CELLS_MAX``, and ``ToleranceError`` (a budget
    error) when ``tol`` needs a rule past ``OSC_PANELS_MAX`` panels.
    """
    beta = _coords(beta)
    if X < 0:
        raise ValidationError("range must be non-negative")
    if X == 0:
        return OscillatoryIntegral(0j, 0.0, 0)
    variation = sum(abs(c) * float(X) ** j for j, c in enumerate(beta, start=1))
    p = int(math.ceil(4.0 * (variation + 1.0)))
    if 16 * p > TENSOR_CELLS_MAX:  # 8 nodes on each of the 2p finer panels
        raise BudgetExceededError(
            f"oscillatory integral needs {16 * p} nodes, above {TENSOR_CELLS_MAX}",
            work_done=0)
    coarse, fine = _osc_quad(beta, X, p), _osc_quad(beta, X, 2 * p)
    while tol is not None and abs(fine - coarse) > tol:
        if 4 * p > OSC_PANELS_MAX:
            raise ToleranceError("quadrature tolerance unreachable within panel budget",
                                 value=fine, achieved=abs(fine - coarse))
        p *= 2
        coarse, fine = fine, _osc_quad(beta, X, 2 * p)
    err = abs(fine - coarse)
    bound = X * (1.0 + variation) ** (-1.0 / len(beta))
    if abs(fine) > SANITY_INTEGRAL_C * bound:
        log.info("oscillatory integral decay constant exceeded: |I|=%.4g vs C*bound=%.4g",
                 abs(fine), SANITY_INTEGRAL_C * bound)
    return OscillatoryIntegral(complex(fine), float(err), 2 * p)


# ---------------------------------------------------------------------------
# exact identities behind the extra-variable trick
# ---------------------------------------------------------------------------

def verify_shift_reindex(alpha, X, y):
    """Absolute discrepancy of the reindexing identity under an integer shift.

    ``weyl_sum(alpha, X)`` is compared with ``sum_{y <= x <= X+y} e(psi(x - y))``,
    evaluated term by term in ``x`` through the binomial expansion
    ``psi(x - y) = sum_l d_l x^l``, ``d_l = sum_j alpha_j C(j, l) (-y)^(j-l)``:
    an independent code path, so a zero discrepancy is meaningful.
    """
    a = _coords(alpha)
    X = int(X)
    y = int(y)
    if not (0 <= y <= X):
        raise ValidationError("shift must satisfy 0 <= y <= X")
    k = len(a)
    d = [sum(a[j - 1] * comb(j, l) * (-y) ** (j - l) for j in range(max(l, 1), k + 1))
         for l in range(k + 1)]
    acc = 0j
    for x in range(y, X + y + 1):
        t = 0.0
        for l, c in enumerate(d):
            t += reduce_mod1(c * float(x) ** l)
        acc += unit_phase(t)
    return abs(weyl_sum(a, X) - acc)


def verify_resolution_identity(alpha, X, y, N):
    """Discrepancy of resolving the range sum through the shifted sum.

    The gamma-integral is replaced by the exact N-point average; the
    integrand is a trigonometric polynomial in gamma with integer
    frequencies of absolute value at most ``3 X``, so any ``N >= 3*floor(X)+3``
    resolves it exactly.  Smaller ``N`` raises ``AliasingError``.
    """
    a = _coords(alpha)
    X = int(X)
    y = int(y)
    if not (0 <= y <= X):
        raise ValidationError("shift must satisfy 0 <= y <= X")
    if N < 3 * X + 3:
        raise AliasingError(f"aliasing: need N >= {3 * X + 3}, got {N}")
    gammas = np.arange(N) / N
    coeffs = np.tile(a, (N, 1))
    coeffs[:, 0] += gammas
    fvals = phase_poly_sums(coeffs, -y, 2 * X - y)
    kvals = phase_poly_sums(-gammas[:, None], 0, X)
    avg = np.mean(fvals * kvals)
    return abs(avg - weyl_sum(a, X))


# ---------------------------------------------------------------------------
# binomial-transform polynomials
# ---------------------------------------------------------------------------

class ShiftPolynomials:
    """Integer polynomials ``nu_j(y) = sum_{l=0}^{j} C(j,l) h_{j-l} y^l``.

    Convention ``h_0 = s``; the leading coefficient of every ``nu_j`` is
    therefore ``s`` and ``nu_j(0) = h_j``.
    """

    def __init__(self, h, s, k):
        h = [int(v) for v in h]
        if len(h) != k:
            raise ValidationError("shift profile must have length k")
        self.h = [s] + h  # h[0] = s
        self.s = int(s)
        self.k = int(k)
        self.coeffs = [[comb(j, l) * self.h[j - l] for l in range(j + 1)]
                       for j in range(1, k + 1)]

    def evaluate(self, j, y):
        """Exact integer value of ``nu_j(y)``."""
        return sum(c * y ** l for l, c in enumerate(self.coeffs[j - 1]))


def shift_profile(x, y, k):
    """``h_j = sum_i (x_i - y)^j`` for ``j = 1..k`` (exact integers)."""
    return [sum((int(v) - int(y)) ** j for v in x) for j in range(1, k + 1)]


def verify_binomial_transform(x, y, k):
    """Exact check that power sums of a shifted tuple obey the nu-polynomials.

    The profile ``h`` is derived from ``(x, y)`` by :func:`shift_profile`.
    """
    x = [int(v) for v in x]
    y = int(y)
    s = len(x)
    derived = shift_profile(x, y, k)
    nu = ShiftPolynomials(derived, s, k)
    for j in range(1, k):
        if sum(v ** j for v in x) != nu.evaluate(j, y):
            return False
    lhs = sum(v ** k for v in x)
    rhs = (s * y ** k
           + sum(comb(k, l) * derived[k - l - 1] * y ** l for l in range(1, k))
           + sum((v - y) ** k for v in x))
    if lhs != rhs:
        return False
    return lhs == nu.evaluate(k, y)
