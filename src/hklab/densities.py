"""Singular series and singular integral evaluation, and the main term.

The series has two independent computational routes:

* ``singular_series_qsum`` sums modulus terms ``A(q)`` at prime powers
  only (composite terms are products, by multiplicativity).  A term sums
  ``S(q, a)^s e_q(-a.n)`` over the orbits of the translation ``r -> r + t``
  on the numerators ``a`` (Vaughan, *The Hardy-Littlewood Method*, 2nd ed.,
  ch. 4): where ``k a_k`` is a unit an orbit's ``q`` terms sum to one
  complete sum, so a term costs about ``q^(k-2) u + q^(k-1) (q - u)`` cells,
  ``u`` the unit residues ``k a_k``, not ``q^k`` (:func:`series_term`).
  Every ``k >= 2`` reads its complete sums off two tables
  (:func:`_shift_tables`): a unit table, one DFT of the histogram of
  ``(r, ..., r^(k-2), r^k) mod q``, and the plain rows, one length-``q``
  DFT along ``r`` of exact residue phases each.  The whole DFT grid
  (:func:`complete_sum_all`) and a direct small-q evaluator are the
  oracles;
* ``singular_series_euler`` multiplies p-adic solution densities
  ``chi_p(h) = p^{-h(s-k)} M_p(h)`` obtained by pure integer counting:
  each half of the variables is a residue histogram built on its
  translation slab (the cells with ``v_1 < gcd(C, m)``, ``C`` the half's
  coefficient sum, which fix the rest by ``H(T_t v) = H(v)``; Vaughan,
  *The Hardy-Littlewood Method*, ch. 4), one ``conv_mod`` step of
  ``gcd(C, m) m^k`` integer gathers per added variable, and the two halves
  are joined.

The integral likewise has a tensor-quadrature route cross-checked against a
Monte-Carlo volume oracle.  Truncation tails are empirical fits and labeled
as such in the returned estimates.
"""

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import INT64_SAFE, _target_vector, target_scale
from .errors import BudgetExceededError, NonConvergedError, ValidationError
from .expsums import (TENSOR_CELLS_MAX, axis_nodes, complete_sum, gl_axis, gl_edges,
                      power_in_place, tensor_chunk, tensor_integral)
from .kernels import conv_mod, expand_slab
from .local import small_primes
from .streams import substream


@dataclass
class DensityEstimate:
    value: float
    method: str
    error_estimate: float
    converged: bool
    imag_diagnostic: float = 0.0
    detail: dict = field(default_factory=dict)


@dataclass
class SeriesTerm:
    q: int
    value: float          # real part of A(q)
    imag: float           # diagnostic, should vanish
    n_primitive: int


SERIES_GRID_CELLS_MAX = 8_000_000  # table cells of one series term (_table_cells)
RESIDUE_CELLS_MAX = 3_000_000_000  # residue cells m^(k+1) of one count mod m
QUADRATURE_TOL = 5e-3  # error estimate below which the quadrature converges
QUADRATURE_BOX = (48.0, 6.0)  # half-width B of the quadrature's beta box: k <= 2, k >= 3
FIT_FLOOR = 1e-12  # |A(q)| at or below this is rounding noise, not fitted

# ---------------------------------------------------------------------------
# series terms A(q)
# ---------------------------------------------------------------------------

def prime_power_factors(q):
    """``[(p, p**e), ...]`` over the primes ``p`` dividing ``q``, ``p`` increasing."""
    out = []
    p = 2
    while p * p <= q:
        if q % p == 0:
            pe = 1
            while q % p == 0:
                q //= p
                pe *= p
            out.append((p, pe))
        p += 1
    if q > 1:
        out.append((q, q))
    return out


def _units(q, k):
    """``u = #{a mod q : k a is a unit}``: ``phi(q)`` when ``gcd(k, q) = 1``, else 0."""
    if math.gcd(k, q) != 1:
        return 0
    return math.prod(pe - pe // p for p, pe in prime_power_factors(q))


def _table_cells(q, k):
    """Cells of :func:`_shift_tables`: ``q^(k-1) (q - u + 1)`` at ``k >= 2``, ``q`` at ``k = 1``.

    The unit table has ``q^(k-1)`` cells and the plain rows, those whose
    ``k a_k`` is not one of the ``u`` units (:func:`_units`), are
    ``q^(k-2) (q - u)`` rows of ``q`` cells.
    """
    if k == 1:
        return q
    return q ** (k - 1) * (q - _units(q, k) + 1)


def _check_series_term(q, k):
    """Raise ``BudgetExceededError`` when :func:`series_term` at ``q`` would
    pass ``SERIES_GRID_CELLS_MAX`` table cells (:func:`_table_cells`)."""
    if (cells := _table_cells(q, k)) > SERIES_GRID_CELLS_MAX:
        raise BudgetExceededError(
            f"series term at q={q}, k={k}: {cells} table cells exceed the budget")


def _check_shift_table(q, k):
    """Raise ``BudgetExceededError`` when :func:`_shift_tables` would pass
    ``TENSOR_CELLS_MAX`` cells (:func:`_table_cells`)."""
    if (cells := _table_cells(q, k)) > TENSOR_CELLS_MAX:
        raise BudgetExceededError(f"complete-sum table at q={q}, k={k}: {cells} cells")


def _shift_tables(q, k):
    """``(U, D, plain)``: every complete sum ``S(q, a)`` in two tables read through the shift.

    ``S(q, a) = sum_r e_q(f(r))`` with ``f(r) = a_1 r + ... + a_k r^k``.  The
    shift ``r -> r + t`` gives ``S(q, a) = e_q(f(t)) S(q, tau_t a)``,
    ``(tau_t a)_l = sum_{j>=l} C(j, l) t^(j-l) a_j`` the coefficients of
    ``f(r + t) - f(t)`` (Vaughan, *The Hardy-Littlewood Method*, 2nd ed.,
    ch. 4).  Where ``k a_k`` is a unit, ``t = -a_(k-1) (k a_k)^-1`` clears
    ``a_(k-1)``, and ``U[a_1..a_(k-2), a_k]`` is ``S(q, a)`` at
    ``a_(k-1) = 0``: one ``(k-1)``-dimensional DFT of the histogram of
    ``(r, ..., r^(k-2), r^k) mod q``, so ``|S|`` of a unit cell ``b`` is
    that of the ``q`` cells ``tau_t b``.  Every other cell lies on a plain
    row ``(a_2..a_k)``, ``k a_k`` not a unit:
    ``D[a_2..a_(k-1), i, a_1] = S(q, a)`` at ``a_k = plain[i]``, one
    length-``q`` DFT along ``r`` of exact residue phases per row.  ``k = 1``
    has no unit table (``U`` is None) and one row, ``plain = [0]``.  Raises
    ``BudgetExceededError`` before any allocation when the tables are over
    the cap (:func:`_check_shift_table`).
    """
    _check_shift_table(q, k)
    r = np.arange(q, dtype=np.int64)
    rj = [r]  # r^j mod q, j = 1..k, products below q^2
    for _ in range(k - 1):
        rj.append(rj[-1] * r % q)
    U = None
    if k >= 2:
        key = np.ravel_multi_index(rj[:k - 2] + rj[-1:], (q,) * (k - 1))
        U = np.bincount(key, minlength=q ** (k - 1)).reshape((q,) * (k - 1)).astype(complex)
        for axis in range(k - 1):
            np.fft.ifft(U, axis=axis, norm="forward", out=U)
    plain = np.zeros(q, dtype=bool)  # k a_k is not a unit: a prime p | q divides k or a_k
    for p, _ in prime_power_factors(q):
        plain[::1 if k % p == 0 else p] = True
    plain = np.flatnonzero(plain) if k >= 2 else r[:1]
    idx = plain[:, None] * rj[-1] % q  # a_k r^k on the rows (i, r)
    for j in range(k - 1, 1, -1):  # a_j r^j mod q on a new leading axis
        idx = (r[:, None] * rj[j - 1] % q).reshape((q,) + (1,) * (idx.ndim - 1) + (q,)) + idx
    E = np.exp(2j * np.pi * r / q)
    D = (np.tile(E, k - 1) if k > 2 else E)[idx]  # k - 1 residues sum to below (k - 1) q
    del idx
    np.fft.ifft(D, axis=-1, norm="forward", out=D)  # in place: numpy >= 2.0
    return U, D, plain


def complete_sum_all(q, k):
    """``S(q, a)`` for every ``a`` in ``[0, q)^k``: one length-``q`` DFT along ``r`` on every row.

    ``S(q, a) = sum_r e_q(a_1 r + ... + a_k r^k)``: the phases of
    ``a_2 r^2 + ... + a_k r^k`` are exact residues on every row
    ``(a_2..a_k)`` and the DFT supplies ``a_1``.  It is the tests' grid
    oracle for :func:`_shift_tables`, :func:`series_term` and the minor-arc
    candidates, and shares no code with them; nothing in ``src/`` calls it.
    """
    r = np.arange(q, dtype=np.int64)
    idx, rj = np.zeros(q, dtype=np.int64), r
    for _ in range(k - 1):  # axes (a_2..a_j, r)
        rj = rj * r % q
        idx = (idx[..., None, :] + r[:, None] * rj) % q
    S = np.fft.ifft(np.exp(2j * np.pi * r / q)[idx], axis=-1, norm="forward")
    return np.moveaxis(S, -1, 0)


def _primitive_mask(q, k):
    """Cells ``a`` of ``[0, q)^k`` with ``gcd(q, a) = 1``.

    ``a`` fails exactly when some prime ``p | q`` divides every ``a_j``, that
    is, when it lies on the ``[::p]`` sub-grid of every axis.
    """
    mask = np.ones((q,) * k, dtype=bool)
    for p, _ in prime_power_factors(q):
        mask[(slice(None, None, p),) * k] = False
    return mask


def _non_primitive(k, plain, p):
    """Index of the cells of :func:`_shift_tables`' ``D`` with ``p`` dividing every ``a_j``."""
    every = slice(None, None, p)
    return (every,) * (k - 2) + (np.flatnonzero(plain % p == 0), every)


def first_near_max_cells(moduli, k):
    """``{q: a}``, ``a`` the first primitive cell in C order with ``|S(q, a)| >= (1 - 1e-9) max``.

    The maximum is over the primitive cells of ``[0, q)^k``.  ``|S|`` is
    the same on every cell that a table cell of :func:`_shift_tables`
    stands for: the ``q`` cells ``tau_t b`` of a unit cell ``b``, and a
    plain cell itself.  The shift keeps primitivity, and a unit cell
    (``k b_k`` a unit) is primitive.  So the search takes the maximum over
    the two tables, then the first cell in C order among the cells of the
    entries within ``1e-9`` of it, so exact ties do not fall to whichever
    rounding favours.  Every table is checked against the cell cap before
    the first is built.
    """
    for q in moduli:
        _check_shift_table(q, k)
    return {q: _first_near_max(q, k) for q in moduli}


def _first_near_max(q, k):
    """The cell of :func:`first_near_max_cells` at one modulus ``q``."""
    U, D, plain = _shift_tables(q, k)
    r = np.arange(q, dtype=np.int64)
    S = np.abs(D)
    del D
    for p, _ in prime_power_factors(q):
        S[_non_primitive(k, plain, p)] = -1.0
    top = S.max()
    if U is not None:
        U = np.abs(U)
        U[..., plain] = -1.0  # those cells lie on plain rows
        top = max(top, U.max())
    top *= 1.0 - 1e-9
    hits = np.nonzero(S >= top)  # (a_2..a_(k-1), i, a_1)
    cells = [(hits[-1], *hits[:-2], plain[hits[-2]])[:k]]  # a_1..a_k; a_1 alone at k = 1
    if U is not None:
        *b, bk = np.nonzero(U >= top)
        b = [x[:, None] for x in b] + [0, bk[:, None]]  # b_(k-1) = 0
        tp = [np.ones(q, dtype=np.int64), r]  # t^m mod q
        for _ in range(k - 2):
            tp.append(tp[-1] * r % q)
        # the q cells tau_t b of each unit entry, one row of t per entry
        cells.append([sum(math.comb(m, l) * b[m - 1] % q * tp[m - l] for m in range(l, k + 1)) % q
                      for l in range(1, k + 1)])
    flat = np.concatenate([np.ravel_multi_index(tuple(np.broadcast_arrays(*c)), (q,) * k).ravel()
                           for c in cells])
    return np.array(np.unravel_index(flat.min(), (q,) * k))


def _orbit_sum(q, k, n, s, E, U, D, plain):
    """``sum S(q, a)^s e_q(-a.n) S(q, -c(a))`` over the orbit cells, for :func:`series_term`.

    The orbit cells ``a`` are the cells of ``U`` with ``k a_k`` a unit
    (``a_(k-1) = 0``).  Their ``b = -c(a)`` has ``b_k = -s a_k`` and
    ``b_(k-1) = -k a_k n_1``.  When ``s`` is a unit, ``k b_k`` is one, and
    the one shift ``t = -n_1 s^-1`` clears every ``b_(k-1)``:
    ``S(q, b) = e_q(f_b(t)) U[tau_t b]``.  Otherwise ``k b_k`` is not a
    unit either and ``S(q, b)`` is read off its plain row of ``D``
    (``t = 0``).  As ``C(m, l) C(j, m) = C(j, l) C(j - l, m - l)``,
    ``tau_t b`` is ``-c(a)`` with every ``n_j`` replaced by ``N_j(t)``, and
    ``f_b(t) - a.n = -sum_j a_j N_j(t)``: integer rows on the orbit cells'
    open mesh.
    """
    if len(plain) == q:  # no k a_k is a unit
        return 0j
    r = np.arange(q, dtype=np.int64)
    unit = np.ones(q, dtype=bool)
    unit[plain] = False
    shift = math.gcd(s, q) == 1
    t = -n[1] * pow(s, -1, q) % q if shift else 0
    nn = [s] + n[1:]  # n_0 = s
    N = [sum(math.comb(d, i) * nn[i] * t ** (d - i) for i in range(d + 1)) % q
         for d in range(k + 1)]
    J = [*range(1, k - 1), k]  # the coordinates of an orbit cell
    mesh = [r.reshape((q,) + (1,) * (k - 2 - i)) for i in range(k - 2)] + [r[unit]]

    def row(l):
        """``(tau_t b)_l = -sum_j C(j, l) N_(j-l)(t) a_j``; the phase at ``l = 0``."""
        return sum(-math.comb(j, l) * N[j - l] * x for j, x in zip(J, mesh)) % q

    if shift:
        Sb = U[tuple(row(l) for l in J)]
    else:
        pos = np.cumsum(~unit) - 1  # the plain row of each a_k that is not a unit
        Sb = D[tuple(row(l) for l in range(2, k)) + (pos[row(k)], row(1))]
    Sb *= E[row(0)]
    Sa = U[..., unit].ravel()
    power_in_place(Sa, s)
    return np.dot(Sa, Sb.ravel())


def series_term(q, n, params):
    """``A(q) = q^{-s} sum_{primitive a mod q} S(q,a)^s e_q(-a.n)``, summed over translation orbits.

    The shift ``r -> r + t`` maps ``a`` to ``tau_t a`` (:func:`_shift_tables`),
    a permutation of the primitive ``a`` (Vaughan, *The Hardy-Littlewood
    Method*, 2nd ed., ch. 4).  It takes ``F(a) = S(q,a)^s e_q(-a.n)`` to
    ``S(q,a)^s e_q(-sum_j a_j N_j(t))``,
    ``N_j(t) = sum_{l<=j} C(j, l) n_l t^(j-l)`` with ``n_0 = s``.  Where
    ``k a_k`` is a unit (``k >= 2``), an orbit has ``q`` elements and one
    with ``a_(k-1) = 0``, and its ``q`` terms sum to one complete sum::

        A(q) q^s = sum_{a_(k-1) = 0, k a_k unit} S(q,a)^s e_q(-a.n) S(q, -c(a))
                 + sum_{a primitive, k a_k not a unit} S(q,a)^s e_q(-a.n),

    ``c_m(a) = sum_{j=m..k} C(j, m) a_j n_(j-m)`` for ``m = 1..k``.  The
    first sum runs over the unit table (:func:`_orbit_sum`), the second
    over the plain rows: non-primitive cells (``p | q`` dividing every
    ``a_j``) are zeroed, ``S^s`` is taken in place and contracted against
    ``e_q(-a.n)`` one axis at a time.  ``k = 1`` has no orbit axis and
    keeps its one row.  The table cells, ``q^(k-1) (q - u + 1)`` with ``u``
    the residues whose ``k a_k`` is a unit (:func:`_table_cells`), are
    checked against ``SERIES_GRID_CELLS_MAX`` before any table is built.
    The primitive cells number Jordan's totient
    ``J_k(q) = q^k prod_{p | q} (1 - p^-k)``.
    """
    q = int(q)
    if q < 1:
        raise ValidationError("modulus must be positive")
    n = _target_vector(n)
    k = params.k
    if len(n) != k:
        raise ValidationError("target length must equal k")
    _check_series_term(q, k)
    if q == 1:
        return SeriesTerm(1, 1.0, 0.0, 1)
    if not params.is_pure:
        raise ValidationError("series terms are defined for the pure system")
    s = params.s
    n = [None] + [v % q for v in n]  # n[j] = n_j mod q
    E = np.exp(2j * np.pi * np.arange(q) / q)
    U, D, plain = _shift_tables(q, k)
    orbit = _orbit_sum(q, k, n, s, E, U, D, plain) if k >= 2 else 0j
    n_primitive = q ** k
    for p, _ in prime_power_factors(q):
        D[_non_primitive(k, plain, p)] = 0
        n_primitive = n_primitive // p ** k * (p ** k - 1)
    power_in_place(D, s)
    r = np.arange(q, dtype=np.int64)
    T = D @ E[-n[1] * r % q]
    for j, x in zip(range(k, 1, -1), [plain] + [r] * (k - 2)):  # a_k, then a_(k-1)..a_2
        T = T @ E[-n[j] * x % q]
    total = (orbit + T.sum()) / q ** s
    return SeriesTerm(q, float(total.real), float(total.imag), n_primitive)


def series_term_direct(q, n, params):
    """Small-q oracle for ``A(q)``: explicit loop over primitive tuples."""
    from itertools import product

    q = int(q)
    n = _target_vector(n)
    k = params.k
    total = 0j
    count = 0
    for a in product(range(1, q + 1), repeat=k):
        if math.gcd(q, *a) != 1:
            continue
        count += 1
        t = (-sum(av * nv for av, nv in zip(a, n))) % q
        total += complete_sum(q, a) ** params.s * np.exp(2j * np.pi * t / q)
    total /= q ** params.s
    return SeriesTerm(q, float(total.real), float(total.imag), count)


def _fit_power_tail(xs, ys, cutoff):
    """Fit ``y = C x^b`` on positive data; return tail ``sum_{x>cutoff} C x^b``."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    keep = ys > 0
    if keep.sum() < 2:
        return 0.0, {"C": 0.0, "b": 0.0}
    b, logC = np.polyfit(np.log(xs[keep]), np.log(ys[keep]), 1)
    C = math.exp(logC)
    if b >= -1.0:
        return math.inf, {"C": C, "b": float(b)}
    tail = C * cutoff ** (b + 1) / (-b - 1)
    return tail, {"C": C, "b": float(b)}


def series_terms(n, params, Q_max):
    """``A(q)`` for ``q = 1..Q_max``, each composite from its prime-power terms.

    ``A`` is multiplicative over coprime moduli (acceptance 05 checks it
    against :func:`series_term` at composite ``q``), so only prime powers
    build a numerator grid; a composite term is the complex product of its
    factors' terms.  Every prime power up to ``Q_max`` is checked against
    the table budget before the first term is built.
    """
    if Q_max < 1:
        raise ValidationError("Q_max must be at least 1")
    for q in range(2, Q_max + 1):
        if len(prime_power_factors(q)) == 1:
            _check_series_term(q, params.k)
    by_pe = {}
    terms = []
    for q in range(1, Q_max + 1):
        value, count = 1.0 + 0j, 1
        for _, pe in prime_power_factors(q):
            if pe not in by_pe:
                by_pe[pe] = series_term(pe, n, params)
            t = by_pe[pe]
            value *= complex(t.value, t.imag)
            count *= t.n_primitive
        terms.append(SeriesTerm(q, value.real, value.imag, count))
    return terms


def singular_series_qsum(n, params, Q_max=None, tol=0.02):
    """Truncated modulus sum for the series, with an empirical tail fit.

    The tail is a power law fitted to ``|A(q)|`` for ``q > max(4, Q_max // 4)``,
    leaving out the terms with ``|A(q)| <= FIT_FLOOR``: those vanish in exact
    arithmetic, and their values are rounding noise.
    """
    if Q_max is None:
        Q_max = 100 if params.k == 2 else 30
    terms = series_terms(n, params, Q_max)
    value = 0.0
    for t in terms:
        value += t.value
    fitted = [t for t in terms if t.q > max(4, Q_max // 4) and abs(t.value) > FIT_FLOOR]
    qs = [t.q for t in fitted]
    amps = [abs(t.value) for t in fitted]
    tail, fit = _fit_power_tail(qs, amps, Q_max)
    threshold_ok = params.s > params.k * (params.k + 1) / 2 + 2
    imag = max(abs(t.imag) for t in terms)
    return DensityEstimate(
        value=value,
        method=f"TruncatedSum{{Q_max={Q_max}}}",
        error_estimate=tail,
        converged=bool((threshold_ok or tail < 1e-12) and tail < tol),
        imag_diagnostic=imag,
        detail={"terms": [(t.q, t.value) for t in terms], "tail_fit": fit,
                "convergence_threshold_ok": threshold_ok},
    )


# ---------------------------------------------------------------------------
# p-adic densities by exact counting
# ---------------------------------------------------------------------------

# Half histograms keyed on (m, k, coefficients of the half), least recently
# used first; the oldest are evicted once the total nbytes passes the bound
# (an object array counts its pointers only).
_HIST_CACHE_BYTES = 64 << 20
_HIST_CACHE = OrderedDict()


def _half_mod(m, k, coeffs):
    """Cached histogram of the power-sum keys of one half of the variables.

    Cell ``v`` counts ``x in [0,m)^len(coeffs)`` with
    ``sum_i c_i x_i^j = v_j mod m`` for every ``j``.  int64 while the total
    mass ``m^len(coeffs)`` fits, Python ints otherwise.

    The half is built on its translation slab (see :mod:`hklab.kernels`):
    the cells with ``v_1 < gcd(C, m)``, ``C`` the sum of the coefficients so
    far.  The first variable seeds it, each further variable is one
    :func:`conv_mod`, so a half of ``c`` coefficients runs ``max(0, c - 1)``
    of them, and the finished slab is expanded once to the full grid.  A
    variable's shift table holds ``c x^j mod m`` for ``j = 1..k``, the
    powers by repeated multiplication; equal coefficients share one table.
    """
    key = (m, k, tuple(coeffs))
    H = _HIST_CACHE.get(key)
    if H is not None:
        _HIST_CACHE.move_to_end(key)
        return H
    x = np.arange(m, dtype=np.int64)
    powers = np.empty((m, k), dtype=np.int64)
    powers[:, 0] = x
    for j in range(1, k):
        powers[:, j] = powers[:, j - 1] * x % m  # products below m^2
    tables = {c: c % m * powers % m for c in set(coeffs)}
    # the seed: the first variable's x with c x = 0 mod m, the only ones on
    # the slab; an empty half (s = 1) is the one cell at zero, a slab of g = m
    C = coeffs[0] % m if coeffs else 0
    seed = tables[coeffs[0]] if coeffs else np.zeros((1, k), dtype=np.int64)
    seed = seed[seed[:, 0] == 0, 1:] @ (m ** np.arange(k - 2, -1, -1))
    H = np.bincount(seed, minlength=math.gcd(C, m) * m ** (k - 1))
    H = H.reshape((-1,) + (m,) * (k - 1))
    if m ** len(coeffs) >= INT64_SAFE:
        H = H.astype(object)
    # a step costs gcd(C + c, m) m^k gathers, so each next variable is one
    # that keeps C + c off the multiples of large divisors of m when it can
    rest = list(coeffs[1:])
    while rest:
        c = min(rest, key=lambda c: math.gcd((C + c) % m, m))
        rest.remove(c)
        H = conv_mod(H, tables[c], C, c)
        C = (C + c) % m
    H = expand_slab(H, m, C)
    H.flags.writeable = False
    if H.nbytes <= _HIST_CACHE_BYTES:
        _HIST_CACHE[key] = H
        used = sum(v.nbytes for v in _HIST_CACHE.values())
        while used > _HIST_CACHE_BYTES:
            used -= _HIST_CACHE.popitem(last=False)[1].nbytes
    return H


def solution_count_mod(m, n, params):
    """Exact ``M(m) = #{x in [0,m)^s : sum_i c_i x_i^j = n_j mod m, all j}``.

    ``M(m) = sum_v H1(v) H2(n - v)`` over the halves' histograms
    (:func:`_half_mod`); a second half with the first's coefficients is the
    first.  ``H2(n - v)`` is ``H2`` flipped on every axis and rolled by
    ``n + 1``, one copy, and the pairing is one integer dot: int64 while
    ``m^s`` fits, else in Python integers one ``v_1`` slice at a time.
    """
    n = _target_vector(n)
    k = params.k
    if m ** (k + 1) > RESIDUE_CELLS_MAX:
        raise BudgetExceededError(
            f"residue convolution at modulus {m}, k={k} exceeds the budget")
    s1 = (params.s + 1) // 2
    c1, c2 = params.coeffs[:s1], params.coeffs[s1:]
    H1 = _half_mod(m, k, c1)
    H2 = H1 if c2 == c1 else _half_mod(m, k, c2)
    H2 = np.roll(np.flip(H2), [nj % m + 1 for nj in n], axis=tuple(range(k)))
    if m ** params.s < INT64_SAFE:
        return int(np.dot(H1.ravel(), H2.ravel()))
    return sum(int(np.dot(a.astype(object), b.astype(object)))
               for a, b in zip(H1.reshape(m, -1), H2.reshape(m, -1)))


def padic_density(p, h, n, params):
    """``chi_p(h) = p^{-h(s-k)} M_p(h)`` as an exact rational."""
    if h == 0:
        return Fraction(1)
    m = p ** h
    M = solution_count_mod(m, n, params)
    return Fraction(M, p ** (h * (params.s - params.k)))


def singular_series_euler(n, params, p_max=13, tol=1e-9, modulus_cap=1024):
    """Euler product of p-adic densities with adaptive per-prime depth.

    Depth increases until the density stabilizes within ``tol`` or the
    modulus would exceed ``modulus_cap``; the omitted-prime tail is an
    empirical power-law fit on ``|chi_p - 1|``.  A modulus over the residue
    budget raises ``BudgetExceededError`` with ``work_done`` the moduli
    already counted.
    """
    n = _target_vector(n)
    product = 1.0
    per_prime = {}
    deviations = []
    counted = 0

    def density(p, h):
        nonlocal counted
        try:
            chi = padic_density(p, h, n, params)
        except BudgetExceededError as exc:
            exc.work_done = counted
            raise
        counted += 1
        return chi

    for p in small_primes(p_max):
        prev = density(p, 1)
        h = 1
        while p ** (h + 1) <= modulus_cap:
            nxt = density(p, h + 1)
            h += 1
            if abs(float(nxt - prev)) < tol:
                prev = nxt
                break
            prev = nxt
        chi = float(prev)
        per_prime[p] = {"chi": chi, "depth": h}
        product *= chi
        deviations.append((p, abs(chi - 1.0)))
        if chi == 0.0:
            return DensityEstimate(0.0, f"EulerProduct{{p_max={p_max}}}", 0.0, True,
                                   detail={"per_prime": per_prime,
                                           "vanishing_prime": p})
    ps = [p for p, d in deviations]
    ds = [d for p, d in deviations]
    tail_sum, fit = _fit_power_tail(ps, ds, p_max)
    # prime-density correction: only ~1/ln t of integers near t are prime
    if math.isfinite(tail_sum) and tail_sum > 0:
        tail_sum /= math.log(max(p_max, 3))
    err = abs(product) * tail_sum if math.isfinite(tail_sum) else math.inf
    threshold_ok = params.s > params.k * (params.k + 1) / 2 + 2
    return DensityEstimate(
        value=product,
        method=f"EulerProduct{{p_max={p_max}}}",
        error_estimate=err,
        converged=bool((threshold_ok or err < 1e-12)
                       and err < max(0.05 * abs(product), 1e-9)),
        detail={"per_prime": per_prime, "tail_fit": fit,
                "convergence_threshold_ok": threshold_ok},
    )


# ---------------------------------------------------------------------------
# singular integral
# ---------------------------------------------------------------------------

GAMMA_PANELS_MIN = 8  # floor of the gamma rule for small boxes


def gamma_rule(k, B):
    """Gauss-Legendre nodes and weights on ``[0, 1]`` for ``I(beta; 1)``, ``|beta_j| <= B``.

    On ``[g, h]`` the phase ``sum_j beta_j g^j`` moves by at most
    ``Phi(h) - Phi(g)`` for every ``beta`` in the box, where
    ``Phi(g) = B (g + g^2 + ... + g^k)``.  So the panel edges are the level
    sets of ``Phi`` at ``max(8, ceil(B k))`` equal steps from ``Phi(0) = 0``
    to ``Phi(1) = B k``: every panel spans at most one cycle for every
    ``beta``, and the 8-node error on a panel of phase width ``2 pi`` is about
    1e-10 of the panel's weight (Davis and Rabinowitz, *Methods of Numerical
    Integration*, 2nd ed., 1984, section 2.7).  The panels crowd towards
    ``g = 1``, where the high powers turn fastest; at ``k = 1`` they are
    equally spaced.

    The edges solve ``p(g) = k u`` for ``u`` equally spaced on ``[0, 1]``,
    ``p(g) = g + ... + g^k``, by Newton's method from ``g = u``: ``p`` is
    increasing and convex on ``[0, 1]`` with ``p(u) <= k u``, so the first
    step lands at or right of the root and the later ones fall to it
    monotonically.
    """
    u = np.linspace(0.0, 1.0, max(GAMMA_PANELS_MIN, math.ceil(B * k)) + 1)
    g = u.copy()
    for _ in range(30):
        p, dp = np.zeros_like(g), np.zeros_like(g)
        for j in range(k, 0, -1):  # Horner: p = g (1 + g (1 + ...)), dp = p'
            dp = dp * g + p + 1.0
            p = p * g + g
        g = g - (p - k * u) / dp
    return gl_edges(g)


def _beta_axes(mu, B, panel_scale, half_box=False):
    """Folded, factored beta axes ``((mids, offsets), weights)`` of one pass of the box quadrature.

    Each axis is :func:`expsums.gl_axis` on ``[-B, B]``.  With ``half_box``
    every beta panel count is rounded up to a multiple of 4, so ``0`` and
    ``+-B/2`` are panel edges, and the weights are the pair of rows (box,
    half box ``|beta_j| <= B/2``).  ``I(-beta) = conj I(beta)`` and every
    axis is mirrored, so the ``beta_1 < 0`` panels are the conjugates of the
    ``beta_1 > 0`` panels: the first axis keeps the panels with
    ``mid >= 0``, with doubled weights except on a panel centred on 0, which
    is its own mirror.
    """
    step = 4 if half_box else 1
    axes = []
    for m in mu:
        panels = max(4, math.ceil(panel_scale * B * (1.0 + abs(m))))
        axis, w = gl_axis(-B, B, -(-panels // step) * step)
        if half_box:
            w = np.stack([w, np.where(np.abs(axis_nodes(axis)) <= B / 2, w, 0.0)])
        axes.append((axis, w))
    (mids, offsets), w = axes[0]
    keep = mids >= 0
    fold = np.repeat(np.where(mids > 0, 2.0, 1.0), len(offsets))
    axes[0] = ((mids[keep], offsets), (fold * w)[..., np.repeat(keep, len(offsets))])
    return axes


def _integral_once(mu, s, B, panel_scale, half_box=False):
    """Box quadrature of ``J(mu)`` over ``|beta_j| <= B``; also returns the grid's node counts.

    The beta axes are :func:`_beta_axes`; with ``half_box`` the value is the
    pair (box, half box), both contracted from one ``T^s``.  The node counts
    are the gamma nodes and then each beta axis after the fold.
    """
    axes = _beta_axes(mu, B, panel_scale, half_box)
    gamma, gamma_weights = gamma_rule(len(mu), B)
    value = tensor_integral(gamma, gamma_weights, axes, s, mu).real
    return value, [len(gamma)] + [len(axis_nodes(v)) for v, _ in axes]


def singular_integral_quadrature(n, params):
    """Box-truncated tensor quadrature for the archimedean density.

    Every pass evaluates only the ``beta_1 >= 0`` panels of its grid
    (:func:`_beta_axes`) and keeps the real part: the integrand at
    ``-beta`` is the conjugate of the one at ``beta``, and the grid is
    symmetric under negation.  So the value is real by construction and
    ``imag_diagnostic`` is 0; the tests check the symmetry against the
    full grid.

    Two grids per call on the box ``|beta_j| <= B = QUADRATURE_BOX[k > 2]``
    share one gamma rule (:func:`gamma_rule`): a coarse grid of
    ``B (1 + |mu_j|)`` beta panels per axis and a fine grid of 1.5 times as
    many, rounded up to a multiple of 4.  The value is the fine grid's; the
    half-box estimate is a slice of the fine grid.

    Error estimate = panel-refinement difference (coarse against fine) +
    box-halving difference (fine against its half box), both empirical; the
    node counts of both grids go to ``detail``.  Converged when the estimate
    is below ``QUADRATURE_TOL`` or 5% of the value.  Both grids are checked
    against the cell cap (``expsums.tensor_chunk``) before either is built.
    """
    if not params.is_pure:
        raise ValidationError("singular integral is defined for the pure system")
    s, k = params.s, params.k
    B = QUADRATURE_BOX[k > 2]
    _, mu = target_scale(n)
    gamma_nodes = len(gamma_rule(k, B)[0])
    for panel_scale, half_box in ((1.0, False), (1.5, True)):
        tensor_chunk(gamma_nodes,
                     [len(axis_nodes(v)) for v, _ in _beta_axes(mu, B, panel_scale, half_box)])
    coarse, coarse_nodes = _integral_once(mu, s, B, panel_scale=1.0)
    (fine, half_box), fine_nodes = _integral_once(mu, s, B, panel_scale=1.5, half_box=True)
    quad_err = abs(fine - coarse)
    box_err = abs(fine - half_box)
    err = quad_err + box_err
    converged = err < max(QUADRATURE_TOL, 0.05 * abs(fine))
    return DensityEstimate(
        value=float(fine),
        method=f"BoxQuadrature{{B={B}}}",
        error_estimate=float(err),
        converged=bool(converged),
        detail={"quad_err": float(quad_err), "box_err": float(box_err),
                "B": B, "scale": "raw",
                "grid": {"gamma_nodes": coarse_nodes[0],
                         "coarse_beta_nodes": coarse_nodes[1:],
                         "fine_beta_nodes": fine_nodes[1:]}},
    )


MC_CHUNK_ROWS = 250_000  # proposal rows per draw: memory is bounded for any samples


def _irwin_hall_cdf(s, x):
    """``F_s(x) = P(u_1 + ... + u_s <= x)`` for iid uniform ``u_i`` on ``[0, 1]``.

    ``(1/s!) sum_{0 <= i <= floor(x)} (-1)^i C(s, i) (x - i)^s`` (Irwin 1927;
    Hall 1927, *Biometrika* 19), exact in ``Fraction``; 0 at ``x <= 0``.
    """
    x = Fraction(x)
    return Fraction(sum((-1) ** i * math.comb(s, i) * (x - i) ** s
                        for i in range(min(math.floor(x), s) + 1)), math.factorial(s))


def mc_volume_oracle(n, params, eta=0.05, samples=2_000_000, seed=7):
    """Monte-Carlo estimate of the normalized solution-slab volume.

    ``(2 eta)^{-k} vol{u in [0,1]^s : |sum_i u_i^j - mu_j| <= eta for all j}``
    with a binomial confidence half-width; a second run at ``eta/2`` (stream
    1; ``eta`` draws stream 0) is reported to expose the eta-bias.

    Only the cube rows with ``sum u <= hi = mu_1 + e`` can hit at width
    ``e``.  Of ``samples`` rows, ``N ~ Binomial(samples, F_s(hi))`` lie there
    (:func:`_irwin_hall_cdf`), iid uniform on that part of the cube.  Just
    those are drawn: ``u = hi (E_1..E_s) / (E_0 + ... + E_s)`` from ``s + 1``
    iid Exp(1) is uniform on the simplex ``sum u <= hi`` (Devroye,
    *Non-Uniform Random Variate Generation*, 1986, ch. V), less the rows
    with ``max u > 1``.  So the hit count is ``Binomial(samples, p)`` as for
    plain cube rows.  As ``mu_1 <= 1`` and ``eta < 1``, the simplex holds at
    most twice its part in the cube.
    """
    if samples < 1:
        raise ValidationError("samples must be at least 1")
    if not 0 < eta < 1:
        raise ValidationError("eta must be in (0, 1)")
    _, mu = target_scale(n)
    s, k = params.s, params.k
    if not params.is_pure:
        raise ValidationError("volume oracle is defined for the pure system")

    def run(e, stream):
        rng = substream(seed, stream)
        hi = mu[0] + e
        need = int(rng.binomial(samples, float(_irwin_hall_cdf(s, hi))))
        hits = 0
        while need:
            E = rng.standard_exponential((min(MC_CHUNK_ROWS, need), s + 1))
            u = E[:, 1:] * (hi / E.sum(axis=1))[:, None]
            u = u[u.max(axis=1) <= 1.0][:need]
            need -= len(u)
            v = p = u  # slab j on the survivors of slabs 1..j-1, p = v^j
            for j in range(k):
                ok = np.abs(p.sum(axis=1) - mu[j]) <= e
                v = v[ok]
                p = p[ok] * v
            hits += len(v)
        phat = hits / samples
        norm = (2.0 * e) ** (-k)
        if hits == 0:
            return 0.0, 3.0 / samples * norm, hits
        return phat * norm, 1.96 * math.sqrt(phat * (1 - phat) / samples) * norm, hits

    v1, h1, hits1 = run(eta, 0)
    v2, h2, hits2 = run(eta / 2, 1)
    # quadratic-bias (Richardson) extrapolation across the two slab widths
    extrap = (4.0 * v2 - v1) / 3.0
    extrap_hw = math.sqrt((4.0 / 3.0 * h2) ** 2 + (h1 / 3.0) ** 2)
    return DensityEstimate(
        value=v1,
        method=f"MonteCarloVolume{{eta={eta},samples={samples},seed={seed}}}",
        error_estimate=h1,
        converged=hits1 >= 100,
        detail={"hits": hits1,
                "half_eta": {"value": v2, "half_width": h2, "hits": hits2},
                "extrapolated": {"value": extrap, "half_width": extrap_hw}},
    )


# ---------------------------------------------------------------------------
# main term
# ---------------------------------------------------------------------------

def main_term(n, params, series, integral):
    """``S * J * X^(s - k(k+1)/2)`` with propagated error bars (raw scale)."""
    if not series.converged:
        raise NonConvergedError("singular series estimate not converged")
    if not integral.converged:
        raise NonConvergedError("singular integral estimate not converged")
    scale, _ = target_scale(n)
    expo = params.s - params.k * (params.k + 1) / 2
    power = scale ** expo
    value = series.value * integral.value * power
    err = (abs(series.error_estimate * integral.value)
           + abs(integral.error_estimate * series.value)) * power
    return {
        "value": value,
        "error": err,
        "series": series.value,
        "integral": integral.value,
        "scale": scale,
        "scale_convention": "raw",
        "exponent": expo,
    }
