import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hklab import expsums
from hklab.circle import lattice_representation_integral
from hklab.densities import _integral_once, complete_sum_all, gamma_rule
from hklab.errors import AliasingError, BudgetExceededError, ToleranceError
from hklab.expsums import (
    ShiftPolynomials,
    axis_nodes,
    complete_sum,
    direct_weyl_sum,
    gl_axis,
    gl_panels,
    oscillatory_integral,
    phase_tensor,
    power_in_place,
    tensor_integral,
    verify_binomial_transform,
    verify_resolution_identity,
    verify_shift_reindex,
    weyl_sum,
    weyl_sum_batch,
)


# ---------------------------------------------------------------------------
# weyl sums
# ---------------------------------------------------------------------------

def test_weyl_examples():
    assert weyl_sum([0.0, 0.0], 7.5) == 8
    assert abs(weyl_sum([0.5], 3)) < 1e-12                 # alternating
    assert abs(weyl_sum([0.0, 0.25], 4) - (3 + 2j)) < 1e-12


def test_weyl_matches_direct_reference():
    rng = np.random.default_rng(0)
    for _ in range(10):
        alpha = rng.random(3)
        X = int(rng.integers(5, 40))
        assert abs(weyl_sum(alpha, X) - direct_weyl_sum(alpha, X)) < 1e-9


def test_weyl_trivial_bound_and_periodicity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        alpha = rng.random(2)
        X = 23.7
        f = weyl_sum(alpha, X)
        assert abs(f) <= math.floor(X) + 1 + 1e-9
        shift = rng.integers(-3, 4, size=2).astype(float)
        assert abs(f - weyl_sum(alpha + shift, X)) < 1e-9


def test_weyl_reflection():
    rng = np.random.default_rng(2)
    for _ in range(20):
        alpha = rng.random(3)
        f = weyl_sum(alpha, 31)
        assert abs(np.conj(f) - weyl_sum(-alpha, 31)) < 1e-9


def test_weyl_batch_matches_scalar():
    rng = np.random.default_rng(3)
    alphas = rng.random((7, 2))
    batch = weyl_sum_batch(alphas, 19)
    for i, a in enumerate(alphas):
        assert abs(batch[i] - weyl_sum(a, 19)) < 1e-12


# ---------------------------------------------------------------------------
# complete sums
# ---------------------------------------------------------------------------

def test_complete_sum_examples():
    assert abs(complete_sum(1, [0, 0]) - 1) < 1e-15
    assert abs(complete_sum(2, [1])) < 1e-12               # k=1 geometric
    assert abs(abs(complete_sum(3, [0, 1])) - math.sqrt(3)) < 1e-12


def test_complete_sum_quadratic_magnitudes():
    for p in (5, 7, 11, 13):
        assert abs(abs(complete_sum(p, [0, 1])) - math.sqrt(p)) < 1e-9


def test_complete_sum_unit_scaling_invariance():
    # scaling the numerators by a unit permutes residues: modulus unchanged
    rng = np.random.default_rng(4)
    for q in (5, 9, 12, 17):
        a = [int(v) for v in rng.integers(0, q, size=2)]
        base = abs(complete_sum(q, a))
        for u in range(2, q):
            if math.gcd(u, q) == 1:
                scaled = [(u * v) % q for v in a]
                assert abs(abs(complete_sum(q, scaled)) - base) < 1e-10


def test_complete_sum_trivial_bound():
    rng = np.random.default_rng(5)
    for _ in range(10):
        q = int(rng.integers(1, 30))
        a = [int(v) for v in rng.integers(0, q + 1, size=3)]
        assert abs(complete_sum(q, a)) <= q + 1e-9


# ---------------------------------------------------------------------------
# oscillatory integral
# ---------------------------------------------------------------------------

def test_integral_trivial_cases():
    r = oscillatory_integral([0.0, 0.0], 5.0)
    assert abs(r.value - 5.0) < 1e-12
    r = oscillatory_integral([1.0], 1.0)
    assert abs(r.value) < 1e-12                            # full period


def test_integral_fresnel_frozen_value():
    # frozen from the 10x-density composite quadrature oracle below
    r = oscillatory_integral([0.0, 1.0], 1.0)
    expected = _fresnel_oracle()
    assert abs(r.value - expected) < 1e-10
    assert abs(r.value - (0.2441267030376 + 0.1717078391818j)) < 1e-9


def _fresnel_oracle():
    # independent: plain midpoint rule at very high density
    n = 200_000
    g = (np.arange(n) + 0.5) / n
    return np.sum(np.exp(2j * np.pi * g * g)) / n


def test_integral_modulus_bound_and_error_estimate():
    rng = np.random.default_rng(6)
    for _ in range(10):
        beta = rng.uniform(-3, 3, size=2)
        X = float(rng.uniform(0.5, 4.0))
        r = oscillatory_integral(beta, X)
        assert abs(r.value) <= X + 1e-9
        assert r.error_estimate < 1e-8


def test_integral_tolerance_error():
    with pytest.raises(ToleranceError) as ei:
        oscillatory_integral([40.0, 170.0], 9.0, tol=1e-30)
    assert ei.value.achieved is not None
    assert isinstance(ei.value, BudgetExceededError)  # hk exits 3


def test_integral_oversized_rule_raises_before_building_nodes(monkeypatch):
    # 8p = 3.2e9 nodes at beta = (0, 10^4), X = 100; the panel builder is
    # refused, so a missing check fails the test instead of allocating them
    def refuse(*args):
        raise AssertionError("panels built before the budget check")
    monkeypatch.setattr(expsums, "gl_panels", refuse)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as ei:
            oscillatory_integral([0.0, 1e4], 100.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ei.value.work_done == 0 and peak < 1 << 16


def test_gl_panels_exact_on_degree_15():
    nodes, weights = gl_panels(-1.5, 2.5, 3)
    assert len(nodes) == len(weights) == 24
    exact = (2.5 ** 16 - 1.5 ** 16) / 16
    assert abs(np.sum(weights * nodes ** 15) - exact) <= 1e-12 * exact


@pytest.mark.parametrize("B,panels", [(48.0, 216), (48.0, 215), (6.0, 7), (2.5, 1)])
def test_gl_panels_symmetric_interval_mirrors_exactly(B, panels):
    nodes, weights = gl_panels(-B, B, panels)
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(weights, weights[::-1])
    assert not np.any(nodes == 0)


def test_phase_tensor_mirrored_axes_match_full_exponentials():
    # both plain axes are exactly mirrored; as the last axis, the even one is
    # contracted in real arithmetic with its negative half read off the
    # mirror, and the odd one (a node at 0) by the complex product
    g, w = gl_panels(0.0, 1.0, 12)
    v1 = gl_panels(-3.0, 3.0, 4)[0]
    v2 = np.concatenate([v1[:5], [0.0], v1[-5:]])
    for a, b in [(v1, v2), (v2, v1)]:
        grid = phase_tensor(g, w, [a, b])
        ref = np.einsum("g,gi,gj->ij", w, np.exp(2j * np.pi * np.outer(g, a)),
                        np.exp(2j * np.pi * np.outer(g ** 2, b)))
        assert np.max(np.abs(grid - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_phase_tensor_weyl_grid_matches_batch(k):
    # integer points with unit weights: every cell is a Weyl sum, and the
    # phases x^j v are reduced mod 1 exactly, so phases of size X^k cost
    # nothing (unreduced, k = 2, X = 512 was off by 1.2e-9 and k = 4, X = 30
    # by 1.8e-9)
    X = {1: 512, 2: 512, 3: 60, 4: 30}[k]
    rng = np.random.default_rng(k)
    axes = [rng.random(3 + j) for j in range(k)]
    grid = phase_tensor(np.arange(X + 1.0), np.ones(X + 1), axes)
    assert grid.shape == tuple(len(a) for a in axes)
    points = np.array(list(itertools.product(*axes)))
    ref = weyl_sum_batch(points, X).reshape(grid.shape)
    assert np.max(np.abs(grid - ref)) < 1e-9


def test_phase_tensor_quadrature_matches_independent_references():
    g, w = gl_panels(0.0, 1.0, 40)
    axes = [np.array([0.0, 1.5, -2.25, 7.0]), np.array([0.0, 1.0, -3.0]),
            np.array([0.0, 2.0])]
    grid = phase_tensor(g, w, axes)
    # linear phase: I(b, 0, 0; 1) = (e(b) - 1) / (2 pi i b)
    for i, b in enumerate(axes[0]):
        ref = 1.0 if b == 0 else (np.exp(2j * np.pi * b) - 1) / (2j * np.pi * b)
        assert abs(grid[i, 0, 0] - ref) < 1e-12
    # pure quadratic phase: the midpoint-rule Fresnel oracle
    assert abs(grid[0, 1, 0] - _fresnel_oracle()) < 1e-10
    # c (g - 1/2)^3 = c g^3 - 3c/2 g^2 + 3c/4 g - c/8 is odd about g = 1/2,
    # so e(-c/8) I(3c/4, -3c/2, c; 1) is real
    c = 2.0
    cell = grid[1, 2, 1]
    assert abs(cell) > 0.1
    assert abs((np.exp(-2j * np.pi * c / 8) * cell).imag) < 1e-12


@pytest.mark.parametrize("points", [1, 7])
def test_phase_tensor_chunks_match_one_chunk(monkeypatch, points):
    # a quadrature and a Weyl grid summed over chunks of 1 or 7 points
    # against one chunk holding every point; chunks of 1 point also add
    # their share one row at a time
    g, w = gl_panels(0.0, 1.0, 40)
    X = 60
    rng = np.random.default_rng(7)
    cases = [(g, w, [np.array([0.0, 1.5, -2.25, 7.0]), gl_panels(-3.0, 3.0, 1)[0],
                     np.array([0.0, 2.0])], 1e-13),
             (np.arange(X + 1.0), np.ones(X + 1), [rng.random(3 + j) for j in range(3)], 1e-12)]
    for pts, wts, axes, tol in cases:
        sizes = [len(v) for v in axes]
        assert expsums.tensor_chunk(len(pts), sizes)[0] == len(pts)
        whole = phase_tensor(pts, wts, axes)
        cells = 1 if points == 1 else 2 * points * (math.prod(sizes[:-1]) + sizes[-1])
        monkeypatch.setattr(expsums, "TENSOR_CHUNK_CELLS", cells)
        assert expsums.tensor_chunk(len(pts), sizes)[0] == points
        assert np.max(np.abs(phase_tensor(pts, wts, axes) - whole)) <= tol
        monkeypatch.undo()


def _folded(axis):
    # the first axis of the singular integral: the panels with mid >= 0
    mids, offsets = axis
    return mids[mids >= 0], offsets


# Factored axes of odd and even panel counts.  gl_axis(-3, 3, 5) and
# gl_axis(-2, 2, 3) have a panel centred on 0, which the fold keeps whole and
# the mirrored last axis splits: its first 4 offsets are read off the mirror.
_FACTORED_AXES = {
    1: [[gl_axis(-2.0, 2.0, 3)[0]], [gl_axis(-1.5, 2.5, 3)[0]], [gl_axis(-4.0, 4.0, 4)[0]]],
    2: [[_folded(gl_axis(-3.0, 3.0, 5)[0]), gl_axis(-2.0, 2.0, 3)[0]],
        [gl_axis(-3.0, 3.0, 4)[0], gl_axis(-2.0, 2.0, 2)[0]],
        [_folded(gl_axis(-3.0, 3.0, 4)[0]), gl_axis(0.5, 2.0, 3)[0]],
        [gl_axis(-1.0, 1.0, 3)[0], np.array([-1.5, -0.5, 0.0, 0.5, 1.5])]],
    3: [[_folded(gl_axis(-2.0, 2.0, 3)[0]), gl_axis(-2.0, 2.0, 2)[0], gl_axis(-1.0, 1.0, 3)[0]],
        [gl_axis(-1.0, 1.0, 2)[0], np.array([0.25, -0.75]), gl_axis(-1.0, 1.0, 4)[0]]],
}


@pytest.mark.parametrize("k,case", [(k, i) for k, cases in _FACTORED_AXES.items()
                                    for i in range(len(cases))])
def test_phase_tensor_factored_axes_match_full_exponentials(k, case):
    # panel-factored phases and the real, mirror-aware contraction against
    # the complex grid built from e(g^j v) of every node value, on
    # quadrature points
    axes = _FACTORED_AXES[k][case]
    g, w = gl_panels(0.0, 1.0, 12)
    grid = phase_tensor(g, w, axes)
    values = [axis_nodes(a) for a in axes]
    mats = [np.exp(2j * np.pi * np.outer(g ** j, v)) for j, v in enumerate(values, start=1)]
    ref = np.einsum("g," + ",".join(f"g{c}" for c in "ijl"[:k]) + "->" + "ijl"[:k], w, *mats)
    assert grid.shape == ref.shape
    assert np.max(np.abs(grid - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_phase_tensor_factored_weyl_grid_matches_batch(k):
    # integer points: a factored axis reduces each of its midpoint and
    # offset phases mod 1 exactly, and every cell is still the Weyl sum at
    # its node value
    X = {1: 512, 2: 200, 3: 40}[k]
    axes = _FACTORED_AXES[k][0]
    grid = phase_tensor(np.arange(X + 1.0), np.ones(X + 1), axes)
    points = np.array(list(itertools.product(*[axis_nodes(a) for a in axes])))
    ref = weyl_sum_batch(points, X).reshape(grid.shape)
    assert np.max(np.abs(grid - ref)) < 1e-9


def test_gl_axis_nodes_are_the_gl_panels_rule():
    for lo, hi, panels in [(-48.0, 48.0, 96), (-48.0, 48.0, 215), (-3.0, 3.0, 5), (0.5, 2.0, 3)]:
        (mids, offsets), weights = gl_axis(lo, hi, panels)
        nodes, ref_weights = gl_panels(lo, hi, panels)
        assert np.array_equal(weights, ref_weights)
        assert np.max(np.abs(axis_nodes((mids, offsets)) - nodes)) <= 1e-14 * max(abs(lo), hi)
        if lo == -hi:
            assert np.array_equal(mids, -mids[::-1]) and np.array_equal(offsets, -offsets[::-1])


@pytest.mark.parametrize("block", [None, 40])
def test_power_in_place_matches_np_power(monkeypatch, block):
    # on the complete-sum grid of series_term, a transposed view of the DFT
    # rows, on a C-ordered k = 3 grid and on a 1-D grid; block = 40
    # cells splits each grid into several row blocks
    if block:
        monkeypatch.setattr(expsums, "TENSOR_CHUNK_CELLS", 2 * block)
    rng = np.random.default_rng(5)
    for s in range(1, 14):
        grids = [complete_sum_all(13, 2), complete_sum_all(7, 3),
                 rng.standard_normal(50) + 1j * rng.standard_normal(50)]
        assert not grids[0].flags.c_contiguous
        for T in grids:
            ref = np.power(T, s)
            power_in_place(T, s)
            assert np.all(np.abs(T - ref) <= 1e-14 * s * np.abs(ref))


def test_phase_tensor_over_cap_raises_before_allocating():
    # the axes of lattice_representation_integral(6, h, 10, 3): 61 x 601 x 6001
    # cells, about 3.5 GB of complex128
    axes = [np.arange(N) / N for N in (61, 601, 6001)]
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            phase_tensor(np.arange(11.0), np.ones(11), axes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# Both integrands are conjugate under negation, so the integrals fold one
# axis onto its non-negative half and keep the real part.  The unfolded
# full-axis evaluations below are the references.

def _planted_mu(u, k):
    return np.array([float(np.sum(np.asarray(u) ** j)) for j in range(1, k + 1)])


@pytest.mark.parametrize("mu,s,B", [
    (_planted_mu([0.3, 0.8], 1), 2, 20.0),
    (_planted_mu([0.1, 0.3, 0.45, 0.6, 0.8, 0.9], 2), 6, 12.0),
    (_planted_mu([round(9 * i / 12) / 9 for i in range(1, 13)], 3), 12, 2.0),
    # 59 beta_1 panels: the fold keeps the panel centred on 0 whole
    (_planted_mu([0.1, 0.3, 0.45, 0.6, 0.8, 0.9], 2), 6, 14.0),
])
def test_integral_fold_matches_full_beta_grid(mu, s, B):
    # the full grid of densities._integral_once at panel_scale 1
    k = len(mu)
    axes = [gl_panels(-B, B, max(4, math.ceil(B * (1.0 + abs(m))))) for m in mu]
    full = tensor_integral(*gamma_rule(k, B), axes, s, mu)
    folded, _ = _integral_once(mu, s, B, panel_scale=1.0)
    assert abs(full.imag) < 1e-9
    assert abs(folded - full.real) <= 1e-12 * abs(full.real)


@pytest.mark.parametrize("s,X,k,x", [
    (3, 4, 2, [1, 4, 2]),     # N_1 = 13
    (3, 3, 2, [0, 2, 3]),     # N_1 = 10: j = 5 is its own mirror
    (3, 6, 3, [1, 4, 6]),     # N_1 = 19
    (3, 3, 3, [1, 2, 3]),     # N_1 = 10
    (2, 2, 4, [1, 2]),        # N_1 = 5
    (3, 1, 4, [0, 1, 1]),     # N_1 = 4
])
def test_lattice_fold_matches_full_lattice(s, X, k, x):
    h = [sum(v ** j for v in x) for j in range(1, k + 1)]
    axes = [(np.arange(N) / N, 1.0 / N) for N in (s * X ** j + 1 for j in range(1, k + 1))]
    full = tensor_integral(np.arange(X + 1.0), np.ones(X + 1), axes, s, h)
    folded = lattice_representation_integral(s, h, X, k)
    assert abs(full.imag) < 1e-9
    assert abs(folded - full.real) <= 1e-12 * abs(full.real)
    assert folded.imag == 0


# ---------------------------------------------------------------------------
# reindexing and resolution identities
# ---------------------------------------------------------------------------

def test_shift_reindex_zero_shift_exact():
    assert verify_shift_reindex([0.291, 0.77], 10, 0) < 1e-12


def test_shift_reindex_undoes_a_positive_shift():
    # the shifted range read at psi(x) instead of psi(x - y) is far off, so
    # only the expanded polynomial passes
    alpha = np.array([0.291, 0.77, 0.113])
    X = 20
    for y in (1, 6, 20):
        assert verify_shift_reindex(alpha, X, y) <= 1e-9 * (X + 1)
        unshifted = sum(np.exp(2j * np.pi * sum(c * x ** j for j, c in enumerate(alpha, 1)))
                        for x in range(y, X + y + 1))
        assert abs(unshifted - weyl_sum(alpha, X)) > 1e-3


def test_shift_reindex_more_instances():
    assert verify_shift_reindex([1 / 3, 1 / 7], 5, 5) <= 1e-9 * 6
    rng = np.random.default_rng(7)
    for _ in range(10):
        alpha = rng.integers(0, 60, size=3) / rng.integers(1, 60, size=3)
        assert verify_shift_reindex(alpha % 1.0, 20, 7) <= 1e-9 * 21


def test_resolution_identity_instances():
    assert verify_resolution_identity([0.2, 2 / 7], 10, 3, 40) <= 1e-8 * 121
    rng = np.random.default_rng(8)
    for _ in range(5):
        alpha = rng.random(3)
        assert verify_resolution_identity(alpha, 15, 15, 64) <= 1e-8 * 256


def test_resolution_identity_trivial_y0_alpha0():
    # N-point average of f_0 * K at alpha = 0 collapses to the diagonal count
    assert verify_resolution_identity([0.0, 0.0], 8, 0, 27) < 1e-10


def test_resolution_identity_aliasing_guard():
    with pytest.raises(AliasingError):
        verify_resolution_identity([0.1, 0.2], 10, 3, 12)


# ---------------------------------------------------------------------------
# binomial transform
# ---------------------------------------------------------------------------

def test_shift_polynomials_structure():
    nu = ShiftPolynomials([5, 7, 2], 4, 3)
    assert [nu.evaluate(j, 0) for j in (1, 2, 3)] == [5, 7, 2]


@given(st.lists(st.integers(-20, 20), min_size=2, max_size=5),
       st.integers(-8, 8))
@settings(max_examples=60)
def test_nu1_is_affine(h_and_more, y):
    h = h_and_more
    s = 3
    nu = ShiftPolynomials(h, s, len(h))
    assert nu.evaluate(1, y) == h[0] + s * y


def test_binomial_transform_examples():
    assert verify_binomial_transform([2, 3], 1, 2)
    # y = 0: identity degenerates to the defining profile
    assert verify_binomial_transform([4, 9, 1], 0, 3)


@given(st.lists(st.integers(0, 25), min_size=2, max_size=6),
       st.integers(0, 12), st.integers(2, 4))
@settings(max_examples=80)
def test_binomial_transform_random_tuples(x, y, k):
    assert verify_binomial_transform(x, y, k)


# ---------------------------------------------------------------------------
# major-arc approximant
# ---------------------------------------------------------------------------

def _approximant(alpha, q, a, X):
    """``(q^{-1} S(q, a) I(alpha - a/q; X), f(alpha), classical error bound)``."""
    alpha = np.asarray(alpha, dtype=np.float64)
    V = complete_sum(q, a) / q * oscillatory_integral(alpha - np.array(a) / q, X).value
    bound = q + sum(X ** j * abs(q * alpha[j - 1] - a[j - 1]) for j in range(1, len(a) + 1))
    return V, weyl_sum(alpha, X), bound


def test_approximant_at_rational_center():
    V, f, _ = _approximant([0.0, 0.0], 1, [0, 0], 10.0)
    assert abs(V - 10.0) < 1e-9                           # I(0;X) = X
    assert abs(f - V) <= 1.0 + 1e-9                       # fractional defect


def test_approximant_k2_center():
    X = 16.0
    V, f, bound = _approximant([0.5, 0.5], 2, [1, 1], X)
    S = complete_sum(2, [1, 1])
    assert abs(V - S / 2 * X) < 1e-6 * X
    assert abs(f - V) <= 4 * bound                        # C fitted, small


def test_approximant_error_ratio_on_narrow_box():
    rng = np.random.default_rng(11)
    X = 1000.0
    ratios = []
    for _ in range(12):
        q = int(rng.integers(1, 4))
        a = [int(v) for v in rng.integers(0, q + 1, size=3)]
        beta = rng.uniform(-1, 1, size=3) * [X ** -1, X ** -2, X ** -3]
        alpha = np.array(a) / q + beta
        V, f, bound = _approximant(alpha, q, a, X)
        ratios.append(abs(f - V) / bound)
    assert max(ratios) <= 10.0
