import numpy as np
import pytest
from hypothesis import given, strategies as st

from hklab.core import (
    SystemParams,
    power_sum_vector,
    reduce_mod1,
    target_scale,
    unit_phase,
)
from hklab.errors import ValidationError


def test_reduce_mod1_examples():
    assert reduce_mod1(1.25) == 0.25
    assert reduce_mod1(-0.25) == 0.75
    assert reduce_mod1(3.0) == 0.0


def test_reduce_mod1_nonfinite():
    with pytest.raises(ValidationError):
        reduce_mod1(float("nan"))
    with pytest.raises(ValidationError):
        reduce_mod1(float("inf"))


@given(st.floats(min_value=-1e9, max_value=1e9))
def test_reduce_mod1_range_and_integrality(x):
    r = reduce_mod1(x)
    assert 0.0 <= r < 1.0
    # x - r is an integer up to rounding at this magnitude
    assert abs((x - r) - round(x - r)) < 1e-6
    assert reduce_mod1(r) == r  # idempotent


def test_unit_phase_examples():
    assert unit_phase(0) == 1 + 0j
    assert abs(unit_phase(0.5) - (-1 + 0j)) < 1e-12
    assert abs(unit_phase(0.25) - 1j) < 1e-12


@given(st.floats(min_value=-100, max_value=100),
       st.floats(min_value=-100, max_value=100))
def test_unit_phase_is_homomorphism(t1, t2):
    assert abs(unit_phase(t1) * unit_phase(t2) - unit_phase(t1 + t2)) < 1e-10


@given(st.floats(min_value=-1e6, max_value=1e6))
def test_unit_phase_modulus(t):
    assert abs(abs(unit_phase(t)) - 1.0) < 1e-12


def test_power_sum_vector_examples():
    p = SystemParams.pure(3, 2)
    assert power_sum_vector([1, 1, 1], p) == [3, 3]
    p3 = SystemParams.pure(2, 3)
    assert power_sum_vector([0, 0], p3) == [0, 0, 0]
    pm = SystemParams.mixed_sign(1, 1, 2)
    assert power_sum_vector([2, 1], pm) == [1, 3]


def test_power_sum_vector_permutation_invariance_within_block():
    p = SystemParams.pure(4, 3)
    a = power_sum_vector([1, 5, 2, 7], p)
    b = power_sum_vector([7, 2, 5, 1], p)
    assert a == b


def test_power_sum_vector_monotone_pure():
    p = SystemParams.pure(3, 2)
    lo = power_sum_vector([1, 2, 3], p)
    hi = power_sum_vector([1, 2, 4], p)
    assert all(a <= b for a, b in zip(lo, hi))


def test_power_sum_vector_exact_bigint():
    p = SystemParams.pure(2, 5)
    v = power_sum_vector([10 ** 6, 10 ** 6], p)
    assert v[-1] == 2 * 10 ** 30  # no overflow


def test_system_params_derived_constants():
    p = SystemParams.pure(6, 4)
    assert p.x_min == 0


def test_system_params_degenerate_flags():
    assert SystemParams.mixed_sign(3, 1, 3).x_min == 1


def test_system_params_validation():
    with pytest.raises(ValidationError):
        SystemParams(0, 2)
    with pytest.raises(ValidationError):
        SystemParams.with_coefficients([1, 0], 2)
    with pytest.raises(ValidationError):
        SystemParams(2, 2, coeffs=(1,))


def test_target_scales():
    X, mu = target_scale((4, 25))
    assert X == 5.0
    assert np.allclose(mu, [4 / 5, 1.0])


def test_target_scale_is_first_entry_for_feasible_pure():
    # sum x >= sqrt(sum x^2) etc., so the first coordinate dominates
    x = [3, 5, 9]
    n = tuple(sum(v ** j for v in x) for j in (1, 2, 3))
    assert target_scale(n)[0] == n[0]


def test_target_validation():
    # shift targets may be negative; the scale reads |n_j|
    X, mu = target_scale((-1, 9))
    assert X == 3.0 and np.allclose(mu, [-1 / 3, 1.0])
    # the zero target (trivial solution counting) has scale 0 and mu = 0
    X, mu = target_scale((0, 0))
    assert X == 0.0 and mu.tolist() == [0.0, 0.0]


def test_target_mu_within_holder_box():
    x = [2, 7, 4, 4, 1, 9]
    n = tuple(sum(v ** j for v in x) for j in (1, 2))
    _, mu = target_scale(n)
    assert np.all(mu >= 0) and np.all(mu <= 6)
