"""The system type and exact arithmetic helpers shared by every module.

All lattice arithmetic (power sums, residue counts) is exact Python-integer
arithmetic; floating point is confined to phases and integrals.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# int64 headroom: counts and power sums below this bound, and the sum of
# two of them, cannot overflow.
INT64_SAFE = 2 ** 62


@dataclass(frozen=True)
class SystemParams:
    """The power-sum system: ``sum_i c_i x_i^j = n_j`` for ``j = 1..k``.

    ``coeffs`` is the tuple ``(c_1, ..., c_s)``; the pure system has all
    ``c_i = 1``.
    """

    s: int
    k: int
    coeffs: tuple = None

    def __post_init__(self):
        if self.s < 1:
            raise ValidationError("need at least one variable")
        if self.k < 1:
            raise ValidationError("degree k must be positive")
        # k = 1 systems are admitted as closed-form oracles for the density
        # machinery; the arc-dissection theory itself assumes k >= 2.
        if self.coeffs is None:
            object.__setattr__(self, "coeffs", (1,) * self.s)
        else:
            object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))
        if len(self.coeffs) != self.s:
            raise ValidationError("coefficient vector length must equal s")
        if any(c == 0 for c in self.coeffs):
            raise ValidationError("coefficients must be nonzero")

    @classmethod
    def pure(cls, s, k):
        return cls(s, k)

    @classmethod
    def mixed_sign(cls, l, m, k):
        return cls(l + m, k, (1,) * l + (-1,) * m)

    @classmethod
    def with_coefficients(cls, coeffs, k):
        return cls(len(coeffs), k, tuple(coeffs))

    @property
    def is_pure(self):
        return all(c == 1 for c in self.coeffs)

    @property
    def x_min(self):
        """Default variable lower bound: 0 for the pure system, 1 otherwise."""
        return 0 if self.is_pure else 1


def _target_vector(n):
    """The entries of a target sequence as Python ints."""
    return [int(v) for v in n]


def target_scale(n):
    """``X = max_j |n_j|^(1/j)`` and the normalised target ``mu_j = n_j / X^j``.

    ``X`` is the scale the counting and main-term formulas report against;
    ``mu`` is all zeros at ``X = 0``.
    """
    n = _target_vector(n)
    X = max(abs(v) ** (1.0 / j) for j, v in enumerate(n, start=1))
    if X == 0.0:
        return X, np.zeros(len(n))
    return X, np.array([v / X ** j for j, v in enumerate(n, start=1)])


TWO_PI = 2.0 * math.pi


def reduce_mod1(x):
    """Reduce a finite real into ``[0, 1)``."""
    if not math.isfinite(x):
        raise ValidationError("non-finite frequency")
    r = x - math.floor(x)
    if r >= 1.0:  # floor rounding at negative epsilon
        r -= 1.0
    return r


def unit_phase(t):
    """``e(t) = exp(2 pi i t)``."""
    if not math.isfinite(t):
        raise ValidationError("non-finite phase")
    r = reduce_mod1(t)
    return complex(math.cos(TWO_PI * r), math.sin(TWO_PI * r))


def power_sum_vector(x, params):
    """Exact integer vector ``(sum_i c_i x_i^j)_{j=1..k}`` for a tuple ``x``."""
    x = [int(v) for v in x]
    if len(x) != params.s:
        raise ValidationError("tuple length must equal s")
    if params.is_pure and any(v < 0 for v in x):
        raise ValidationError("pure-system variables are non-negative")
    out = []
    for j in range(1, params.k + 1):
        out.append(sum(c * v ** j for c, v in zip(params.coeffs, x)))
    return out
