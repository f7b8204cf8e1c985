"""Domain types and exact arithmetic helpers shared by every module.

All lattice arithmetic (power sums, residue counts) is exact Python-integer
arithmetic; floating point is confined to phases and integrals.  Two system
scales coexist on :class:`Target`: ``scale_raw = max_j n_j^(1/j)`` is the
scale the counting/main-term formulas report against, and
``scale_dissection = 2 * scale_raw`` is the scale all arc machinery uses.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

# int64 headroom: counts and power sums below this bound, and the sum of
# two of them, cannot overflow.
INT64_SAFE = 2 ** 62


@dataclass(frozen=True)
class SystemParams:
    """The power-sum system: ``sum_i c_i x_i^j = n_j`` for ``j = 1..k``.

    ``coeffs`` is the tuple ``(c_1, ..., c_s)``; the pure system has all
    ``c_i = 1``.  A sign-split system with equally many +1 and -1 variables
    (or any coefficient vector summing to zero) retains a shadow of
    translation invariance and is flagged ``degenerate``.
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
    def degenerate(self):
        """Coefficient sum zero: the shift argument loses its extra variable."""
        return sum(self.coeffs) == 0

    @property
    def w(self):
        return self.k * (self.k + 1) // 2

    @property
    def v(self):
        return self.k * (self.k - 1) // 2

    @property
    def x_min(self):
        """Default variable lower bound: 0 for the pure system, 1 otherwise."""
        return 0 if self.is_pure else 1


def _scale_raw(n):
    best = 0.0
    for j, nj in enumerate(n, start=1):
        r = abs(nj) ** (1.0 / j)
        if r > best:
            best = r
    return best


@dataclass(frozen=True)
class Target:
    """Target vector ``n`` with its derived scales and normalized form.

    ``mu`` always refers to ``mu_raw``; the doubled-scale version used by the
    arc dissection is ``mu_dissection``.
    """

    n: tuple
    allow_nonpositive: bool = False
    scale_raw: float = field(init=False)
    scale_dissection: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        if len(self.n) == 0:
            raise ValidationError("empty target")
        if not self.allow_nonpositive and any(v < 0 for v in self.n):
            raise ValidationError("pure-system targets must be non-negative")
        raw = _scale_raw(self.n)
        object.__setattr__(self, "scale_raw", raw)
        object.__setattr__(self, "scale_dissection", 2.0 * raw)

    @property
    def k(self):
        return len(self.n)

    @property
    def mu(self):
        return self.mu_raw

    @property
    def mu_raw(self):
        return self._mu(self.scale_raw)

    @property
    def mu_dissection(self):
        return self._mu(self.scale_dissection)

    def _mu(self, scale):
        if scale == 0.0:
            return np.zeros(self.k)
        return np.array([nj / scale ** j for j, nj in enumerate(self.n, start=1)])


def _target_vector(n):
    """The entries of a target (a ``Target`` or any sequence) as Python ints."""
    if isinstance(n, Target):
        return list(n.n)
    return [int(v) for v in n]


class FrequencyPoint:
    """A point of the frequency torus ``[0,1)^k`` (or of beta-space)."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        arr = np.atleast_1d(np.asarray(coords, dtype=np.float64))
        if not np.all(np.isfinite(arr)):
            raise ValidationError("non-finite frequency")
        self.coords = arr

    def reduced(self):
        """Coordinate-wise reduction into ``[0,1)`` (idempotent)."""
        return FrequencyPoint(np.array([reduce_mod1(c) for c in self.coords]))

    def __len__(self):
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __repr__(self):
        return f"FrequencyPoint({self.coords.tolist()})"


class ComplexAcc:
    """Deterministic complex accumulator for unimodular terms.

    Terms are added in call order and merges combine partials in the order
    given, so repeated runs are bit-identical.  ``abs(value) <= count`` holds
    whenever every added term is unimodular.
    """

    __slots__ = ("re", "im", "count")

    def __init__(self):
        self.re = 0.0
        self.im = 0.0
        self.count = 0

    def add(self, z):
        self.re += z.real
        self.im += z.imag
        self.count += 1

    def add_phase(self, t):
        self.re += math.cos(TWO_PI * t)
        self.im += math.sin(TWO_PI * t)
        self.count += 1

    def merge(self, other):
        self.re += other.re
        self.im += other.im
        self.count += other.count
        return self

    @property
    def value(self):
        return complex(self.re, self.im)


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
