"""hklab: a numerical laboratory for simultaneous power-sum systems.

Exact representation counting, exponential sums and oscillatory integrals,
local solubility testing, singular series / singular integral evaluation,
and Hardy-Littlewood arc dissection experiments.
"""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    SystemParams,
    power_sum_vector,
    reduce_mod1,
    target_scale,
    unit_phase,
)
