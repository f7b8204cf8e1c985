"""Exception types shared across the package.

The CLI maps these onto exit codes: validation failures exit 2, budget
exhaustion exits 3, anything else exits 4.
"""


class ValidationError(ValueError):
    """Bad input: malformed config, out-of-range parameter, non-finite value."""


class BudgetExceededError(RuntimeError):
    """An enumeration or search ran out of its work budget.

    ``work_done`` carries the number of units completed before the budget
    tripped, so callers can report partial progress.
    """

    def __init__(self, message, work_done=0):
        super().__init__(message)
        self.work_done = work_done


class MemoryBudgetError(BudgetExceededError):
    """A histogram or map would exceed its memory budget."""


class AliasingError(ValidationError):
    """A lattice/average resolution is too coarse to be exact."""


class ToleranceError(BudgetExceededError):
    """A requested tolerance was not reached within the work budget."""

    def __init__(self, message, value=None, achieved=None):
        super().__init__(message)
        self.value = value
        self.achieved = achieved


class NonConvergedError(RuntimeError):
    """A density estimate required as converged is not."""
