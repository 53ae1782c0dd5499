"""Exception types shared across the package.

The CLI maps these onto exit codes: invalid input and undefined
quantities exit 2, resource limits (enumeration size, assignment
count, query budget, simplex pivot limit) exit 3, failed verification
exits 1.
"""


class InvalidInputError(ValueError):
    """Malformed instance, mechanism, or argument."""


class DimensionMismatchError(InvalidInputError):
    """Objects built over different grids or with inconsistent lengths."""


class UndefinedRatioError(InvalidInputError):
    """Approximation ratio requested for a zero-revenue mechanism
    against a positive optimum."""


class UndefinedConditionalError(InvalidInputError):
    """Conditional probability queried on a zero-probability event."""


class NonRepresentableError(InvalidInputError):
    """Interim payments that no losers-pay-zero ex-post lottery can carry
    (nonzero payment at zero allocation)."""


class SizeLimitError(RuntimeError):
    """Enumeration or assignment count above the configured cap."""


class BudgetError(RuntimeError):
    """Oracle query budget exhausted."""


class PivotLimitError(RuntimeError):
    """Simplex run past its pivot limit without terminating."""
