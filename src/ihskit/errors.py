"""Exception types shared across the package."""


class IhskitError(Exception):
    """Base class for all ihskit errors."""


class DimensionError(IhskitError, ValueError):
    """Shapes of the supplied operands are incompatible."""


class NonFiniteError(IhskitError, ValueError):
    """An input contains NaN or infinite entries."""


class PowerOfTwoError(IhskitError, ValueError):
    """A transform length is not a power of two."""


class SingularMatrixError(IhskitError):
    """A matrix that must be positive definite failed factorization.

    Attributes:
        pivot: zero-based index of the first non-positive pivot.
    """

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class RankDeficiencyError(IhskitError):
    """A Gram matrix is singular: A is rank deficient or the sketch size m is too small."""


class SvdConvergenceError(IhskitError):
    """The SVD routine failed to converge.

    Attributes:
        attempts: number of driver attempts made before giving up.
    """

    def __init__(self, message, attempts=1):
        super().__init__(message)
        self.attempts = attempts


class MissingHintError(IhskitError, ValueError):
    """A structural hint (sparsity s or rank r) required by a formula is missing."""
