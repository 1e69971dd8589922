"""Exception types shared across the library."""


class SparseRollError(Exception):
    """Base class for all sparseroll errors."""


class NonConvergenceError(SparseRollError):
    """An iterative solver hit its iteration cap before meeting tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class IllConditionedError(SparseRollError):
    """A linear solve inside an algorithm is numerically unreliable."""


class AssumptionViolatedError(SparseRollError):
    """A structural assumption required by a design step does not hold."""


class HorizonMismatchError(SparseRollError):
    """Lookahead horizon is not a multiple of the base actuation period."""


class NonFiniteError(SparseRollError):
    """A computed quantity overflowed or became NaN."""


class ConfigError(SparseRollError):
    """Experiment configuration failed validation."""
