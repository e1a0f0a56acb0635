"""Exception types raised across the package."""


class PdsplitError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(PdsplitError, ValueError):
    """An operand has the wrong dimension for the requested operation."""


class UnsupportedObjectiveError(PdsplitError, ValueError):
    """Objective value is not defined for this problem configuration."""


class UnsupportedMetricError(PdsplitError, ValueError):
    """A diagnostic requires an oracle the problem does not provide."""


class AlgorithmMisuseError(PdsplitError, ValueError):
    """A reduced iteration was invoked on a problem that violates its premise."""


class StepSizeError(PdsplitError, ValueError):
    """Step sizes rejected by the convergence conditions (and not forced)."""


class NumericalFailureError(PdsplitError, ArithmeticError):
    """A solver sub-step produced non-finite values.

    Attributes
    ----------
    sub_step : name of the update that failed ("s-update", ...).
    iteration : outer iteration index, when raised from the solve loop.
    """

    def __init__(self, message, sub_step=None, iteration=None):
        super().__init__(message)
        self.sub_step = sub_step
        self.iteration = iteration


class NormEstimateError(PdsplitError, RuntimeError):
    """Power iteration failed to meet its tolerance; carries the last estimate."""

    def __init__(self, message, last_estimate):
        super().__init__(message)
        self.last_estimate = last_estimate


class GeometryViolationError(PdsplitError, ValueError):
    """The dual metric is not positive semidefinite for the given step sizes."""


class HypothesisViolationError(PdsplitError, ValueError):
    """A certificate was requested outside the conditions that justify it."""


class ConfigParseError(PdsplitError, ValueError):
    """A run configuration could not be parsed or holds a value the package rejects.

    Carries the 1-based line and column of the offending token, when it has one.
    """

    def __init__(self, message, line=None, column=None):
        super().__init__(message if line is None else f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
