"""Exception types shared across the heattrace modules."""


class HeatTraceError(Exception):
    """Base class for all errors raised by this package.

    `field` names the input the error is about (a parameter, a command-line
    flag or a JSON path of a spec file), or is None.
    """

    def __init__(self, *args, field=None):
        super().__init__(*args)
        self.field = field


class DomainError(HeatTraceError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class OverflowRangeError(HeatTraceError, OverflowError):
    """An unscaled result exceeds the double-precision range.

    Callers should switch to the exponentially scaled variant.
    """


class AccuracyLossError(HeatTraceError, ArithmeticError):
    """Cancellation ate the accuracy budget; carries the achieved tolerance."""

    def __init__(self, message, achieved_tol):
        super().__init__(f"{message} (achieved relative tolerance ~ {achieved_tol:.3e})")
        self.achieved_tol = achieved_tol


class ConvergenceError(HeatTraceError, RuntimeError):
    """An iteration failed to converge; carries diagnostic state."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ToleranceError(HeatTraceError, ArithmeticError):
    """A requested truncation tolerance could not be achieved."""

    def __init__(self, message, achieved):
        super().__init__(f"{message} (achieved bound {achieved:.3e})")
        self.achieved = achieved


class BudgetExceededError(HeatTraceError, RuntimeError):
    """A node or term budget ran out; carries the best estimate so far."""

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


class IllConditionedFitError(HeatTraceError, ArithmeticError):
    """A least-squares extraction was too ill conditioned to trust."""

    def __init__(self, message, condition_number):
        super().__init__(f"{message} (condition number {condition_number:.3e})")
        self.condition_number = condition_number


class ResidualError(HeatTraceError, ArithmeticError):
    """A fit residual is larger than the data's error budget allows."""


class UnsupportedBCError(HeatTraceError, ValueError):
    """The requested boundary condition has no model in this setting."""


class DiagonalPointError(HeatTraceError, ValueError):
    """Coincident evaluation points where only an off-diagonal formula exists."""


class WeakEnvelopeError(HeatTraceError, ValueError):
    """The decay envelope is too weak to truncate the integral reliably."""


class StepSizeError(HeatTraceError, ArithmeticError):
    """A finite-difference residual is dominated by discretization error."""


class InconsistentSpecError(HeatTraceError, ValueError):
    """Redundant geometric data in a domain spec contradicts itself."""


class ValidationError(HeatTraceError, ValueError):
    """A domain spec file or argument failed validation; names the field."""


class TailBoundError(HeatTraceError, ArithmeticError):
    """A spectral tail bound exceeds the requested tolerance."""

    def __init__(self, message, tail_bound, suggested_cutoff=None):
        super().__init__(message)
        self.tail_bound = tail_bound
        self.suggested_cutoff = suggested_cutoff


class EnvelopeViolationWarning(UserWarning):
    """Sampled integrand values exceeded the declared decay envelope."""
