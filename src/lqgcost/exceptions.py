"""Exception hierarchy for lqgcost.

Two broad families matter to callers (and to the CLI exit codes):
input/usage problems (`ModelFormatError`, plain `ValueError`) and
mathematical-condition failures (`ConditionError` and subclasses), where the
requested quantity does not exist or cannot be computed reliably for the
given data.
"""

from dataclasses import dataclass

__all__ = ["ConditionCheck", "LqgCostError", "DimensionError", "ModelFormatError",
           "ConditionError", "SingularLyapunovError", "NumericalError", "AccuracyError",
           "SynthesisError", "InfeasibleGainError"]


@dataclass(frozen=True)
class ConditionCheck:
    """Outcome of one named validity predicate."""

    name: str
    passed: bool
    detail: str = ""


class LqgCostError(Exception):
    """Base class for all library-specific errors."""


class DimensionError(LqgCostError, ValueError):
    """Matrix or vector arguments have inconsistent shapes."""


class ModelFormatError(LqgCostError, ValueError):
    """A model file does not conform to the documented schema."""


class ConditionError(LqgCostError, ArithmeticError):
    """A mathematical precondition fails (spectrum, definiteness, horizon).

    Carries the list of :class:`ConditionCheck` predicates that were checked
    so callers can report exactly which requirement failed.
    """

    def __init__(self, message, conditions=None):
        super().__init__(message)
        self.conditions = list(conditions) if conditions is not None else []


class SingularLyapunovError(ConditionError):
    """The Lyapunov equation has no unique solution (eigenvalue pair sums to zero)."""


class NumericalError(LqgCostError, ArithmeticError):
    """A computation produced a result inconsistent with its own checks."""


class AccuracyError(NumericalError):
    """A method would lose too much accuracy for the given data (e.g. huge exponent)."""


class SynthesisError(ConditionError):
    """Gain synthesis failed (non-stabilizable pair, no convergence, ...)."""


class InfeasibleGainError(ConditionError):
    """A candidate feedback gain does not stabilize the (shifted) closed loop."""
