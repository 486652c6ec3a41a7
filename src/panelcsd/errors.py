"""Exception hierarchy.

Two branches matter for exit-code mapping in the command line tool:
``UsageError`` subclasses signal bad input (data files, flags, malformed
requests) and map to exit code 1; ``NumericalError`` subclasses signal a
computation that could not be completed (singular matrices, failed
eigensolves, invalid covariance targets) and map to exit code 2. A
``WorkerPoolError`` (the Monte Carlo worker pool broke) also maps to 1.
"""

from __future__ import annotations

__all__ = [
    "PanelError",
    "UsageError",
    "NumericalError",
    "ParseError",
    "UnbalancedPanel",
    "DuplicateCell",
    "SingularGram",
    "EigenFailure",
    "DegenerateFamily",
    "NegativeDelta",
    "RankDeficient",
    "SingularCov",
    "TruncTooLarge",
    "SpecMismatch",
    "NotPSD",
    "SingularRestrictedCov",
    "DomainError",
    "WorkerPoolError",
    "ConditionWarning",
]


class PanelError(Exception):
    """Base class for all package errors."""


class UsageError(PanelError):
    """Bad input: files, flags, or malformed requests."""


class NumericalError(PanelError):
    """A computation failed for numerical reasons."""


class ParseError(UsageError):
    """A data file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnbalancedPanel(UsageError):
    """The (unit, time) grid has holes; message lists missing cells."""


class DuplicateCell(UsageError):
    """The same (unit, time) pair appears more than once."""


class SingularGram(NumericalError):
    """Demeaned regressor cross-product is singular or numerically so."""


class EigenFailure(NumericalError):
    """The symmetric eigensolver did not converge."""


class DegenerateFamily(UsageError):
    """A dependence norm is identically zero somewhere on the size grid."""


class NegativeDelta(NumericalError):
    """A factor strength came out negative beyond tolerance."""


class RankDeficient(NumericalError):
    """Matrix eigenvalues are negative beyond the positive-semidefinite tolerance."""


class SingularCov(NumericalError):
    """A covariance estimate is numerically singular."""


class TruncTooLarge(UsageError):
    """Lag truncation is not smaller than the number of periods."""


class SpecMismatch(UsageError):
    """Simulation spec components are mutually inconsistent."""


class NotPSD(NumericalError):
    """A requested covariance matrix is not positive semidefinite."""


class SingularRestrictedCov(NumericalError):
    """The restricted covariance in a Wald statistic cannot be inverted."""


class DomainError(UsageError):
    """Argument outside the mathematical domain of a function."""


class WorkerPoolError(PanelError):
    """The Monte Carlo worker pool broke: a worker could not start or was
    killed. The message names the cell that was running."""


class ConditionWarning(UserWarning):
    """Raised as a warning when a design is poorly conditioned."""
