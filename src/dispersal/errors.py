"""Exception hierarchy shared by every module.

Two broad classes are distinguished so the command-line runner can map
failures onto exit codes: precondition/configuration problems
(:class:`ValidationError`, exit 2) versus failures that occur while the
numerics are running (:class:`NumericsError`, exit 3).
"""

from __future__ import annotations


class DispersalError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(DispersalError, ValueError):
    """A precondition on inputs or configuration was violated."""


class NumericsError(DispersalError, RuntimeError):
    """A numerical procedure failed at run time."""


class SolverFailureError(NumericsError):
    """An implicit linear solve could not reach the requested residual."""


class BlowUpError(NumericsError):
    """The evolved field exceeded the finite-existence threshold."""


class NoConvergenceError(NumericsError):
    """An iteration hit its cap before meeting its tolerance."""


class CollapsedToZeroError(NumericsError):
    """A positive-orbit iteration decayed to the zero state."""
