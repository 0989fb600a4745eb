"""Exception types for the generalized parametric metric toolkit."""


class GpmsError(Exception):
    """Base class for all toolkit errors."""


class DomainError(GpmsError, ValueError):
    """An argument lies outside an operation's domain."""


class ConstructionError(GpmsError, ValueError):
    """An instance or carrier failed a construction-time sanity check.

    ``axiom`` names the violated requirement ("P1", "P2", "monotone",
    "triangle", "finite", ...) so callers can report it without string matching.
    """

    def __init__(self, message, axiom=None):
        super().__init__(message)
        self.axiom = axiom


class ParseError(GpmsError, ValueError):
    """An instance file is malformed; carries the offending field or line."""

    def __init__(self, message, field=None, line=None):
        super().__init__(message)
        self.field = field
        self.line = line


class NoSolutionError(GpmsError):
    """A residual problem has no solution at the probe resolution."""


class HypothesisError(GpmsError):
    """A theorem-level hypothesis does not hold for the given inputs."""


class PreconditionError(GpmsError):
    """A documented operation precondition was violated."""


class SizeError(PreconditionError):
    """A carrier is too large for exhaustive enumeration (a battery guard
    reports the check it stops as inconclusive)."""


class VerificationError(GpmsError):
    """An internal cross-check failed; indicates a bookkeeping bug."""


class WitnessNotFoundError(GpmsError):
    """No witness could be constructed for the requested property."""
