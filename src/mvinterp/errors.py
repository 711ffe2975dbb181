"""Exception types shared across the library.

Every error raised on purpose by mvinterp derives from MvInterpError so
callers can catch library failures with a single except clause.  The CLI
maps these to exit code 1 (bad input) unless noted otherwise.
"""


class MvInterpError(Exception):
    """Base class for all mvinterp errors."""


class CtxMismatch(MvInterpError):
    """Operands belong to different field contexts."""


class DivisionByZero(MvInterpError, ZeroDivisionError):
    """Field or polynomial division by zero."""


class NotInvertible(MvInterpError):
    """Power series inversion of f with f(0) = 0."""


class FieldTooSmall(MvInterpError):
    """The field has fewer elements than a requested sampling subset.

    Kept for callers that catch it; the library no longer raises it, since
    the structured kernel samples the whole of a field below its floor."""


class DuplicateNode(MvInterpError):
    """Interpolation nodes are not pairwise distinct."""


class BadLength(MvInterpError):
    """Reversal length smaller than the polynomial degree."""


class ExtensionSearchFailed(MvInterpError):
    """Random search for an irreducible polynomial exhausted its retry budget."""


class NoSolutionSpace(MvInterpError):
    """The exponent set of admissible Y-monomials is empty."""


class DegreeViolation(MvInterpError):
    """A polynomial exceeds its prescribed degree bound."""


class TooLarge(MvInterpError):
    """A dense desk-scale oracle was asked for an instance above its guard."""


class WrongTag(MvInterpError):
    """A generator with the wrong displacement-operator tag was supplied."""


class Degenerate(MvInterpError):
    """An instance violates a structural invariant that should be impossible."""


class AssumptionViolated(MvInterpError):
    """One of the decoding parameter assumptions H1..H4 does not hold."""

    def __init__(self, which, message=""):
        self.which = which
        super().__init__(f"{which}: {message}" if message else which)


class PreconditionViolated(MvInterpError):
    """A pipeline-specific input precondition does not hold."""
