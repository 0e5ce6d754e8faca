"""Exception hierarchy shared across the package."""


class QsolError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(QsolError):
    """Operands live in incompatible ambient spaces."""


class ParameterMismatch(QsolError):
    """Pauli operators with different qupit count or local dimension."""


class DependentCentre(QsolError):
    """Projection centre vectors are proportional or zero."""


class CollapsedImage(QsolError):
    """A projected object dropped rank (it met the projection centre)."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class DegenerateLine(QsolError):
    """Column pair (i, i+n) of a generator matrix is dependent."""


class UnsupportedModulus(QsolError):
    """Operation only defined for a specific local dimension."""


class IsolatedVertex(QsolError):
    """Graph vertex without any incident edge."""


class InvalidGroup(QsolError):
    """Generator set fails a stabiliser-group invariant."""


class NonCommutingGenerators(InvalidGroup):
    """Generators with a non-vanishing symplectic form."""


class NoClique(QsolError):
    """Compatibility graph has no vertices to build a coding set from."""


class TooLarge(QsolError):
    """Dense-matrix construction beyond the desk-scale guard."""


class TimeLimitExceeded(QsolError):
    """Search ran out of time; carries the best clique found so far."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class InputFormatError(QsolError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
