"""Exception types shared across the package."""


class A1DegError(Exception):
    """Base class for every error this package raises on purpose."""


class FieldMismatchError(A1DegError):
    """Operands belong to different fields."""


class UnsupportedFieldError(A1DegError):
    """The operation (or the field itself) is not supported."""


class ZeroInputError(A1DegError):
    """Zero was passed where a nonzero element is required."""


class RingMismatchError(A1DegError):
    """Polynomials belong to different rings."""


class MissingAssignmentError(A1DegError):
    """A substitution does not cover every variable of the polynomial."""


class InexactDivisionError(A1DegError):
    """An exact division left a remainder."""


class ParseError(A1DegError):
    """Malformed polynomial, scalar, or field text."""


class NotZeroDimensionalError(A1DegError):
    """The ideal does not cut out a finite set of points."""


class NonSquareSystemError(A1DegError):
    """The number of polynomials does not match the number of variables."""


class DegenerateFormError(A1DegError):
    """A symmetric bilinear form that must be nondegenerate is not."""


class PointNotOnZeroLocusError(A1DegError):
    """The given maximal ideal does not contain the system."""


class IncompleteCoverError(A1DegError):
    """The listed points do not account for every zero of the system."""


class RetriesExhaustedError(A1DegError):
    """No admissible random choice was found within the retry budget."""
