"""Exception types shared across the package."""


class PlanarqError(Exception):
    """Base class for all planarq errors."""


class NotOddPrime(PlanarqError):
    """The characteristic is 2 or not prime."""


class SizeLimit(PlanarqError):
    """An enumeration-based operation exceeds the configured field-size bound."""


class LevelMismatch(PlanarqError):
    """A code lies outside the field of the tower its operand must live in."""


class DivisionByZero(PlanarqError, ZeroDivisionError):
    """Inverse or division requested for the zero element."""


class NotOnLocus(PlanarqError):
    """(A, B) lies on none of the reducibility loci handled by the verifier."""


class SquareRootUnavailable(PlanarqError):
    """A branch needs a square root of -3 but -3 is a non-square in F_q."""


class Disagreement(PlanarqError):
    """Two computations that must agree did not: a mathematical disagreement."""


class CoefficientNotInSubfield(PlanarqError):
    """A coefficient expected to land in F_q did not; indicates a bug."""


class ValidationFailed(PlanarqError):
    """A family instantiation was requested with violated side conditions."""


class FieldMismatch(PlanarqError):
    """The supplied field does not match the one a family lives in."""
