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


class Disagreement(PlanarqError):
    """Two computations that must agree did not: a mathematical disagreement."""


class ValidationFailed(PlanarqError):
    """A family instance names no catalog entry or no element where it needs
    one: an unknown family id, a supplied code outside its field, or no
    element that meets a condition."""
