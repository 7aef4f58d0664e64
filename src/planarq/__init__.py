"""planarq: exhaustive planarity engine for x*(x^(q^2) + A*x^q + B*x) over F_{q^3}."""

__version__ = "0.1.0"

from .errors import (
    Disagreement,
    DivisionByZero,
    LevelMismatch,
    NotOddPrime,
    PlanarqError,
    SizeLimit,
    ValidationFailed,
)
from .gf import (
    DEFAULT_MAX_Q3,
    Field,
    FieldTower,
    PrimeField,
    build_tower,
    find_irreducible,
    find_normal_element,
    max_enumeration_order,
    prime_ext_field,
    standard_extension,
)

__all__ = [name for name in dir() if not name.startswith("_")]
