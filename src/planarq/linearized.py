"""Linearized maps x -> c0*x + c1*x^q + c2*x^(q^2) on F_{q^3}.

A map of this shape is F_q-linear, so bijectivity is decided by a 3x3
coefficient matrix built from Frobenius twists of (c0, c1, c2); the map is a
permutation of F_{q^3} exactly when that matrix is nonsingular
(``gf.det3`` of ``dickson_matrix``).  The brute kernel enumeration is kept
alongside as the independent oracle.  Maps are evaluated and matrices are
written on codes: ``LinTriple.apply`` takes an int or an array of codes, and
the matrices are 3x3 nested tuples of codes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LevelMismatch, SizeLimit
from .gf import Elt, Field, FieldTower


@dataclass(frozen=True)
class LinTriple:
    """Coefficients of x -> c0*x + c1*x^q + c2*x^(q^2), all in F_{q^3}."""

    c0: Elt
    c1: Elt
    c2: Elt

    def __post_init__(self):
        f = self.c0.field
        if not (isinstance(f, Field) and f.degree == 3):
            raise LevelMismatch("LinTriple coefficients must live in a cubic extension")
        if self.c1.field != f or self.c2.field != f:
            raise LevelMismatch("LinTriple coefficients must share one field")

    @property
    def field(self) -> Field:
        return self.c0.field

    def apply(self, x):
        """L(x) for codes x (an int or an array), Frobenius read from ``frob_table``."""
        f = self.field
        x = np.asarray(x, dtype=np.int64)
        acc = f.mul_vec(self.c0.code, x)
        acc = f.add_vec(acc, f.mul_vec(self.c1.code, f.frob_table(1)[x]))
        return f.add_vec(acc, f.mul_vec(self.c2.code, f.frob_table(2)[x]))


Matrix3 = tuple  # 3x3 nested tuples of codes


def dickson_matrix(L: LinTriple) -> Matrix3:
    """entry(i, j) = c_((j - i) mod 3) ^ (q^i)."""
    f = L.field
    cs = (L.c0.code, L.c1.code, L.c2.code)
    return tuple(tuple(f.frob(cs[(j - i) % 3], i) for j in range(3)) for i in range(3))


def has_nonzero_root_subfield_coeffs(alpha: Elt, beta: Elt, gamma: Elt) -> bool:
    """Nonzero-kernel criterion for alpha*x^(q^2) + beta*x^q + gamma*x, coefficients in F_q.

    True exactly when alpha^3 + beta^3 + gamma^3 - 3*alpha*beta*gamma = 0.
    """
    f = alpha.field
    if beta.field != f or gamma.field != f:
        raise LevelMismatch("coefficients must share one field")
    a, b, g = alpha.code, beta.code, gamma.code
    acc = f.add(f.add(f.pow(a, 3), f.pow(b, 3)), f.pow(g, 3))
    prod = f.mul(f.mul(a, b), g)
    acc = f.sub(acc, f.mul(f.from_int(3), prod))
    return acc == 0


def brute_kernel(L: LinTriple) -> list[Elt]:
    """All x with L(x) = 0, by exhaustive evaluation, in code order."""
    f = L.field
    if f.order > f.enum_bound():
        raise SizeLimit(f"kernel enumeration needs |F| <= bound, got {f.order}")
    return [Elt(f, int(c)) for c in np.flatnonzero(L.apply(np.arange(f.order)) == 0)]


def difference_triple(tower: FieldTower, A: Elt, B: Elt, C: Elt) -> LinTriple:
    """Linearized difference map of the engine's quadratic family at shift C.

    For f(x) = x*(x^(q^2) + A*x^q + B*x) the map x -> f(x+C) - f(x) - f(C)
    equals C*x^(q^2) + A*C*x^q + (C^(q^2) + A*C^q + 2*B*C)*x.
    """
    if A.field != tower.fq or B.field != tower.fq:
        raise LevelMismatch("A and B must live in F_q")
    if C.field != tower.fq3:
        raise LevelMismatch("C must live in F_{q^3}")
    f = tower.fq3
    a = A.code  # subfield embedding is the identity on codes
    twob = tower.fq.add(B.code, B.code)
    c0 = f.add(f.frob(C.code, 2), f.add(f.mul(a, f.frob(C.code, 1)), f.mul(twob, C.code)))
    c1 = f.mul(a, C.code)
    return LinTriple(Elt(f, c0), Elt(f, c1), C)


def difference_matrix_direct(tower: FieldTower, A: Elt, B: Elt, C: Elt) -> Matrix3:
    """The difference-map matrix written out entry by entry.

    Independent transcription kept solely to pin dickson_matrix's convention;
    the two constructions must agree on every (A, B, C).
    """
    f = tower.fq3
    a = A.code
    twob = tower.fq.add(B.code, B.code)
    c = C.code
    cq = f.frob(c, 1)
    cq2 = f.frob(c, 2)

    def cell(*terms):
        acc = 0
        for t in terms:
            acc = f.add(acc, t)
        return acc

    return (
        (cell(f.mul(a, cq), f.mul(twob, c), cq2), cell(f.mul(a, c)), cell(c)),
        (cell(cq), cell(f.mul(a, cq2), f.mul(twob, cq), c), cell(f.mul(a, cq))),
        (cell(f.mul(a, cq2)), cell(cq2), cell(f.mul(a, c), f.mul(twob, cq2), cq)),
    )
