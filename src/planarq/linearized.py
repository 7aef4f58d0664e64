"""Linearized maps x -> c0*x + c1*x^q + c2*x^(q^2) on F_{q^3}.

A map of this shape is F_q-linear, so bijectivity is decided by a 3x3
coefficient matrix built from Frobenius twists of (c0, c1, c2); the map is a
permutation of F_{q^3} exactly when that matrix is nonsingular
(``gf.det3`` of ``dickson_matrix``).  The brute kernel enumeration is kept
alongside as the independent oracle.  A map is its three coefficient codes
(c0, c1, c2), passed with its field: ``dickson_matrix`` and ``brute_kernel``
check that the field is a cubic extension and the codes lie in it, the
matrices are 3x3 nested tuples of codes, and ``brute_kernel`` lists the
kernel's codes.  ``kernel_sizes`` counts the kernels of many maps at once,
in bounded chunks.

The determinant decider (``planarity._dets_at``) is ``gf.det3`` of the same
matrix, built on arrays of shifts by the cores ``_difference_coeffs`` and
``_dickson`` that ``difference_triple`` and ``dickson_matrix`` wrap, as
``difference_matrix_direct`` wraps the array core ``_direct_matrix``.  Each
core takes its operations from ``gf._ops``, so it runs on ints and arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import LevelMismatch
from .gf import Field, FieldTower, _check_enumerable, _codes_in, _ops

_KERNEL_CHUNK = 1 << 14  # (map, x) cells per whole-array step of kernel_sizes

Matrix3 = tuple  # 3x3 nested tuples of codes


def _map_codes(field: Field, *coeffs) -> tuple[int, ...]:
    """The coefficient codes of a linearized map as ints, once ``field`` is
    checked to be a cubic extension and each code to lie in it."""
    if field.degree != 3:
        raise LevelMismatch("linearized-map coefficients must live in a cubic extension")
    return _codes_in(field, *coeffs)


def _dickson(f: Field, c0, c1, c2) -> Matrix3:
    """entry(i, j) = c_((j - i) mod 3) ^ (q^i), for codes that are ints or arrays."""
    cs, frob = (c0, c1, c2), _ops(f, c0, c1, c2)[3]
    return tuple(tuple(frob(cs[(j - i) % 3], i) for j in range(3)) for i in range(3))


def dickson_matrix(field: Field, c0, c1, c2) -> Matrix3:
    """The coefficient matrix of x -> c0*x + c1*x^q + c2*x^(q^2), for codes of
    the cubic extension ``field``: entry(i, j) = c_((j - i) mod 3) ^ (q^i)."""
    return _dickson(field, *_map_codes(field, c0, c1, c2))


def has_nonzero_root_subfield_coeffs(field: Field, a, b, g):
    """Nonzero-kernel criterion for a*x^(q^2) + b*x^q + g*x, coefficients in F_q.

    True exactly when a^3 + b^3 + g^3 - 3*a*b*g = 0.  a, b, g are codes of the
    field F_q, ints (giving a bool) or arrays that broadcast (giving a bool
    array).
    """
    mul, add, sub, _ = _ops(field, a, b, g)
    acc = add(add(mul(mul(a, a), a), mul(mul(b, b), b)), mul(mul(g, g), g))
    return sub(acc, mul(field.from_int(3), mul(mul(a, b), g))) == 0


def brute_kernel(field: Field, c0, c1, c2) -> list[int]:
    """The codes x with c0*x + c1*x^q + c2*x^(q^2) = 0, for codes of the cubic
    extension ``field``, by evaluating the map at every x; in code order."""
    c0, c1, c2 = _map_codes(field, c0, c1, c2)
    f = field
    _check_enumerable(f.order, "kernel enumeration")
    image = f.add_vec(f.add_vec(f.mul_vec(c0, np.arange(f.order)),
                                f.mul_vec(c1, f.frob_table(1))),
                      f.mul_vec(c2, f.frob_table(2)))
    return np.flatnonzero(image == 0).tolist()


def kernel_sizes(field: Field, c0, c1, c2) -> np.ndarray:
    """Kernel sizes of the maps x -> c0*x + c1*x^q + c2*x^(q^2), one map per
    entry of the equal-length code arrays, by testing every map at every x.

    The whole-array form of :func:`brute_kernel`: it counts the x with
    c0*x + c1*x^q = -c2*x^(q^2), so it uses neither F_q-linearity nor the
    coefficient matrix.  It takes x, x^q and x^(q^2) from ``frob_vec`` one
    block of x at a time.  For each slice of a block it multiplies every
    distinct coefficient of a slot by the slice once, however many maps share
    it, and then reads each map's terms from those product rows.  No block
    and no step holds more than ``_KERNEL_CHUNK`` codes or cells.
    """
    f = field
    _check_enumerable(f.order, "kernel enumeration")
    slots = [np.unique(np.asarray(c, dtype=np.int64), return_inverse=True)
             for c in (c0, c1, f.sub_vec(0, c2))]
    width = min(f.order, max(1, _KERNEL_CHUNK // max(1, *(len(u) for u, _ in slots))))
    step = max(1, _KERNEL_CHUNK // width)
    maps = len(slots[0][1])
    sizes = np.zeros(maps, dtype=np.int64)
    for start in range(0, f.order, width * step):
        xs = np.arange(start, min(start + width * step, f.order))
        images = (xs, f.frob_vec(xs, 1), f.frob_vec(xs, 2))
        for lo in range(0, len(xs), width):
            (r0, w0), (r1, w1), (r2, w2) = [
                (f.mul_vec(u[:, None], image[None, lo:lo + width]), which)
                for (u, which), image in zip(slots, images)]
            for m in range(0, maps, step):
                part = slice(m, m + step)
                lhs = f.add_vec(r0[w0[part]], r1[w1[part]])
                sizes[part] += np.count_nonzero(lhs == r2[w2[part]], axis=1)
    return sizes


def _difference_coeffs(f: Field, a, b, c):
    """(c0, c1, c2) of the difference map at shift c, for codes a, b of F_q and
    c of F_{q^3} = f (subfield codes are F_{q^3} codes as they stand): ints,
    or arrays that broadcast."""
    mul, add, _, frob = _ops(f, a, b, c)
    return add(frob(c, 2), add(mul(a, frob(c, 1)), mul(add(b, b), c))), mul(a, c), c


def difference_triple(tower: FieldTower, A, B, C) -> tuple[int, int, int]:
    """Linearized difference map of the engine's quadratic family at shift C,
    for codes A, B of F_q and C of F_{q^3}, as its codes (c0, c1, c2).

    For f(x) = x*(x^(q^2) + A*x^q + B*x) the map x -> f(x+C) - f(x) - f(C)
    equals C*x^(q^2) + A*C*x^q + (C^(q^2) + A*C^q + 2*B*C)*x.
    """
    a, b = _codes_in(tower.fq, A, B)
    (c,) = _codes_in(tower.fq3, C)
    return _difference_coeffs(tower.fq3, a, b, c)


def _direct_matrix(f: Field, a, b, c) -> Matrix3:
    """The difference-map matrix written out entry by entry, for codes as in
    :func:`_difference_coeffs`."""
    mul, add, _, frob = _ops(f, a, b, c)
    twob, cq, cq2 = add(b, b), frob(c, 1), frob(c, 2)
    return (
        (add(add(mul(a, cq), mul(twob, c)), cq2), mul(a, c), c),
        (cq, add(add(mul(a, cq2), mul(twob, cq)), c), mul(a, cq)),
        (mul(a, cq2), cq2, add(add(mul(a, c), mul(twob, cq2)), cq)),
    )


def difference_matrix_direct(tower: FieldTower, A, B, C) -> Matrix3:
    """The difference-map matrix written out entry by entry.

    Independent transcription kept solely to pin dickson_matrix's convention;
    the two constructions must agree on every (A, B, C).
    """
    a, b = _codes_in(tower.fq, A, B)
    (c,) = _codes_in(tower.fq3, C)
    return _direct_matrix(tower.fq3, a, b, c)
