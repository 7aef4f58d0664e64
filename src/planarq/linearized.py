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
in bounded chunks, with x running over 0 and the powers of the least
generator of F^* (``gf._generator``): on the log and Zech tables it builds
per call, each (map, x) test is one integer gather and compare.

The determinant oracle (``planarity._dets_at``) is ``gf.det3`` of the same
matrix, built on arrays of shifts by the cores ``_difference_coeffs`` and
``_dickson`` that ``difference_triple`` and ``dickson_matrix`` wrap, as
``difference_matrix_direct`` wraps the array core ``_direct_matrix``.  Each
core takes its operations from ``gf._ops``, so it runs on ints and arrays.
No runtime path uses these cores: ``is_planar_det``, ``det_witnesses`` and
the determinant battery of ``identities`` all read one (10, 10) table per
tower, the determinant as a polynomial over F_q in A, B and the shift's
F_q digits, built from values of f (``planarity._det_table``).
"""

from __future__ import annotations

import numpy as np

from .errors import Disagreement, LevelMismatch
from .gf import Field, FieldTower, _check_enumerable, _codes_in, _generator, _ops

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


def _log_tables(f: Field) -> tuple[np.ndarray, np.ndarray]:
    """(log, zech) for g = ``gf._generator(f)``: log[x] is k with g^k = x,
    and zech[d] = log[1 + g^d], for n = |F^*| and the sentinel n as the log
    of 0.  Both tables are built block by block in the narrowest dtype that
    holds |F|, and on every call: no field keeps a whole-field table.  The
    powers of g must meet every nonzero code exactly once, or the call
    raises Disagreement."""
    n, g = f.order - 1, _generator(f)
    dtype = np.int32 if f.order < 2 ** 31 else np.int64
    block, gk = np.ones(1, dtype=np.int64), g  # g^0 .. g^(len - 1), and gk = g^len
    while len(block) < min(n, _KERNEL_CHUNK):
        block = np.concatenate([block, f.mul_vec(gk, block)])[:n]
        gk = f.mul(gk, gk)
    log = np.full(f.order, -1, dtype=dtype)
    at = 1  # g^start
    for start in range(0, n, len(block)):
        powers = f.mul_vec(at, block[:n - start])
        log[powers] = np.arange(start, start + len(powers))
        at = f.mul(at, gk)
    if log[0] != -1 or np.any(log[1:] == -1):
        raise Disagreement(f"the powers of {g} do not cover {f!r}^* exactly once")
    log[0] = n
    zech = np.empty(n, dtype=dtype)
    for start in range(1, f.order, _KERNEL_CHUNK):
        xs = np.arange(start, min(start + _KERNEL_CHUNK, f.order))
        zech[log[xs]] = log[f.add_vec(1, xs)]
    return log, zech


def kernel_sizes(field: Field, c0, c1, c2) -> np.ndarray:
    """Kernel sizes of the maps x -> c0*x + c1*x^q + c2*x^(q^2), one map per
    entry of the equal-length code arrays, by testing every map at every x.

    The whole-array form of :func:`brute_kernel`: it counts the x with
    c0*x = -(c1*x^q + c2*x^(q^2)), so it uses neither F_q-linearity nor the
    coefficient matrix.  x runs over 0 and the powers g^k of a generator, on
    the per-call log and Zech tables of :func:`_log_tables`: c*x^(q^i) has
    log L[c] + q^i*k, and S = c1*x^q + c2*x^(q^2) is formed by one Zech
    lookup per distinct (c1, c2) and x.  A map kills g^k when
    L[-S] - k = L[c0] mod n, or when S = 0 and c0 = 0 (the sentinel on both
    sides), so each (map, x) cell is one gather and one compare.  A step
    holds at most ``_KERNEL_CHUNK`` cells, or one x when the distinct pairs
    alone are more.
    """
    f = field
    _check_enumerable(f.order, "kernel enumeration")
    codes = [np.asarray(c, dtype=np.int64) for c in (c0, c1, c2)]
    if f.degree != 3:
        raise LevelMismatch("linearized-map coefficients must live in a cubic extension")
    if any(c.size and (c.min() < 0 or c.max() >= f.order) for c in codes):
        raise LevelMismatch(f"a coefficient code is not an element of {f!r}")
    log, zech = _log_tables(f)
    n, s = f.order - 1, f._radix
    s2, neg = s * s % n, int(log[f.from_int(-1)])
    l0 = log[codes[0]]
    # S depends on (c1, c2) alone: one row of S per distinct pair of logs
    pairs, which = np.unique(log[codes[1]] * np.int64(n + 1) + log[codes[2]],
                             return_inverse=True)
    l1, l2 = np.divmod(pairs[:, None], n + 1)
    maps, width = len(l0), min(n, max(1, _KERNEL_CHUNK // max(1, len(pairs))))
    step = max(1, _KERNEL_CHUNK // width)
    sizes = np.ones(maps, dtype=np.int64)  # x = 0
    for start in range(0, n, width):
        k = np.arange(start, min(start + width, n))
        a = (l1 + s * k) % n  # log of c1*x^q, read only where c1 != 0
        b = (l2 + s2 * k) % n  # log of c2*x^(q^2), read only where c2 != 0
        z = zech[(b - a) % n]  # log(1 + c2*x^(q^2) / (c1*x^q))
        both = np.where(z == n, n, (a + z) % n)
        logs = np.where(l1 == n, np.where(l2 == n, n, b), np.where(l2 == n, a, both))
        rhs = np.where(logs == n, n, (logs + neg - k) % n)  # L[-S] - k, or the sentinel
        for m in range(0, maps, step):
            part = slice(m, m + step)
            sizes[part] += np.count_nonzero(rhs[which[part]] == l0[part, None], axis=1)
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
