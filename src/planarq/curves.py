"""Ternary cubics attached to the quadratic family, and their verification.

For a pair (A, B) the determinant of the difference-map matrix, viewed as a
function of (C, C^q, C^(q^2)) = (X, Y, T), is a homogeneous cubic over F_q.
``build_F_det`` regenerates that cubic symbolically (Leibniz expansion of the
matrix of linear forms), so no transcribed coefficient is ever trusted; the
published bivariate form is kept verbatim in ``build_F_paper`` and the two
are related by an X <-> Y swap (a documented erratum, pinned by tests).

The module also verifies the branch factorizations of the cubic, returning
them as the ``factorization`` section of a ``verify`` dossier (plain dicts,
an empty check list for a pair on no locus), and finds its linear components
over F_q, F_{q^2}, F_{q^3} (an independent oracle): every such line meets the
coordinate lines at roots of three one-variable restrictions of the cubic.
The search over F_q decides which of the two extensions can hold a line, so
most cubics never build or search them.
Whether a line divides a cubic has one exact test, ``_on_line``: the cubic
vanishes at four points of the line.  ``divides`` runs it on one line, and
the oracle on all its candidates at once.  It also carries
the normal-basis change of variables H, computed over F_q on the F_q digits
of its F_{q^3} substitution matrix, plus F_q point counting that replaces
the curve-theoretic existence argument for roots.

A cubic is its ten coefficient codes in ``MONOMIALS`` order, a tuple passed
with its field.  The pair (A, B) and the normal element xi are passed as
codes, and so are a cubic's coefficients at the entry points that take one
(``verify_branch_factorization``, ``find_linear_factors``, ``transform_H``,
``count_nonzero_fq_zeros``, ``divides``), each checked against its field
by ``gf._codes_in``, as are the line's codes at ``divides``.
The cores take codes as ints or arrays: ``_det_coeffs`` and
``_paper_coeffs`` expand the cubics of whole arrays of pairs, and
``_evaluate`` evaluates a cubic at points that broadcast with its
coefficients: the identity batteries check every pair at once with it, and
every reader of the determinant evaluates ``planarity._det_table`` with it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import Disagreement
from .gf import (
    Field,
    FieldTower,
    _check_enumerable,
    _codes_in,
    _decode,
    _encode,
    _ops,
    _poly_divmod,
    _poly_trim,
    orbit_reps,
    standard_extension,
)

# degree-3 monomials (i, j, k) with X^i * Y^j * T^k, fixed order
MONOMIALS = ((3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
             (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3))
_MIDX = {mon: i for i, mon in enumerate(MONOMIALS)}
# slot n of a cubic with X and Y exchanged holds the coefficient in slot _SWAP_XY[n]
_SWAP_XY = tuple(_MIDX[(j, i, k)] for i, j, k in MONOMIALS)
# _PRODUCT_SLOT[i1][i2][i3]: slot of the product of variables i1, i2, i3 (X, Y, T = 0, 1, 2)
_PRODUCT_SLOT = tuple(tuple(tuple(_MIDX[tuple((i1, i2, i3).count(v) for v in range(3))]
                                  for i3 in range(3)) for i2 in range(3)) for i1 in range(3))


def _cubic_codes(field: Field, coeffs) -> tuple[int, ...]:
    """The ten coefficient codes of a cubic as ints, each checked to be a code
    of ``field``."""
    if len(coeffs) != 10:
        raise ValueError("a ternary cubic has 10 coefficients")
    return _codes_in(field, *coeffs)


def _evaluate(f: Field, coeffs, X, Y, T):
    """The cubic with the ten coefficient codes ``coeffs`` (MONOMIALS order)
    at codes X, Y, T; coefficients and points are ints or arrays, and all of
    them broadcast together.  On ints alone it runs the scalar kernels and
    returns an int."""
    mul, add, _, _ = _ops(f, X, Y, T, *coeffs)
    pw = {}
    for name, base in (("X", X), ("Y", Y), ("T", T)):
        sq = mul(base, base)
        pw[name] = (None, base, sq, mul(sq, base))
    acc = None
    for (i, j, k), c in zip(MONOMIALS, coeffs):
        scalar = not isinstance(c, np.ndarray)
        if scalar and c == 0:
            continue
        term = None
        for name, e in (("X", i), ("Y", j), ("T", k)):
            if e:
                p = pw[name][e]
                term = p if term is None else mul(term, p)
        if not (scalar and c == 1):
            term = mul(c, term)
        acc = term if acc is None else add(acc, term)
    if acc is None:  # the zero cubic
        if not any(isinstance(v, np.ndarray) for v in (X, Y, T)):
            return 0
        return np.zeros(np.broadcast_shapes(np.shape(X), np.shape(Y), np.shape(T)),
                        dtype=np.int64)
    return acc


def _expand_product(ops, f1, f2, f3, acc, sign: int = 1) -> None:
    """Add (sign 1) or subtract (sign -1) the expansion of the product of three
    linear forms (u, v, w) ~ uX + vY + wT into the ten coefficient codes acc.

    ``ops`` is a field's (mul, add, sub, frob) from ``gf._ops``; form entries
    that are 0 (never an array) are skipped.
    """
    mul, add, sub, _ = ops
    put = add if sign > 0 else sub
    n1, n2, n3 = ([(i, c) for i, c in enumerate(form)
                   if isinstance(c, np.ndarray) or c != 0] for form in (f1, f2, f3))
    for i1, a in n1:
        for i2, b in n2:
            ab = mul(a, b)
            slots = _PRODUCT_SLOT[i1][i2]
            for i3, c in n3:
                acc[slots[i3]] = put(acc[slots[i3]], mul(ab, c))


def triple_product(field: Field, f1, f2, f3) -> tuple[int, ...]:
    """Expand the product of three linear forms (u, v, w) ~ uX + vY + wT."""
    out = [0] * 10
    _expand_product(_ops(field, *f1, *f2, *f3), f1, f2, f3, out)
    return tuple(out)


# ---------------------------------------------------------------------------
# the determinant cubic and the published bivariate form
# ---------------------------------------------------------------------------

_PERMS = ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
          (0, 2, 1, -1), (2, 1, 0, -1), (1, 0, 2, -1))


def build_F_det(tower: FieldTower, A, B) -> tuple[int, ...]:
    """The determinant of the difference-map matrix of the F_q codes (A, B),
    as the ten coefficient codes of a cubic in (X, Y, T).

    Built by Leibniz expansion (:func:`_det_coeffs`) on every call, and not
    cached.  By construction F(C, C^q, C^(q^2)) = det for every C.
    """
    fq = tower.fq
    return tuple(_det_coeffs(fq, *_codes_in(fq, A, B)))


def _det_coeffs(fq: Field, a, b) -> list:
    """The ten coefficient codes of the determinant cubic of the pairs (a, b).

    Leibniz expansion of the 3x3 matrix of linear forms obtained by writing
    (C, C^q, C^(q^2)) = (X, Y, T); raising a form to the q-th power permutes
    the variables cyclically and fixes the F_q coefficients.  a and b are
    codes of F_q, ints or arrays that broadcast; each coefficient comes back
    as an int or an array to match.
    """
    ops = _ops(fq, a, b)
    twob = ops[1](b, b)  # ops = (mul, add, sub, frob)
    # difference-map coefficient forms: c0 = 2B*X + A*Y + T, c1 = A*X, c2 = X
    base = ((twob, a, 1), (a, 0, 0), (1, 0, 0))

    def twist(form, i):
        for _ in range(i):  # q-th power: (u, v, w) -> (w, u, v)
            form = (form[2], form[0], form[1])
        return form

    rows = [[twist(base[(j - i) % 3], i) for j in range(3)] for i in range(3)]
    acc = [0] * 10
    for j0, j1, j2, sign in _PERMS:
        _expand_product(ops, rows[0][j0], rows[1][j1], rows[2][j2], acc, sign)
    return acc


def build_F_paper(tower: FieldTower, A, B) -> tuple[int, ...]:
    """Verbatim transcription of the published bivariate cubic of the F_q
    codes (A, B), homogenized.

    2AB(X^3+Y^3+1) + (2A^2B+4B^2)(X+Y^2+X^2Y) + (4AB^2+2B)(X^2+Y+XY^2)
    + (2A^3+8B^3+2)XY, with the constant slot homogenized by T.  Swapping
    X and Y turns this into ``build_F_det`` (the pinned erratum relation).
    """
    fq = tower.fq
    return tuple(_paper_coeffs(fq, *_codes_in(fq, A, B)))


def _paper_coeffs(fq: Field, a, b) -> list:
    """The ten coefficient codes of the published cubic of the pairs (a, b),
    codes as in :func:`_det_coeffs`."""
    mul, add, _, _ = _ops(fq, a, b)
    two, four, eight = fq.from_int(2), fq.from_int(4), fq.from_int(8)
    ab, bb = mul(a, b), mul(b, b)
    c_sym = mul(two, ab)                                      # X^3, Y^3, T^3
    c_g1 = add(mul(two, mul(a, ab)), mul(four, bb))           # XT^2, Y^2T, X^2Y
    c_g2 = add(mul(four, mul(a, bb)), mul(two, b))            # X^2T, YT^2, XY^2
    c_xyt = add(add(mul(two, mul(a, mul(a, a))), mul(eight, mul(b, bb))), two)
    return [c_sym, c_g1, c_g2, c_g2, c_xyt, c_g1, c_sym, c_g1, c_g2, c_sym]


# ---------------------------------------------------------------------------
# branch factorizations
# ---------------------------------------------------------------------------

def divides(field: Field, coeffs, line) -> bool:
    """Whether the projective line uX + vY + wT divides the cubic with
    coefficient codes ``coeffs``, both over ``field``: whether the cubic
    vanishes on two points that span the line and on their sum and
    difference (:func:`_on_line`)."""
    coeffs = _cubic_codes(field, coeffs)
    u, v, w = _codes_in(field, *line)
    if w:
        p0, p1 = (w, 0, field.neg(u)), (0, w, field.neg(v))
    elif u or v:
        p0, p1 = (v, field.neg(u), 0), (0, 0, 1)
    else:
        raise ValueError("zero line")
    return _on_line(field, coeffs, p0, p1)


def _on_line(f: Field, coeffs, p0, p1):
    """Whether the cubic with coefficient codes ``coeffs`` vanishes on the
    line through the distinct projective points p0 and p1: each three int
    codes, giving a bool, or an array of shape (3, ...) of codes, giving a
    bool array of shape (...).

    The cubic is evaluated at the points x*p0 + t*p1 with (x:t) = (1:0),
    (0:1), (1:1), (1:-1), pairwise distinct because p is odd.  Restricted to
    the line the cubic is a binary form of degree <= 3, and one with four
    projective zeros is zero, so the check is exact.  Ints stop at the first
    nonzero value; arrays are evaluated at all four points in one call.
    """
    _, add, sub, _ = _ops(f, *p0, *p1)
    if isinstance(p0, np.ndarray):
        pts = np.stack([p0, p1, add(p0, p1), sub(p0, p1)], axis=-1)
        return ~_evaluate(f, coeffs, *pts).any(axis=-1)
    pts = (p0, p1, tuple(map(add, p0, p1)), tuple(map(sub, p0, p1)))
    return all(_evaluate(f, coeffs, *pt) == 0 for pt in pts)


def verify_branch_factorization(tower: FieldTower, A, B, F) -> dict:
    """Check every reducibility locus that the F_q codes (A, B) lie on
    against F, the pair's cubic: ``build_F_det``'s ten F_q codes.

    Returns the dossier's ``factorization`` section: ``checks``, one dict per
    locus with the keys name, verified, scalar, alpha, lines and note, and
    ``ok``, whether no check failed, or None when the pair is on no locus.
    Full splittings (the cubic and square branches) are verified up to an
    explicitly reported nonzero scalar; single-line loci are verified as exact
    divisibility.  The published lines divide the determinant cubic with their
    variables as printed; an X <-> Y relabel is tried as a fallback and the
    orientation used is recorded in the notes.
    """
    fq = tower.fq
    a, b = _codes_in(fq, A, B)
    checks = list(_locus_checks(fq, a, b, _cubic_codes(fq, F)))
    # verified is None only on an entry whose locus needs a sqrt(-3) that F_q
    # lacks, and such an entry always follows the trace line's check, so ok is
    # None exactly when (a, b) lies on no locus
    ok = all(c["verified"] is not False for c in checks) if checks else None
    return {"checks": checks, "ok": ok}


def _check(name, verified, scalar=None, alpha=None, lines=(), note="") -> dict:
    return {"name": name, "verified": verified, "scalar": scalar, "alpha": alpha,
            "lines": lines, "note": note}


def _locus_checks(fq: Field, a, b, F):
    """The checks of ``verify_branch_factorization``, one per locus that the
    codes (a, b) lie on, in a fixed order."""
    two = fq.from_int(2)
    a3 = fq.pow(a, 3)

    # B = 0: the cubic collapses to 2*(A^3 + 1)*XYT
    if b == 0:
        expected = [0] * 10
        expected[_MIDX[(1, 1, 1)]] = fq.mul(two, fq.add(a3, 1))
        yield _check("b_zero_monomial", F == tuple(expected), note="F == 2*(A^3+1)*XYT")
        return

    # trace line: A - 2B + 1 = 0 or (A, B) in {(1, 1), (1, -1/2)}
    if (fq.add(fq.sub(a, fq.mul(two, b)), 1) == 0
            or (a == 1 and b in (1, fq.neg(fq.inv(two))))):
        yield _check("trace_line", divides(fq, F, (1, 1, 1)), lines=((1, 1, 1),))

    # cubic branch: A^3 - 2AB + 1 = 0, A^3 != -1; full split, lam = 2B/A^2
    cubic_val = fq.add(fq.sub(a3, fq.mul(two, fq.mul(a, b))), 1)
    if cubic_val == 0 and fq.add(a3, 1) != 0:
        a2 = fq.mul(a, a)
        lines = ((a, 1, a2), (1, a2, a), (a2, a, 1))
        yield _verify_split(F, fq, lines, fq.div(fq.mul(two, b), a2), "cubic_split")

    # square branch: A = B^2; full split, lam = 2A/B^2
    if a == fq.mul(b, b):
        b2 = fq.mul(b, b)
        lines = ((1, b, b2), (b, b2, 1), (b2, 1, b))
        yield _verify_split(F, fq, lines, fq.div(fq.mul(two, a), b2), "square_split")

    # sqrt(-3) lines: the conic locus and the A^2 + A + 1 = 0 locus; -3 being
    # a square is part of the published locus condition.  When it is not
    # (so p != 3), A^2 + A + 1 has no root, and the conic, whose discriminant
    # in A is -3(2B + 1)^2, meets F_q^2 only at (1, -1/2), on the trace line
    conic = fq.add(fq.add(fq.add(fq.mul(a, a), fq.mul(two, fq.mul(a, b))), fq.neg(a)),
                   fq.add(fq.add(fq.mul(fq.from_int(4), fq.mul(b, b)), fq.mul(two, b)), 1))
    unit = fq.add(fq.add(fq.mul(a, a), a), 1)
    loci = [name for name, quadric_holds in (
        ("alpha_line_conic", conic == 0),
        ("alpha_line_unit_cubic",
         unit == 0 and b in (fq.mul(a, a), fq.neg(fq.div(fq.mul(a, a), two)))))
        if quadric_holds]
    root = fq.sqrt_code(fq.neg(fq.from_int(3))) if loci else None
    for name in loci:
        if root is None:
            yield _check(name, None, note="-3 is a non-square in F_q")
        else:
            yield _verify_alpha_line(F, fq, root, name)

    # A = 0 branch: reducible exactly when 8B^3 = 1; line 2BX + 4B^2Y + T
    if a == 0 and fq.mul(fq.from_int(8), fq.pow(b, 3)) == 1:
        line = (fq.mul(two, b), fq.mul(fq.from_int(4), fq.mul(b, b)), 1)
        yield _check("a_zero_line", divides(fq, F, line), lines=(line,))


def _verify_alpha_line(F, fq, root, name) -> dict:
    two = fq.from_int(2)
    for alpha in (root, fq.neg(root)):
        u, v, w = two, fq.sub(alpha, 1), fq.neg(fq.add(1, alpha))
        for variant, line in (("as printed", (u, v, w)), ("X<->Y", (v, u, w))):
            if divides(fq, F, line):
                return _check(name, True, alpha=alpha, lines=(line,), note=variant)
    return _check(name, False, note="no alpha/orientation divides")


def _verify_split(F, fq, lines, lam_formula, name) -> dict:
    for variant, ls in (("as printed", lines),
                        ("X<->Y", tuple((v, u, w) for (u, v, w) in lines))):
        prod = triple_product(fq, *ls)
        # three lines multiply to a nonzero cubic, so F == lam * prod fixes
        # lam at its first nonzero slot k
        k = next(n for n, c in enumerate(prod) if c)
        lam = fq.div(F[k], prod[k])
        if lam and F == tuple(fq.mul(lam, c) for c in prod):
            note = variant
            if lam != lam_formula:
                note += f"; scalar {lam} != closed form {lam_formula}"
            return _check(name, lam == lam_formula, scalar=lam, lines=ls, note=note)
    return _check(name, False, note="no orientation matches")


# ---------------------------------------------------------------------------
# linear-factor oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LineFactor:
    """A projective line u X + v Y + w T over F_{q^ext}, leading coefficient 1."""

    coeffs: tuple
    ext: int


def _normalize_line(f: Field, line):
    for c in line:
        if c:
            inv = f.inv(c)
            return tuple(f.mul(inv, x) for x in line)
    raise ValueError("zero line")


def _horner_vec(field: Field, coeffs, codes):
    vals = np.full_like(codes, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        vals = field.add_vec(field.mul_vec(vals, codes), c)
    return vals


def _coordinate_factors(coeffs):
    """Divide out X, Y, T factors; returns (residual term dict, lines)."""
    terms = {mon: c for mon, c in zip(MONOMIALS, coeffs) if c}
    lines = []
    for axis, line in ((0, (1, 0, 0)), (1, (0, 1, 0)), (2, (0, 0, 1))):
        while terms and all(mon[axis] >= 1 for mon in terms):
            terms = {tuple(m - (1 if t == axis else 0) for t, m in enumerate(mon)): c
                     for mon, c in terms.items()}
            lines.append(line)
    return terms, lines


def find_linear_factors(field: Field, coeffs) -> list[LineFactor]:
    """All projective lines over F_{q^k}, k <= 3, dividing the cubic with
    coefficient codes ``coeffs`` over F_q = ``field``.

    Coordinate-line factors are divided out first.  The residual R, of degree
    d <= 3, is then divisible by none of X, Y, T, so R(1, a, 0), R(0, b, 1)
    and R(c, 0, 1) are nonzero polynomials of degree <= d, whose roots are
    found by evaluating them on every code of F_{q^k}.  A line Y = aX + bT
    passes through (1:a:0) and (0:b:1), so a and b are roots of the first two:
    at most d^2 candidates.  A line X = cT passes through (0:1:0) and (c:0:1),
    so it needs R(0, 1, 0) = 0 and c a root of the third.

    Each candidate is confirmed by :func:`_on_line` at the two points it was
    found through, the exact test that :func:`divides` runs.  A line defined
    over F_{q^k} and no smaller field comes with k distinct conjugate lines
    dividing R, so k <= d, and k <= 3 is complete.

    F_q decides which extensions need a search, in two ways.  First, the F_q
    roots of each restriction come from the search over F_q; dividing them
    out with multiplicity leaves a factor of degree e in {0, 2, 3} with no
    F_q root, which is irreducible since e <= 3.  A root in F_{q^k} outside
    F_q, for k in {2, 3}, has a minimal polynomial of degree k dividing that
    factor, so it exists only when e = k.  F_{q^k} is therefore searched only
    when some restriction leaves e = k.  Otherwise every root found there
    lies in F_q, every candidate line has F_q coefficients, and all of them
    were already found over F_q.  For the same reason a search over F_{q^k}
    builds no candidate whose roots all lie in F_q, the first q codes of
    F_{q^k}.  Second, a cubic R (d = 3) with no F_q line has no line over
    F_{q^2} either: such a line l is not over F_q, so it
    divides R together with its distinct conjugate l^q, and R = l * l^q * L.
    R is over F_q, so applying Frobenius gives R = l^q * l * L^q, and L^q = L
    makes L a line over F_q.  F_{q^2} is therefore not searched when d = 3
    and the F_q search found no line.

    Each line is returned once, sorted by (ext, coeffs), although some are
    found twice: a repeated coordinate factor such as X^2, or a candidate
    that is a coordinate line.
    """
    fq = field
    coeffs = _cubic_codes(fq, coeffs)
    if not any(coeffs):
        raise ValueError("the zero cubic is divisible by every line")
    terms, coord_lines = _coordinate_factors(coeffs)
    found: list[LineFactor] = [LineFactor(line, 1) for line in coord_lines]
    d = max((sum(m) for m in terms), default=0)
    vertical = not terms.get((0, d, 0))  # lines X = cT need R(0, 1, 0) = 0
    # R(1, Y, 0), R(0, Y, 1) and, for lines X = cT, R(X, 0, 1): coefficient
    # lists, lowest power first
    polys = [[terms.get((d - j, j, 0), 0) for j in range(d + 1)],
             [terms.get((0, j, d - j), 0) for j in range(d + 1)]]
    if vertical:
        polys.append([terms.get((j, 0, d - j), 0) for j in range(d + 1)])
    left = set()  # degrees e of the restrictions with their F_q roots divided out
    for ext in range(1, d + 1):
        if ext > 1 and ext not in left:
            continue
        if ext == 2 and d == 3 and len(found) == len(coord_lines):
            continue  # a cubic with no F_q line has no F_{q^2} line
        _check_enumerable(fq.order ** ext, "line search")
        f = standard_extension(fq, ext)
        codes = np.arange(f.order, dtype=np.int64)
        roots = [codes[_horner_vec(f, poly, codes) == 0].tolist() for poly in polys]
        if ext == 1:
            left = {_degree_without_roots(fq, poly, rs) for poly, rs in zip(polys, roots)}
        # (line, two of its points) per candidate; past F_q, a candidate needs
        # a root code >= q, since one with every root in F_q is an F_q line
        fresh = 0 if ext == 1 else fq.order
        cands = [((f.neg(a), 1, f.neg(b)), (1, a, 0), (0, b, 1))
                 for a in roots[0] for b in roots[1] if max(a, b) >= fresh]
        if vertical:
            cands += [((1, 0, f.neg(c)), (0, 1, 0), (c, 0, 1))
                      for c in roots[2] if c >= fresh]
        if not cands:
            continue
        p0, p1 = (np.array([c[i] for c in cands], dtype=np.int64).T for i in (1, 2))
        for (line, _, _), on in zip(cands, _on_line(f, coeffs, p0, p1)):
            if on:
                found.append(LineFactor(_normalize_line(f, line), ext))
    return sorted(set(found), key=lambda lf: (lf.ext, lf.coeffs))


def _degree_without_roots(f: Field, poly, roots) -> int:
    """Degree of the nonzero polynomial ``poly`` once each of its roots in
    ``roots`` is divided out as often as it divides."""
    poly = _poly_trim(list(poly))
    for r in roots:
        while True:
            quo, rem = _poly_divmod(f, poly, [f.neg(r), 1])
            if rem:
                break
            poly = quo
    return len(poly) - 1


# ---------------------------------------------------------------------------
# normal-basis transform and point counting
# ---------------------------------------------------------------------------

def transform_H(tower: FieldTower, G, xi) -> tuple[int, ...]:
    """Change variables by the conjugate basis of xi, a code of F_{q^3}, in
    the cubic G of a pair, ``build_F_det``'s ten F_q codes; they stay in F_q.

    Substitutes X*xi + Y*xi^q + T*xi^(q^2) and its two Frobenius twists into
    G.  Nonzero F_q-points of the result biject with nonzero roots C of the
    determinant via C = x*xi + y*xi^q + t*xi^(q^2).  The substitution is
    linear in the coefficients, so H = M * G for the matrix M of
    :func:`_substitution_matrix`.  G is over F_q, and an F_{q^3} code times
    an F_q scalar scales its three F_q digits, so H is computed over F_q,
    one product per digit plane of M; digits 1 and 2 of every coefficient
    must vanish, or that coefficient's code is not in F_q.
    """
    fq, f3 = tower.fq, tower.fq3
    (xi,) = _codes_in(f3, xi)
    G = np.array(_cubic_codes(fq, G), dtype=np.int64)
    q = fq.order
    M = _substitution_matrix(f3, xi)
    digits = functools.reduce(fq.add_vec, np.moveaxis(fq.mul_vec(M, G), -1, 0))
    outside = np.flatnonzero(digits[1:].any(axis=0))
    if outside.size:
        c = _encode(digits[:, outside[0]].tolist(), q)
        raise Disagreement(f"coefficient code {c} is not in F_{q}")
    return tuple(digits[0].tolist())


def _substitution_matrix(f3: Field, xi: int) -> np.ndarray:
    """The 10 x 10 matrix whose column n is the cubic that monomial n becomes
    under (X, Y, T) -> the conjugate-basis forms of xi (the product of its
    variables' forms, expanded), as its three planes of F_q digits: a
    read-only (3, 10, 10) array, plane d holding digit d of each F_{q^3}
    code.  It depends on F_{q^3} and xi only, so it is built and decoded
    once per xi and kept on F_{q^3}."""
    key = ("H_matrix", xi)
    if key not in f3._cache:
        x1, x2 = f3.frob(xi, 1), f3.frob(xi, 2)
        L0, L1, L2 = (xi, x1, x2), (x1, x2, xi), (x2, xi, x1)
        cols = [triple_product(f3, *([L0] * i + [L1] * j + [L2] * k))
                for i, j, k in MONOMIALS]
        planes = np.stack(_decode(np.array(cols, dtype=np.int64).T, f3.base.order, 3))
        planes.setflags(write=False)
        f3._cache[key] = planes
    return f3._cache[key]


def count_nonzero_fq_zeros(field: Field, coeffs) -> int:
    """Number of (x, y, t) in F_q^3 minus the origin where the cubic with
    coefficient codes ``coeffs`` over F_q = ``field`` vanishes.

    The cubic P is homogeneous, so P(lam*v) = lam^3 * P(v) and its zeros are
    unions of F_q^* orbits of q - 1 points each.  P is evaluated at the
    q^2 + q + 1 orbit representatives of ``orbit_reps``, read as base-q digit
    triples.
    """
    coeffs = _cubic_codes(field, coeffs)
    q = field.order
    _check_enumerable(q ** 3, "point count")
    X, Y, T = _decode(orbit_reps(q, q ** 3), q, 3)
    return (q - 1) * int(np.count_nonzero(_evaluate(field, coeffs, X, Y, T) == 0))
