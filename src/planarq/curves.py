"""Ternary cubics attached to the quadratic family, and their verification.

For a pair (A, B) the determinant of the difference-map matrix, viewed as a
function of (C, C^q, C^(q^2)) = (X, Y, T), is a homogeneous cubic over F_q.
``build_F_det`` regenerates that cubic symbolically (Leibniz expansion of the
matrix of linear forms), so no transcribed coefficient is ever trusted; the
published bivariate form is kept verbatim in ``build_F_paper`` and the two
are related by an X <-> Y swap (a documented erratum, pinned by tests).

The module also verifies the branch factorizations of the cubic and finds its
linear components over F_q, F_{q^2}, F_{q^3} (an independent oracle): every
such line meets the coordinate lines at roots of three one-variable
restrictions of the cubic, and each candidate is confirmed at four points of
the line.  It also carries the normal-basis change of variables H plus F_q
point counting that replaces the curve-theoretic existence argument for roots.

Coefficients are codes, and ``TernaryCubic.evaluate`` takes codes: ints or
int64 arrays that broadcast together.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    CoefficientNotInSubfield,
    LevelMismatch,
    NotOnLocus,
    SizeLimit,
    SquareRootUnavailable,
)
from .gf import Elt, Field, FieldTower, standard_extension

# degree-3 monomials (i, j, k) with X^i * Y^j * T^k, fixed order
MONOMIALS = ((3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
             (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3))
_MIDX = {mon: i for i, mon in enumerate(MONOMIALS)}


class TernaryCubic:
    """Dense homogeneous cubic in (X, Y, T): ten coefficient codes plus a field."""

    def __init__(self, field: Field, coeffs):
        if isinstance(coeffs, dict):
            vec = [0] * 10
            for mon, c in coeffs.items():
                vec[_MIDX[tuple(mon)]] = int(c)
        else:
            vec = [int(c) for c in coeffs]
            if len(vec) != 10:
                raise ValueError("need 10 coefficients")
        if any(not 0 <= c < field.order for c in vec):
            raise ValueError("coefficient code out of range")
        self.field = field
        self.coeffs = tuple(vec)

    def __eq__(self, other):
        return (isinstance(other, TernaryCubic) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __repr__(self):
        bits = []
        for mon, c in zip(MONOMIALS, self.coeffs):
            if c:
                names = "".join(n * e for n, e in zip("XYT", mon))
                bits.append(f"{c}*{names}")
        return "TernaryCubic(" + (" + ".join(bits) or "0") + ")"

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def scale(self, c: int) -> "TernaryCubic":
        f = self.field
        return TernaryCubic(f, [f.mul(c, x) for x in self.coeffs])

    def add(self, other: "TernaryCubic") -> "TernaryCubic":
        f = self.field
        return TernaryCubic(f, [f.add(x, y) for x, y in zip(self.coeffs, other.coeffs)])

    def swap_xy(self) -> "TernaryCubic":
        """Relabel (X, Y, T) -> (Y, X, T)."""
        out = [0] * 10
        for (i, j, k), c in zip(MONOMIALS, self.coeffs):
            out[_MIDX[(j, i, k)]] = c
        return TernaryCubic(self.field, out)

    def in_field(self, field: Field) -> "TernaryCubic":
        """Reinterpret the coefficients in an extension (codes embed as-is)."""
        return TernaryCubic(field, self.coeffs)

    def evaluate(self, X, Y, T):
        """The cubic at codes X, Y, T (ints or arrays, broadcast together)."""
        f = self.field
        pw = {}
        for name, base in (("X", X), ("Y", Y), ("T", T)):
            base = np.asarray(base, dtype=np.int64)
            sq = f.mul_vec(base, base)
            pw[name] = (None, base, sq, f.mul_vec(sq, base))
        acc = None
        for (i, j, k), c in zip(MONOMIALS, self.coeffs):
            if c == 0:
                continue
            term = None
            for name, e in (("X", i), ("Y", j), ("T", k)):
                if e:
                    p = pw[name][e]
                    term = p if term is None else f.mul_vec(term, p)
            if c != 1:
                term = f.mul_vec(c, term)
            acc = term if acc is None else f.add_vec(acc, term)
        if acc is None:
            shape = np.broadcast(np.asarray(X), np.asarray(Y), np.asarray(T)).shape
            return np.zeros(shape, dtype=np.int64)
        return acc

    def substitute_linear(self, forms) -> "TernaryCubic":
        """Plug linear forms in for (X, Y, T): P(L0, L1, L2), expanded."""
        f = self.field
        acc = TernaryCubic(f, [0] * 10)
        L0, L1, L2 = forms
        for (i, j, k), c in zip(MONOMIALS, self.coeffs):
            if c == 0:
                continue
            picks = [L0] * i + [L1] * j + [L2] * k
            acc = acc.add(triple_product(f, *picks).scale(c))
        return acc


def triple_product(field: Field, f1, f2, f3) -> TernaryCubic:
    """Expand the product of three linear forms (u, v, w) ~ uX + vY + wT."""
    out = [0] * 10
    for i1 in range(3):
        a = f1[i1]
        if a == 0:
            continue
        for i2 in range(3):
            b = f2[i2]
            if b == 0:
                continue
            ab = field.mul(a, b)
            for i3 in range(3):
                c = f3[i3]
                if c == 0:
                    continue
                mon = [0, 0, 0]
                mon[i1] += 1
                mon[i2] += 1
                mon[i3] += 1
                idx = _MIDX[tuple(mon)]
                out[idx] = field.add(out[idx], field.mul(ab, c))
    return TernaryCubic(field, out)


# ---------------------------------------------------------------------------
# the determinant cubic and the published bivariate form
# ---------------------------------------------------------------------------

_PERMS = ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
          (0, 2, 1, -1), (2, 1, 0, -1), (1, 0, 2, -1))


def build_F_det(tower: FieldTower, A: Elt, B: Elt) -> TernaryCubic:
    """The determinant of the difference-map matrix as a cubic in (X, Y, T).

    Built by Leibniz expansion of the 3x3 matrix of linear forms obtained by
    writing (C, C^q, C^(q^2)) = (X, Y, T); raising a form to the q-th power
    permutes the variables cyclically and fixes the F_q coefficients.  By
    construction F(C, C^q, C^(q^2)) = det for every C.
    """
    fq = _check_pair(tower, A, B)
    a, b = A.code, B.code
    cache = fq._cache.setdefault("F_det", {})
    if (a, b) in cache:
        return cache[(a, b)]
    twob = fq.add(b, b)
    # difference-map coefficient forms: c0 = 2B*X + A*Y + T, c1 = A*X, c2 = X
    base = ((twob, a, 1), (a, 0, 0), (1, 0, 0))

    def twist(form, i):
        for _ in range(i):  # q-th power: (u, v, w) -> (w, u, v)
            form = (form[2], form[0], form[1])
        return form

    rows = [[twist(base[(j - i) % 3], i) for j in range(3)] for i in range(3)]
    acc = TernaryCubic(fq, [0] * 10)
    for j0, j1, j2, sign in _PERMS:
        term = triple_product(fq, rows[0][j0], rows[1][j1], rows[2][j2])
        if sign < 0:
            term = term.scale(fq.neg(1))
        acc = acc.add(term)
    cache[(a, b)] = acc
    return acc


def build_F_paper(tower: FieldTower, A: Elt, B: Elt) -> TernaryCubic:
    """Verbatim transcription of the published bivariate cubic, homogenized.

    2AB(X^3+Y^3+1) + (2A^2B+4B^2)(X+Y^2+X^2Y) + (4AB^2+2B)(X^2+Y+XY^2)
    + (2A^3+8B^3+2)XY, with the constant slot homogenized by T.  Swapping
    X and Y turns this into ``build_F_det`` (the pinned erratum relation).
    """
    fq = _check_pair(tower, A, B)
    a, b = A.code, B.code
    c_sym = fq.mul(fq.from_int(2), fq.mul(a, b))
    c_g1 = fq.add(fq.mul(fq.from_int(2), fq.mul(fq.mul(a, a), b)),
                  fq.mul(fq.from_int(4), fq.mul(b, b)))
    c_g2 = fq.add(fq.mul(fq.from_int(4), fq.mul(a, fq.mul(b, b))),
                  fq.mul(fq.from_int(2), b))
    c_xyt = fq.add(fq.add(fq.mul(fq.from_int(2), fq.pow(a, 3)),
                          fq.mul(fq.from_int(8), fq.pow(b, 3))), fq.from_int(2))
    return TernaryCubic(fq, {
        (3, 0, 0): c_sym, (0, 3, 0): c_sym, (0, 0, 3): c_sym,
        (1, 0, 2): c_g1, (0, 2, 1): c_g1, (2, 1, 0): c_g1,
        (2, 0, 1): c_g2, (0, 1, 2): c_g2, (1, 2, 0): c_g2,
        (1, 1, 1): c_xyt,
    })


def _check_pair(tower: FieldTower, A: Elt, B: Elt) -> Field:
    if A.field != tower.fq or B.field != tower.fq:
        raise LevelMismatch("A and B must live in F_q")
    return tower.fq


# ---------------------------------------------------------------------------
# branch factorizations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BranchCheck:
    """Outcome of one locus check."""

    name: str
    on_locus: bool
    verified: bool | None = None
    scalar: int | None = None
    alpha: int | None = None
    lines: tuple = ()
    note: str = ""


@dataclass
class FactorReport:
    A: int
    B: int
    checks: list = dc_field(default_factory=list)

    @property
    def on_any_locus(self) -> bool:
        return any(c.on_locus for c in self.checks)

    @property
    def ok(self) -> bool:
        return all(c.verified for c in self.checks if c.on_locus)

    def check(self, name: str) -> BranchCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def divides(P: TernaryCubic, line) -> bool:
    """Whether the projective line uX + vY + wT divides the cubic."""
    f = P.field
    u, v, w = line
    if w != 0:
        inv = f.inv(w)
        forms = ((1, 0, 0), (0, 1, 0), (f.neg(f.mul(u, inv)), f.neg(f.mul(v, inv)), 0))
    elif v != 0:
        inv = f.inv(v)
        forms = ((1, 0, 0), (f.neg(f.mul(u, inv)), 0, 0), (0, 0, 1))
    elif u != 0:
        forms = ((0, 0, 0), (0, 1, 0), (0, 0, 1))
    else:
        raise ValueError("zero line")
    return P.substitute_linear(forms).is_zero()


def _match_up_to_scalar(P: TernaryCubic, Q: TernaryCubic) -> int | None:
    """Scalar lam with P == lam * Q, or None."""
    f = P.field
    lam = None
    for cp, cq in zip(P.coeffs, Q.coeffs):
        if cq == 0:
            if cp != 0:
                return None
            continue
        cand = f.div(cp, cq)
        if lam is None:
            lam = cand
        elif lam != cand:
            return None
    if lam == 0:
        return None
    return lam


def verify_branch_factorization(tower: FieldTower, A: Elt, B: Elt) -> FactorReport:
    """Check every reducibility locus that (A, B) lies on against F_det.

    Full splittings (the cubic and square branches) are verified up to an
    explicitly reported nonzero scalar; single-line loci are verified as exact
    divisibility.  The published lines divide the determinant cubic with their
    variables as printed; an X <-> Y relabel is tried as a fallback and the
    orientation used is recorded in the notes.
    """
    fq = _check_pair(tower, A, B)
    a, b = A.code, B.code
    F = build_F_det(tower, A, B)
    rep = FactorReport(a, b)
    two = fq.from_int(2)
    a3 = fq.pow(a, 3)

    # B = 0: the cubic collapses to 2*(A^3 + 1)*XYT
    if b == 0:
        expected = TernaryCubic(fq, {(1, 1, 1): fq.mul(two, fq.add(a3, 1))})
        rep.checks.append(BranchCheck("b_zero_monomial", True, F == expected,
                                      note="F == 2*(A^3+1)*XYT"))
        return rep

    # trace line: A - 2B + 1 = 0 or (A, B) in {(1, 1), (1, -1/2)}
    on1 = (fq.add(fq.sub(a, fq.mul(two, b)), 1) == 0
           or (a == 1 and b in (1, fq.neg(fq.inv(two)))))
    if on1:
        ok = divides(F, (1, 1, 1))
        rep.checks.append(BranchCheck("trace_line", True, ok, lines=((1, 1, 1),)))

    # cubic branch: A^3 - 2AB + 1 = 0, A^3 != -1; full split, lam = 2B/A^2
    cubic_val = fq.add(fq.sub(a3, fq.mul(two, fq.mul(a, b))), 1)
    if cubic_val == 0 and fq.add(a3, 1) != 0:
        a2 = fq.mul(a, a)
        lines = ((a, 1, a2), (1, a2, a), (a2, a, 1))
        entry = _verify_split(F, fq, lines, fq.div(fq.mul(two, b), a2), "cubic_split")
        rep.checks.append(entry)

    # square branch: A = B^2; full split, lam = 2A/B^2
    if a == fq.mul(b, b):
        b2 = fq.mul(b, b)
        lines = ((1, b, b2), (b, b2, 1), (b2, 1, b))
        entry = _verify_split(F, fq, lines, fq.div(fq.mul(two, a), b2), "square_split")
        rep.checks.append(entry)

    # sqrt(-3) lines: the conic locus and the A^2 + A + 1 = 0 locus; -3 being
    # a square is part of the published locus condition
    root = fq.sqrt_code(fq.neg(fq.from_int(3)))
    conic = fq.add(fq.add(fq.add(fq.mul(a, a), fq.mul(two, fq.mul(a, b))), fq.neg(a)),
                   fq.add(fq.add(fq.mul(fq.from_int(4), fq.mul(b, b)), fq.mul(two, b)), 1))
    unit = fq.add(fq.add(fq.mul(a, a), a), 1)
    sans_root = False
    for name, quadric_holds in (("alpha_line_conic", conic == 0),
                                ("alpha_line_unit_cubic",
                                 unit == 0 and b in (fq.mul(a, a),
                                                     fq.neg(fq.div(fq.mul(a, a), two))))):
        if not quadric_holds:
            continue
        if root is None:
            sans_root = True
            rep.checks.append(BranchCheck(name, False, None,
                                          note="-3 is a non-square in F_q"))
            continue
        found = None
        for alpha in (root, fq.neg(root)):
            line = (two, fq.sub(alpha, 1), fq.neg(fq.add(1, alpha)))
            for variant, oriented in (("as printed", line),
                                      ("X<->Y", (line[1], line[0], line[2]))):
                if divides(F, oriented):
                    found = BranchCheck(name, True, True, alpha=alpha,
                                        lines=(oriented,), note=variant)
                    break
            if found:
                break
        rep.checks.append(found or BranchCheck(name, True, False,
                                               note="no alpha/orientation divides"))

    # A = 0 branch: reducible exactly when 8B^3 = 1; line 2BX + 4B^2Y + T
    if a == 0:
        on3 = fq.mul(fq.from_int(8), fq.pow(b, 3)) == 1
        if on3:
            line = (fq.mul(two, b), fq.mul(fq.from_int(4), fq.mul(b, b)), 1)
            rep.checks.append(BranchCheck("a_zero_line", True, divides(F, line),
                                          lines=(line,)))

    if not rep.on_any_locus:
        if sans_root:
            raise SquareRootUnavailable(
                f"(A, B) = ({a}, {b}) satisfies an alpha-line quadric but -3 is a "
                f"non-square in F_{fq.order}")
        raise NotOnLocus(f"(A, B) = ({a}, {b}) lies on no reducibility locus")
    return rep


def _verify_split(F, fq, lines, lam_formula, name) -> BranchCheck:
    for variant, ls in (("as printed", lines),
                        ("X<->Y", tuple((v, u, w) for (u, v, w) in lines))):
        prod = triple_product(fq, *ls)
        lam = _match_up_to_scalar(F, prod)
        if lam is not None:
            note = variant
            if lam != lam_formula:
                note += f"; scalar {lam} != closed form {lam_formula}"
            return BranchCheck(name, True, lam == lam_formula, scalar=lam,
                               lines=ls, note=note)
    return BranchCheck(name, True, False, note="no orientation matches")


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


def _coordinate_factors(P: TernaryCubic):
    """Divide out X, Y, T factors; returns (residual term dict, lines)."""
    terms = {mon: c for mon, c in zip(MONOMIALS, P.coeffs) if c}
    lines = []
    for axis, line in ((0, (1, 0, 0)), (1, (0, 1, 0)), (2, (0, 0, 1))):
        while terms and all(mon[axis] >= 1 for mon in terms):
            terms = {tuple(m - (1 if t == axis else 0) for t, m in enumerate(mon)): c
                     for mon, c in terms.items()}
            lines.append(line)
    return terms, lines


def find_linear_factors(P: TernaryCubic, max_ext: int = 3) -> list[LineFactor]:
    """All projective lines over F_{q^k}, k <= max_ext, dividing the cubic.

    Coordinate-line factors are divided out first.  The residual R, of degree
    d <= 3, is then divisible by none of X, Y, T, so R(1, a, 0), R(0, b, 1)
    and R(c, 0, 1) are nonzero polynomials of degree <= d, whose roots are
    found by evaluating them on every code of F_{q^k}.  A line Y = aX + bT
    passes through (1:a:0) and (0:b:1), so a and b are roots of the first two:
    at most d^2 candidates.  A line X = cT passes through (0:1:0) and (c:0:1),
    so it needs R(0, 1, 0) = 0 and c a root of the third.

    Each candidate is confirmed by evaluating the cubic at the points
    (x:t) = (1:0), (0:1), (1:1), (1:-1) of its line, pairwise distinct because
    p is odd.  The cubic restricted to the line is a binary form of degree
    <= 3, and one with four projective zeros is zero, so the check is exact.
    A line defined over F_{q^k} and no smaller field comes with k distinct
    conjugate lines dividing R, so k <= d, and max_ext = 3 is complete.
    """
    if P.is_zero():
        raise ValueError("the zero cubic is divisible by every line")
    if not 1 <= max_ext <= 3:
        raise ValueError("max_ext must be 1, 2, or 3")
    fq = P.field
    terms, coord_lines = _coordinate_factors(P)
    found: list[LineFactor] = [LineFactor(line, 1) for line in coord_lines]
    d = max((sum(m) for m in terms), default=0)
    # R(1, Y, 0), R(0, Y, 1), R(X, 0, 1): coefficient lists, lowest power first
    on_t0 = [terms.get((d - j, j, 0), 0) for j in range(d + 1)]
    on_x0 = [terms.get((0, j, d - j), 0) for j in range(d + 1)]
    on_y0 = [terms.get((j, 0, d - j), 0) for j in range(d + 1)]
    for ext in range(1, min(max_ext, d) + 1):
        if fq.order ** ext > fq.enum_bound():
            raise SizeLimit(f"line search over F_{fq.order ** ext} exceeds the bound")
        f = standard_extension(fq, ext)
        codes = np.arange(f.order, dtype=np.int64)

        def roots(poly):
            return codes[_horner_vec(f, poly, codes) == 0].tolist()

        # (line, two of its points) per candidate
        b_roots = roots(on_x0)
        cands = [((f.neg(a), 1, f.neg(b)), (1, a, 0), (0, b, 1))
                 for a in roots(on_t0) for b in b_roots]
        if not terms.get((0, d, 0)):
            cands += [((1, 0, f.neg(c)), (0, 1, 0), (c, 0, 1)) for c in roots(on_y0)]
        if not cands:
            continue
        p0 = np.array([c[1] for c in cands], dtype=np.int64)
        p1 = np.array([c[2] for c in cands], dtype=np.int64)
        # (x:t) = (1:0), (0:1), (1:1), (1:-1) on every candidate line
        pts = np.stack([p0, p1, f.add_vec(p0, p1), f.sub_vec(p0, p1)], axis=1)
        vals = P.in_field(f).evaluate(pts[..., 0], pts[..., 1], pts[..., 2])
        for (line, _, _), zero in zip(cands, ~vals.any(axis=1)):
            if zero:
                found.append(LineFactor(_normalize_line(f, line), ext))
    return _dedupe_lines(found, fq.order)


def _dedupe_lines(found, q: int) -> list[LineFactor]:
    seen = set()
    out = []
    for lf in sorted(found, key=lambda x: (x.ext, x.coeffs)):
        if lf.ext > 1 and all(c < q for c in lf.coeffs):
            continue  # already reported over the base field
        key = (lf.ext, lf.coeffs)
        if key not in seen:
            seen.add(key)
            out.append(lf)
    return out


# ---------------------------------------------------------------------------
# normal-basis transform and point counting
# ---------------------------------------------------------------------------

def transform_H(tower: FieldTower, A: Elt, B: Elt, xi: Elt) -> TernaryCubic:
    """Change variables by the conjugate basis of xi; coefficients drop to F_q.

    Substitutes X*xi + Y*xi^q + T*xi^(q^2) and its two Frobenius twists into
    the determinant cubic.  Nonzero F_q-points of the result biject with
    nonzero roots C of the determinant via C = x*xi + y*xi^q + t*xi^(q^2).
    """
    f3 = tower.fq3
    if xi.field != f3:
        raise LevelMismatch("xi must live in F_{q^3}")
    x0 = xi.code
    x1 = f3.frob(x0, 1)
    x2 = f3.frob(x0, 2)
    G = build_F_det(tower, A, B).in_field(f3)
    H = G.substitute_linear(((x0, x1, x2), (x1, x2, x0), (x2, x0, x1)))
    q = tower.fq.order
    for c in H.coeffs:
        if c >= q:
            raise CoefficientNotInSubfield(f"coefficient code {c} is not in F_{q}")
    return TernaryCubic(tower.fq, H.coeffs)


def count_nonzero_fq_zeros(P: TernaryCubic) -> int:
    """Number of (x, y, t) in F_q^3 minus the origin with P(x, y, t) = 0."""
    f = P.field
    q = f.order
    if q ** 3 > f.enum_bound():
        raise SizeLimit(f"point count needs q^3 <= bound, got {q ** 3}")
    codes = np.arange(q, dtype=np.int64)
    X = codes[:, None, None]
    Y = codes[None, :, None]
    T = codes[None, None, :]
    vals = P.evaluate(X, Y, T)
    zeros = int(np.count_nonzero(vals == 0))
    return zeros - 1  # the origin is always a zero of a homogeneous cubic

