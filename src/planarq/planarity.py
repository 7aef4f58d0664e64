"""Planarity deciders, the closed-form classifier, and the (A, B) scanner.

A polynomial f on a finite field is planar when every difference map
x -> f(x + a) - f(x), a != 0, permutes the field.  Three deciders coexist:

  * ``brute_is_planar`` -- the definition, checked with hit counts; works for
    any sparse polynomial over any field within the enumeration budget.  It
    adds and subtracts codes a chunk of base-p digits at a time through the
    cached tables of ``gf._chunk_tables``.  Two gates are checked on the
    value table, with F_s the field the polynomial's field was built over
    (F_q for the tower's F_{q^3}): f(lambda x) = lambda^2 f(x) for lambda in
    F_s^*, and f(x^s) = f(x)^s.  A polynomial passing both needs one shift
    per orbit of F_s^* scaling and x -> x^s (``gf.frob_orbit_reps``), one
    passing the first only one per F_s^* orbit, any other every shift.
    ``scan`` builds the sweep's set-up and the tables of x^(q^2+1), x^(q+1)
    and x^2 once per chunk of pairs, so a pair's value table is
    P1 + A P2 + B P3.
  * ``is_planar_det``   -- for the quadratic family only: no nonzero shift
    may kill the determinant of the difference map's matrix over F_q.
  * ``classify_pair``   -- the closed-form three-branch criterion in F_q, the
    one-pair wrapper of ``_branches``, which runs the same code on ints or
    on arrays of pairs.

``scan`` runs any subset of the deciders over all q^2 pairs (A, B), each
filling one boolean verdict array in code order, and reads disagreements, the
planar count (against the expected 3q - 2 - 4*gcd(3, q-1)) and the report's
rows, one dict per pair, off those arrays; only its brute sweeps go to worker
processes.  The determinant is homogeneous of degree 3 over F_q in the shift,
so both determinant paths look only at the q^2 + q + 1 projective shifts and
name the least killing one as the witness.  Both read the determinant off
one (10, 10) table per tower (``_det_table``), a cubic in (A, B, 1) whose
coefficients are cubics over F_q in C's three F_q digits, built from values
of f alone: the difference map is F_q-bilinear in (shift, x), so its matrix
over F_q comes from the digits of its values on the basis pairs
(``_difference_tensor``).  ``is_planar_det`` (used by ``verify``) contracts
the table's rows into its pair's cubic (``_pair_cubic``) and evaluates it
at every shift's digits.  ``scan`` takes every pair's verdict from one
incidence pass (``det_witnesses``) at every q, which evaluates the rows
(the coefficients of A^i B^j) at every shift's digits and reads each pair's
killing shifts off a table of the F_q roots of monic cubics.  ``_dets_at``,
the Dickson determinant over F_{q^3} at given triples, is the tests' oracle.
"""

from __future__ import annotations

import functools
import math
import os
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import Disagreement
from .curves import MONOMIALS, _MIDX, _PRODUCT_SLOT, _evaluate
from .gf import (Field, FieldTower, _check_enumerable, _chunk_tables, _codes_in, _decode,
                 _encode, _generator, _ops, det3, frob_orbit_reps, orbit_reps)
from .linearized import _dickson, _difference_coeffs, has_nonzero_root_subfield_coeffs

BRANCH_B_ZERO = "BranchBZero"
BRANCH_CUBIC = "BranchCubic"
BRANCH_SQUARE = "BranchSquare"
BRANCHES = (BRANCH_B_ZERO, BRANCH_CUBIC, BRANCH_SQUARE)

METHOD_THEOREM = "theorem"
METHOD_DET = "det"
METHOD_BRUTE = "brute"
ALL_METHODS = (METHOD_THEOREM, METHOD_DET, METHOD_BRUTE)


# ---------------------------------------------------------------------------
# sparse polynomials
# ---------------------------------------------------------------------------

class SparsePoly:
    """Polynomial as a map exponent -> nonzero coefficient code.

    ``terms`` is a mapping or an iterable of (exponent, code) pairs.
    Exponents are reduced modulo x^N - x on construction (N the field order),
    so evaluation agrees with the original polynomial as a function and huge
    family exponents stay cheap.  Terms whose exponents meet, as given or
    once reduced, are added.
    """

    def __init__(self, field: Field, terms):
        n = field.order
        reduced: dict[int, int] = {}
        for e, c in (terms.items() if hasattr(terms, "items") else terms):
            e, c = int(e), int(c)
            if not 0 <= c < n:
                raise ValueError(f"coefficient code {c} out of range")
            if e < 0:
                raise ValueError("exponents must be non-negative")
            if e >= n:
                e = (e - 1) % (n - 1) + 1
            if c:
                acc = field.add(reduced.get(e, 0), c)
                if acc:
                    reduced[e] = acc
                else:
                    reduced.pop(e, None)
        self.field = field
        self.terms = dict(sorted(reduced.items()))

    def __repr__(self):
        if not self.terms:
            return "SparsePoly(0)"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            head = "" if (c == 1 and e > 0) else f"{c}*"
            bits.append(f"{head}x^{e}" if e else f"{c}")
        return "SparsePoly(" + " + ".join(bits) + ")"

    def value_table(self) -> np.ndarray:
        """f(x) for every field element x, indexed by code."""
        f = self.field
        _check_enumerable(f.order, "value table")
        codes = np.arange(f.order, dtype=np.int64)
        acc = np.zeros(f.order, dtype=np.int64)
        for e, c in self.terms.items():
            term = f.pow_vec(codes, e)
            if c != 1:
                term = f.mul_vec(c, term)
            acc = f.add_vec(acc, term)
        return acc


def f_poly(tower: FieldTower, A, B) -> SparsePoly:
    """x^(q^2+1) + A*x^(q+1) + B*x^2 over F_{q^3}, for codes A, B of F_q: x
    times the linearized part.

    The B-term multiplies x^2 (not a constant), which is what makes every
    difference map linearized; see ``difference_triple``.
    """
    a, b = _codes_in(tower.fq, A, B)
    q = tower.q
    return SparsePoly(tower.fq3, {q * q + 1: 1, q + 1: a, 2: b})


# ---------------------------------------------------------------------------
# deciders
# ---------------------------------------------------------------------------

def brute_is_planar(poly: SparsePoly) -> bool:
    """Definition-level planarity test by exhaustive difference-map checks.

    For each swept shift a, tabulates f(x+a) - f(x) over all x and demands
    all |F| values be distinct; stops at the first failing shift.  The set-up
    of the sweep is ``_BruteSweep``, built once per call.

    Let F_s be the field F was built over (s = p for a prime field).  When
    f(lambda x) = lambda^2 f(x) for every lambda in F_s^* (every
    Dembowski-Ostrom polynomial with coefficients in F_s, so every f_{A,B}
    with s = q), the difference map at lambda a is lambda^2 times the one at
    a composed with x -> x/lambda, so one shift per F_s^* orbit decides.
    When f also commutes with sigma: x -> x^s (every f with coefficients in
    F_s), the map at sigma(a) is sigma composed with the one at a and with
    sigma^-1, so one shift per orbit of F_s^* scaling and sigma decides.
    Both are checked on the value table, and a polynomial that fails either
    is swept over the larger set: the F_s^* orbits, or every shift a != 0.
    """
    ftab = poly.value_table()  # raises SizeLimit beyond the enumeration bound
    return _BruteSweep(poly.field).run(ftab)[0]


class _BruteSweep:
    """What a brute sweep over one field needs besides the value table,
    built once per ``brute_is_planar`` call or scan chunk and never cached on
    the field.

    Codes are added and subtracted digit-wise a chunk of c base-p digits at a
    time, through the p^c x p^c tables of ``gf._chunk_tables``.  The codes
    are split into their ceil(k/c) chunk planes here (k digits per code) and
    each value table in ``run``, so each shift costs one table gather per
    chunk to form x + a, then one gather and one table lookup per chunk to
    form f(x+a) - f(x); chunk j's tables are scaled by p^(cj), so summing over
    the chunks packs the code again.  The gates read the value table at g x
    and at x^s, g the least generator of F_s^* (``gf._generator``), whose
    code is the same in F: f(g x) = g^2 f(x) gives every power of g.
    """

    def __init__(self, field: Field):
        f = self.field = field
        _check_enumerable(f.order, "brute sweep")
        n, p, k = f.order, f.char, f._n
        base = f.base or f
        s = base.order
        codes = np.arange(n, dtype=np.int64)
        g = _generator(base)
        self.g2 = f.mul(g, g)
        self.scaled = f.mul_vec(g, codes)      # code of g x, by x
        self.frobenius = f.frob_vec(codes, 1)  # code of x^s, by x (x itself on F_p)
        c, add, sub = _chunk_tables(p)
        self.P, self.m = P, m = p ** c, -(-k // c)
        # flat index j*P*P + u*P + v of add_j is add[u, v] * P^j, and so for sub_j
        weights = (P ** np.arange(m))[:, None, None]
        self.add_j, self.sub_j = (add * weights).ravel(), (sub * weights).ravel()
        self.start = (P * P * np.arange(m))[:, None]  # where table j begins in add_j, sub_j
        self.xs = np.stack(_decode(codes, P, m))  # (m, n) chunk planes
        self.orbit_rows = self._rows(frob_orbit_reps(f))
        self.projective_rows = self._rows(orbit_reps(s, n))

    def _rows(self, shifts):
        """Each shift's chunk planes, offset into add_j."""
        return np.stack(_decode(shifts, self.P, self.m), axis=1)[:, :, None] * self.P + self.start

    def run(self, ftab) -> tuple[bool, int]:
        """(planar, number of shifts swept) for the value table ftab."""
        f = self.field
        if not np.array_equal(ftab[self.scaled], f.mul_vec(self.g2, ftab)):
            a_rows = self._rows(np.arange(1, f.order))
        elif not np.array_equal(ftab[self.frobenius], f.frob_vec(ftab, 1)):
            a_rows = self.projective_rows
        else:
            a_rows = self.orbit_rows
        add_j, sub_j, xs = self.add_j, self.sub_j, self.xs
        ys = np.stack(_decode(ftab, self.P, self.m))
        y_rows = ys * self.P + self.start
        for swept, rows in enumerate(a_rows, 1):
            shifted = add_j[rows + xs].sum(axis=0)  # codes of x + a
            diffs = sub_j[np.take(y_rows, shifted, axis=1) + ys].sum(axis=0)
            if np.bincount(diffs, minlength=f.order).max() != 1:
                return False, swept
        return True, len(a_rows)


def _dets_at(tower: FieldTower, a_codes, b_codes, c_codes) -> np.ndarray:
    """Difference-matrix determinants, fully vectorized over (A, B, C) triples.

    ``gf.det3`` of ``dickson_matrix`` of ``difference_triple``, through their
    code-level cores on arrays; Frobenius is applied to the arrays in hand, so
    no whole-field table is built.
    """
    f = tower.fq3
    _check_enumerable(f.order, "determinant sweep")
    a, b, c = (np.asarray(x, dtype=np.int64) for x in (a_codes, b_codes, c_codes))
    return det3(f, _dickson(f, *_difference_coeffs(f, a, b, c)))


def _difference_tensor(tower: FieldTower) -> np.ndarray:
    """N with N[k, l, j] the F_q digits of P_k(e_l + e_j) - P_k(e_l) - P_k(e_j),
    for the monomials P_0, P_1, P_2 = x^(q^2+1), x^(q+1), x^2 and the F_q
    basis e_l = q^l (codes 1, q, q^2) of F_{q^3}: 81 codes of F_q.

    f = P_0 + A P_1 + B P_2, so the digits of D_{e_l}(e_j) = f(e_l + e_j) -
    f(e_l) - f(e_j) are N[0] + A N[1] + B N[2] for A, B in F_q.  Not cached:
    ``_det_table``, built from it, is.
    """
    f, q = tower.fq3, tower.q
    e = q ** np.arange(3, dtype=np.int64)
    el, ej = e[:, None], e[None, :]
    values = [f.sub_vec(f.sub_vec(f.pow_vec(f.add_vec(el, ej), k), f.pow_vec(el, k)),
                        f.pow_vec(ej, k))
              for k in (q * q + 1, q + 1, 2)]
    return np.stack(_decode(np.stack(values), q, 3), axis=-1)


def _det_table(tower: FieldTower) -> np.ndarray:
    """T[r, n]: the coefficient of A^i B^j c^MONOMIALS[n] in det(A, B, C), where
    MONOMIALS[r] = (i, j, 3 - i - j) and c = (c_0, c_1, c_2) are C's F_q digits:
    (10, 10) codes of F_q, a cubic in (A, B, 1) with cubics in c as coefficients.

    Row j of D_C's matrix over F_q is sum_l c_l (N[0] + A N[1] + B N[2])[l, j],
    N the ``_difference_tensor`` (the rows are the map's columns, with the
    same determinant).  The determinant is linear in each row, so one ``det3``
    over F_q on each row's nine choices (part s, digit l), along three axes,
    gives all 9^3 terms; a term adds to [slot of its three parts, with
    A, B, 1 = X, Y, T; slot of c_{l_0} c_{l_1} c_{l_2}], digit-wise mod p.
    T depends on the tower alone, so it is built once and kept on F_{q^3}.
    """
    f, fq, p = tower.fq3, tower.fq, tower.p
    if "det_table" not in f._cache:
        n = _difference_tensor(tower)
        rows = [np.moveaxis(n[:, :, j].reshape(9, 3), 1, 0).reshape(3, *axis)
                for j, axis in enumerate(((9, 1, 1), (1, 9, 1), (1, 1, 9)))]
        # way w takes row j from part s[j, w] and digit l[j, w]
        s, l = np.divmod(np.indices((9, 9, 9)).reshape(3, -1), 3)
        slot = np.array(_PRODUCT_SLOT)
        cell = (slot[tuple((s + 2) % 3)], slot[tuple(l)])  # parts 0, 1, 2 are T, X, Y
        digits = np.zeros((tower.m, 10, 10), dtype=np.int64)
        for total, d in zip(digits, _decode(det3(fq, rows).ravel(), p, tower.m)):
            np.add.at(total, cell, d)
        table = _encode(list(digits % p), p)
        table.setflags(write=False)
        f._cache["det_table"] = table
    return f._cache["det_table"]


def _det_coefficients(tower: FieldTower, reps: np.ndarray) -> np.ndarray:
    """m with det(A, B, R) = sum m[r] A^i B^j, MONOMIALS[r] = (i, j, 3 - i - j),
    for every representative R: the ``_det_table``'s cubics at R's F_q
    digits, shape (10, len(reps))."""
    return _evaluate(tower.fq, _det_table(tower).T[..., None], *_decode(reps, tower.q, 3))


def _pair_cubic(tower: FieldTower, a: int, b: int) -> list[int]:
    """The ten F_q codes of det(a, b, C) as a cubic in C's F_q digits: the
    ``_det_table``'s rows times the monomials of (a, b, 1), summed digit-wise."""
    fq, p = tower.fq, tower.p
    monomials = np.array([fq.mul(fq.pow(a, i), fq.pow(b, j)) for i, j, _ in MONOMIALS])
    terms = fq.mul_vec(monomials[:, None], _det_table(tower))
    return _encode([d.sum(axis=0) % p for d in _decode(terms, p, tower.m)], p).tolist()


def is_planar_det(tower: FieldTower, A, B) -> tuple[bool, int | None]:
    """Planarity of the pair of F_q codes (A, B) via the determinant: no
    nonzero C may kill it.  When not planar, also returns the witness: the
    code of the least root C.

    det(A, B, lambda C) = lambda^3 det(A, B, C) for lambda in F_q^*, so the
    roots C != 0 form whole F_q^* orbits, and the q^2 + q + 1 codes of
    ``orbit_reps(q, q^3)`` (increasing, each the least of its orbit) meet
    every orbit once: the pair's cubic (``_pair_cubic``) is evaluated at
    their F_q digits, and the least killing representative is the least root.
    """
    a, b = _codes_in(tower.fq, A, B)
    _check_enumerable(tower.order_top, "determinant sweep")
    reps = orbit_reps(tower.q, tower.order_top)
    dets = _evaluate(tower.fq, _pair_cubic(tower, a, b), *_decode(reps, tower.q, 3))
    killed = np.flatnonzero(dets == 0)
    return (True, None) if len(killed) == 0 else (False, int(reps[killed[0]]))


@dataclass(frozen=True)
class PairClass:
    """Classification verdict for one pair (A, B)."""

    planar: bool
    branch: str | None = None

    @property
    def verdict(self) -> str:
        return "Planar" if self.planar else "NotPlanar"


def _branches(fq: Field, a, b):
    """The three branch conditions of the closed form at the F_q codes a, b,
    in ``BRANCHES`` order; ints give bools, arrays that broadcast give bool
    arrays:
      BranchBZero:  B = 0 and A^3 + 1 != 0
      BranchCubic:  A^3 - 2AB + 1 = 0 and A^3 != 1 and A^3 != -1
      BranchSquare: A = B^2 and B^3 != 1
    """
    mul, add, sub, _ = _ops(fq, a, b)
    a3, b2, minus_one = mul(mul(a, a), a), mul(b, b), fq.neg(1)
    cubic = add(sub(a3, mul(fq.from_int(2), mul(a, b))), 1)
    return ((b == 0) & (a3 != minus_one),
            (cubic == 0) & (a3 != 1) & (a3 != minus_one),
            (a == b2) & (mul(b2, b) != 1))


def classify_pair(tower: FieldTower, A, B) -> PairClass:
    """Closed-form decision for the F_q codes (A, B), entirely in F_q: planar
    exactly when one of the branches of ``_branches`` holds, and the first
    that holds is recorded, so (0, 0), where BranchBZero and BranchSquare
    hold, is BranchBZero."""
    hits = _branches(tower.fq, *_codes_in(tower.fq, A, B))
    branch = next((name for name, hit in zip(BRANCHES, hits) if hit), None)
    return PairClass(branch is not None, branch)


def prop1_necessary(tower: FieldTower, A, B) -> bool:
    """Necessary condition: the linearized factor x^(q^2) + A*x^q + B*x is
    bijective, for codes A, B of F_q.

    Equivalent to 1 + A^3 + B^3 - 3AB != 0 by the nonzero-kernel criterion.
    """
    return not has_nonzero_root_subfield_coeffs(tower.fq, 1, *_codes_in(tower.fq, A, B))


def count_formula(q: int) -> int:
    """Expected number of planar pairs: 3q - 2 - 4*gcd(3, q - 1)."""
    return 3 * q - 2 - 4 * math.gcd(3, q - 1)


# ---------------------------------------------------------------------------
# the incidence pass: every pair's determinant witness at once
# ---------------------------------------------------------------------------

# (A, R) cells per step of the incidence pass over A; bounds its memory
_INCIDENCE_CHUNK = 1 << 20


def _cubic_root_table(fq: Field) -> np.ndarray:
    """F_q roots of every monic cubic x^3 + e2 x^2 + e1 x + e0, in row
    (e2 q + e1) q + e0 (coefficients as F_q codes).  Rows list distinct roots;
    unused slots hold q.  Built by iterating over the root r: each monic cubic
    with root r is (x - r) times exactly one monic quadratic.
    """
    q = fq.order
    codes = np.arange(q, dtype=np.int64)
    u, v = codes[:, None], codes[None, :]
    table = np.full((q ** 3, 3), q, dtype=np.min_scalar_type(q))
    count = np.zeros(q ** 3, dtype=np.int8)
    for r in range(q):
        # (x - r)(x^2 + u x + v) = x^3 + (u - r) x^2 + (v - r u) x - r v
        e2, e1 = fq.sub_vec(u, r), fq.sub_vec(v, fq.mul_vec(r, u))
        row = ((e2 * q + e1) * q + fq.sub_vec(0, fq.mul_vec(r, v))).ravel()
        table[row, count[row]] = r
        count[row] += 1
    return table


def det_witnesses(tower: FieldTower) -> np.ndarray:
    """The determinant decider on every pair at once: entry A q + B is the
    least C != 0 in code order with det(A, B, C) = 0, or 0 if there is none
    (the pair is planar).  Agrees with ``is_planar_det`` on every pair.

    As there, only the q^2 + q + 1 projective representatives R are checked,
    and the least killing one is the witness; every q, q = 3 included, takes
    the same pass.  With m_ij(R) the coefficient of A^i B^j from
    ``_det_coefficients``, the B that R kills for a given A are the F_q roots
    of the cubic sum_j (sum_i m_ij A^i) B^j.  B enters only through B x^2,
    whose difference map at R is x -> 2 B R x, so m_03(R) = det(x -> 2 R x) =
    8 N(R) != 0: every cubic is made monic by one division and its roots are
    read, in chunks of A, from ``_cubic_root_table``; one minimum over the
    incidences (R, A, B) picks the witnesses.
    """
    fq, q = tower.fq, tower.q
    _check_enumerable(tower.order_top, "determinant sweep")
    reps = orbit_reps(q, tower.order_top)
    m = _det_coefficients(tower, reps)
    b3 = m[_MIDX[0, 3, 0]]
    if not b3.all():
        raise Disagreement(f"the B^3 coefficient of the determinant over q = {q} "
                           f"vanishes at a nonzero shift")
    m = fq.mul_vec(m, fq.pow_vec(b3, q - 2))  # every cubic in B monic
    roots = _cubic_root_table(fq)
    none = tower.fq3.order
    wit = np.full(q * q, none, dtype=np.int64)
    step = max(1, _INCIDENCE_CHUNK // len(reps))
    for start in range(0, q, step):
        a = np.arange(start, min(start + step, q), dtype=np.int64)[:, None]
        powers = [1, a, fq.mul_vec(a, a)]
        powers.append(fq.mul_vec(powers[2], a))
        e0, e1, e2 = (functools.reduce(fq.add_vec, (fq.mul_vec(m[_MIDX[i, j, 3 - i - j]], x)
                                                    for i, x in enumerate(powers[:4 - j])))
                      for j in range(3))
        killed = roots[(e2 * q + e1) * q + e0]
        ai, ri, slot = np.nonzero(killed < q)
        np.minimum.at(wit, a[ai, 0] * q + killed[ai, ri, slot], reps[ri])
    wit[wit == none] = 0
    return wit


# ---------------------------------------------------------------------------
# the scanner
# ---------------------------------------------------------------------------

@dataclass
class ScanReport:
    """A scan's outcome.  ``pairs`` holds the report rows, one dict per pair
    in code order A q + B: its codes ``A`` and ``B``, ``verdicts`` (every
    method, None where it did not run), the closed form's ``branch`` and the
    determinant ``witness`` (None when planar or not run)."""

    p: int
    m: int
    q: int
    methods: tuple
    pairs: list
    planar_count: int
    expected_count: int
    disagreements: list
    beyond_theorem: list
    timings: dict = dc_field(default_factory=dict)
    brute_shifts: int = 0

    def to_report_dict(self, seed: int = 0, version: str = "0") -> dict:
        """Stable-key dict for serialization; excludes wall-clock timings."""
        return {
            "meta": {"p": self.p, "m": self.m, "q": self.q, "seed": seed,
                     "version": version},
            "pairs": self.pairs,
            "summary": {
                "planar_count": self.planar_count,
                "expected_count": self.expected_count,
                "disagreements": [list(d) for d in self.disagreements],
                "beyond_theorem": [list(d) for d in self.beyond_theorem],
            },
        }


def _monomial_tables(tower: FieldTower) -> tuple[np.ndarray, ...]:
    """x^(q^2+1), x^(q+1) and x^2 for every x of F_{q^3}, indexed by code."""
    f, q = tower.fq3, tower.q
    _check_enumerable(f.order, "value table")
    codes = np.arange(f.order, dtype=np.int64)
    return tuple(f.pow_vec(codes, e) for e in (q * q + 1, q + 1, 2))


def _f_table(tower: FieldTower, monomials, A, B) -> np.ndarray:
    """The value table of ``f_poly(tower, A, B)`` from ``_monomial_tables``:
    f is affine in (A, B), so it is P1 + A P2 + B P3 at every x."""
    f = tower.fq3
    p1, p2, p3 = monomials
    return f.add_vec(p1, f.add_vec(f.mul_vec(A, p2), f.mul_vec(B, p3)))


def _scan_chunk(args):
    """The brute verdicts of the pairs with the given codes A q + B, and the
    number of shifts their sweeps took."""
    tower, codes = args
    sweep, monomials = _BruteSweep(tower.fq3), _monomial_tables(tower)
    runs = [sweep.run(_f_table(tower, monomials, *divmod(c, tower.q))) for c in codes]
    return [planar for planar, _ in runs], sum(swept for _, swept in runs)


def scan(tower: FieldTower, methods=(METHOD_THEOREM, METHOD_DET),
         workers: int = 1) -> ScanReport:
    """Run the requested deciders on every (A, B) in F_q x F_q.

    Each decider fills one boolean verdict array over the q^2 pairs in code
    order A q + B: the closed form in one array pass of ``_branches``, the
    determinant in one ``det_witnesses`` pass, brute by one sweep per pair.
    Only the brute sweeps are split over processes: pair i goes to chunk
    i mod w, w = min(workers, q^2, CPU count), and each chunk's verdicts are
    put back in place, so reports are bit-stable whatever the worker count.
    A chunk builds the sweep set-up and the tables of ``_monomial_tables``
    once and reads each pair's value table off them.

    The summary and the report rows are read off the verdict arrays.  Hard
    disagreements are mismatches between exact deciders anywhere, or between
    the closed form and an exact decider for q > 3; at q = 3 the closed form
    is only required to be a lower bound, and exact-planar pairs it misses
    are reported separately in ``beyond_theorem``.  ``timings`` holds the seconds of the
    incidence pass (``det``), of the rest (``pairs``) and of the whole scan
    (``scan``), and ``brute_shifts`` the number of shifts the brute sweeps
    took, summed over the pairs; neither enters the report.
    """
    requested = tuple(methods)
    unknown = [m for m in requested if m not in ALL_METHODS]
    if unknown:
        raise ValueError(f"unknown methods: {unknown}")
    methods = tuple(m for m in ALL_METHODS if m in requested)
    if not methods:
        raise ValueError("at least one method required")
    q, n = tower.q, tower.q ** 2
    a_codes, b_codes = np.divmod(np.arange(n), q)
    start = time.perf_counter()
    witnesses = det_witnesses(tower) if METHOD_DET in methods else np.zeros(n, dtype=np.int64)
    timings = {"det": time.perf_counter() - start}
    verdicts, branches, brute_shifts = {}, [None] * n, 0
    if METHOD_THEOREM in methods:
        hits = np.stack(_branches(tower.fq, a_codes, b_codes))
        theorem = verdicts[METHOD_THEOREM] = hits.any(axis=0)
        branches = [BRANCHES[i] if planar else None
                    for i, planar in zip(hits.argmax(axis=0).tolist(), theorem.tolist())]
    if METHOD_DET in methods:
        verdicts[METHOD_DET] = witnesses == 0
    if METHOD_BRUTE in methods:
        # more processes than pairs or CPUs would only wait
        workers = min(workers, n, os.cpu_count() or 1)
        chunks = [(tower, range(i, n, workers)) for i in range(workers)]
        if workers > 1:
            import multiprocessing as mp

            with mp.Pool(workers) as pool:
                results = pool.map(_scan_chunk, chunks)
        else:
            results = map(_scan_chunk, chunks)
        brute = verdicts[METHOD_BRUTE] = np.empty(n, dtype=bool)
        for i, (chunk, shifts) in enumerate(results):
            brute[i::workers] = chunk
            brute_shifts += shifts

    exact = [verdicts[m] for m in (METHOD_DET, METHOD_BRUTE) if m in verdicts]
    hard = beyond = np.zeros(n, dtype=bool)
    if len(exact) == 2:
        hard = exact[0] != exact[1]
    if METHOD_THEOREM in methods and exact:
        claimed, missed = theorem & ~exact[0], exact[0] & ~theorem
        if q == 3:
            hard, beyond = hard | claimed, missed
        else:
            hard = hard | claimed | missed
    # definition-level methods outrank the closed form when counting
    authority = next(m for m in (METHOD_BRUTE, METHOD_DET, METHOD_THEOREM) if m in methods)
    columns = [verdicts[m].tolist() if m in verdicts else [None] * n for m in ALL_METHODS]
    rows = [{"A": a, "B": b, "verdicts": dict(zip(ALL_METHODS, row)), "branch": branch,
             "witness": witness or None}
            for a, b, row, branch, witness in zip(a_codes.tolist(), b_codes.tolist(),
                                                  zip(*columns), branches, witnesses.tolist())]
    timings["scan"] = time.perf_counter() - start
    timings["pairs"] = timings["scan"] - timings["det"]
    return ScanReport(
        p=tower.p, m=tower.m, q=q, methods=methods, pairs=rows,
        planar_count=int(np.count_nonzero(verdicts[authority])),
        expected_count=count_formula(q),
        disagreements=[divmod(i, q) for i in np.flatnonzero(hard).tolist()],
        beyond_theorem=[divmod(i, q) for i in np.flatnonzero(beyond).tolist()],
        timings=timings, brute_shifts=brute_shifts,
    )
