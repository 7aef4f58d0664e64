"""Planarity deciders, the closed-form classifier, and the (A, B) scanner.

A polynomial f on a finite field is planar when every difference map
x -> f(x + a) - f(x), a != 0, permutes the field.  Three deciders coexist:

  * ``brute_is_planar`` -- the definition, checked with hit counts; works for
    any sparse polynomial over any field within the enumeration budget.  It
    adds and subtracts codes a chunk of base-p digits at a time through the
    cached tables of ``gf._chunk_tables``.  A polynomial with
    f(lambda x) = lambda^2 f(x) for lambda in F_s^*, F_s the field it was
    built over (F_q for the tower's F_{q^3}), checked on its value table,
    needs one shift per F_s^* orbit; any other is swept over every shift.
  * ``is_planar_det``   -- for the quadratic family only: no nonzero shift
    may kill the determinant of the difference map's coefficient matrix.
  * ``classify_pair``   -- the closed-form three-branch criterion in F_q.

``scan`` runs any subset of the deciders over all q^2 pairs (A, B) and
reports verdicts, disagreements, and the planar count against the expected
3q - 2 - 4*gcd(3, q-1).  The determinant is homogeneous of degree 3 over F_q
in the shift, so both determinant paths look only at the q^2 + q + 1
projective shifts and name the least killing one as the witness:
``is_planar_det`` (used by ``verify``) evaluates the determinant there for
its one pair, and ``scan`` takes every pair's verdict from one incidence pass
(``det_witnesses``), which reads each pair's killing shifts off a table of
the F_q roots of monic cubics.
"""

from __future__ import annotations

import functools
import math
import os
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import Disagreement, LevelMismatch
from .gf import (Elt, Field, FieldTower, _check_enumerable, _chunk_tables, _decode, _mult_order,
                 orbit_reps)
from .linearized import has_nonzero_root_subfield_coeffs
BRANCH_B_ZERO = "BranchBZero"
BRANCH_CUBIC = "BranchCubic"
BRANCH_SQUARE = "BranchSquare"

METHOD_THEOREM = "theorem"
METHOD_DET = "det"
METHOD_BRUTE = "brute"
ALL_METHODS = (METHOD_THEOREM, METHOD_DET, METHOD_BRUTE)


# ---------------------------------------------------------------------------
# sparse polynomials
# ---------------------------------------------------------------------------

class SparsePoly:
    """Polynomial as a map exponent -> nonzero coefficient code.

    Exponents are reduced modulo x^N - x on construction (N the field order),
    so evaluation agrees with the original polynomial as a function and huge
    family exponents stay cheap.
    """

    def __init__(self, field: Field, terms):
        n = field.order
        reduced: dict[int, int] = {}
        for e, c in dict(terms).items():
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

    def __eq__(self, other):
        return (isinstance(other, SparsePoly) and other.field == self.field
                and other.terms == self.terms)

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


def f_poly(tower: FieldTower, A: Elt, B: Elt) -> SparsePoly:
    """x^(q^2+1) + A*x^(q+1) + B*x^2 over F_{q^3}: x times the linearized part.

    The B-term multiplies x^2 (not a constant), which is what makes every
    difference map linearized; see ``difference_triple``.
    """
    if A.field != tower.fq or B.field != tower.fq:
        raise LevelMismatch("A and B must live in F_q")
    q = tower.q
    return SparsePoly(tower.fq3, {q * q + 1: 1, q + 1: A.code, 2: B.code})


# ---------------------------------------------------------------------------
# deciders
# ---------------------------------------------------------------------------

def brute_is_planar(poly: SparsePoly) -> bool:
    """Definition-level planarity test by exhaustive difference-map checks.

    For each swept shift a, tabulates f(x+a) - f(x) over all x and demands
    all |F| values be distinct; stops at the first failing shift.  Codes are
    added and subtracted digit-wise a chunk of c base-p digits at a time,
    through the p^c x p^c tables of ``gf._chunk_tables``.  The codes and the
    value table are split into their ceil(k/c) chunk planes once (k digits
    per code), so each shift costs one table gather per chunk to form x + a,
    then one gather and one table lookup per chunk to form f(x+a) - f(x);
    chunk j's tables are scaled by p^(cj), so summing over the chunks packs
    the code again.

    Let F_s be the field F was built over (s = p for a prime field).  When
    f(lambda x) = lambda^2 f(x) for every lambda in F_s^* (every
    Dembowski-Ostrom polynomial with coefficients in F_s, so every f_{A,B}
    with s = q), the difference map at lambda a is lambda^2 times the one at
    a composed with x -> x/lambda, so one shift per F_s^* orbit decides: the
    (|F| - 1)/(s - 1) codes of ``orbit_reps``.  That homogeneity is checked
    on the value table first, as f(g x) = g^2 f(x) for the least generator g
    of F_s^* (its code is the same in F), which gives every power of g; a
    polynomial that fails it is swept over every shift a != 0.
    """
    f = poly.field
    n, p, k = f.order, f.char, f._n
    base = f.base or f
    s = base.order
    ftab = poly.value_table()  # raises SizeLimit beyond the enumeration bound
    codes = np.arange(n, dtype=np.int64)
    g = next(c for c in range(1, s) if _mult_order(base, c) == s - 1)
    homogeneous = np.array_equal(ftab[f.mul_vec(g, codes)], f.mul_vec(f.mul(g, g), ftab))
    shifts = orbit_reps(s, n) if homogeneous else codes[1:]
    c, add, sub = _chunk_tables(p)
    P, m = p ** c, -(-k // c)
    # flat index j*P*P + u*P + v of add_j is add[u, v] * P^j, and so for sub_j
    weights = (P ** np.arange(m))[:, None, None]
    add_j, sub_j = (add * weights).ravel(), (sub * weights).ravel()
    start = (P * P * np.arange(m))[:, None]  # where table j begins in add_j, sub_j
    xs = np.stack(_decode(codes, P, m))  # (m, n) chunk planes
    ys = np.stack(_decode(ftab, P, m))
    y_rows = ys * P + start
    a_rows = np.stack(_decode(shifts, P, m), axis=1)[:, :, None] * P + start
    for rows in a_rows:
        shifted = add_j[rows + xs].sum(axis=0)  # codes of x + a
        diffs = sub_j[np.take(y_rows, shifted, axis=1) + ys].sum(axis=0)
        if np.bincount(diffs, minlength=n).max() != 1:
            return False
    return True


def _dets_at(tower: FieldTower, a_codes, b_codes, c_codes) -> np.ndarray:
    """Difference-matrix determinants, fully vectorized over (A, B, C) triples.

    Frobenius is applied to the arrays in hand, so no whole-field table is built.
    """
    f = tower.fq3
    _check_enumerable(f.order, "determinant sweep")
    X = np.asarray(c_codes, dtype=np.int64)
    Y = f.frob_vec(X, 1)
    T = f.frob_vec(X, 2)
    a = np.asarray(a_codes, dtype=np.int64)
    twob = tower.fq.add_vec(b_codes, b_codes)
    c0 = f.add_vec(T, f.add_vec(f.mul_vec(a, Y), f.mul_vec(twob, X)))
    c1 = f.mul_vec(a, X)
    c2 = X
    c0q, c1q, c2q = f.frob_vec(c0, 1), f.frob_vec(c1, 1), Y
    c0q2, c1q2, c2q2 = f.frob_vec(c0, 2), f.frob_vec(c1, 2), T
    # rows: (c0, c1, c2), (c2q, c0q, c1q), (c1q2, c2q2, c0q2)
    m1 = f.sub_vec(f.mul_vec(c0q, c0q2), f.mul_vec(c1q, c2q2))
    m2 = f.sub_vec(f.mul_vec(c2q, c0q2), f.mul_vec(c1q, c1q2))
    m3 = f.sub_vec(f.mul_vec(c2q, c2q2), f.mul_vec(c0q, c1q2))
    det = f.sub_vec(f.mul_vec(c0, m1), f.mul_vec(c1, m2))
    return f.add_vec(det, f.mul_vec(c2, m3))


def _checked_dets(tower: FieldTower, a_codes, b_codes, c_codes) -> np.ndarray:
    """``_dets_at``, insisting that every determinant lies in F_q."""
    dets = _dets_at(tower, a_codes, b_codes, c_codes)
    if (dets >= tower.q).any():
        raise Disagreement(f"a difference-matrix determinant over q = {tower.q} "
                           f"is not in F_q (code {int(dets.max())})")
    return dets


def _direct_witnesses(tower: FieldTower, a_codes, b_codes) -> np.ndarray:
    """For each pair of the equal-length code arrays, the least projective
    representative R with det(A, B, R) = 0, or 0 if there is none; the
    determinant is evaluated at every representative.

    det(A, B, lambda C) = lambda^3 det(A, B, C) for lambda in F_q^*, so the
    roots C != 0 form whole F_q^* orbits, and the q^2 + q + 1 codes of
    ``orbit_reps(q, q^3)`` (increasing, each the least of its orbit) meet
    every orbit once: the least killing representative is the least root.
    """
    reps = orbit_reps(tower.q, tower.order_top)
    killed = _checked_dets(tower, np.asarray(a_codes)[:, None],
                           np.asarray(b_codes)[:, None], reps) == 0
    return np.where(killed.any(axis=1), reps[killed.argmax(axis=1)], 0)


def is_planar_det(tower: FieldTower, A: Elt, B: Elt) -> tuple[bool, Elt | None]:
    """Planarity via the determinant: no nonzero C may kill it.

    Evaluates the determinant at the q^2 + q + 1 projective shifts.  When not
    planar, also returns the witness: the first root C in code order.
    """
    if A.field != tower.fq or B.field != tower.fq:
        raise LevelMismatch("A and B must live in F_q")
    witness = int(_direct_witnesses(tower, [A.code], [B.code])[0])
    return (True, None) if witness == 0 else (False, Elt(tower.fq3, witness))


@dataclass(frozen=True)
class PairClass:
    """Classification verdict for one pair (A, B)."""

    planar: bool
    branch: str | None = None

    @property
    def verdict(self) -> str:
        return "Planar" if self.planar else "NotPlanar"


def classify_pair(tower: FieldTower, A: Elt, B: Elt) -> PairClass:
    """Closed-form decision, entirely in F_q.

    Planar exactly when one of the branches holds:
      BranchBZero:  B = 0 and A^3 + 1 != 0
      BranchCubic:  A^3 - 2AB + 1 = 0 and A^3 != 1 and A^3 != -1
      BranchSquare: A = B^2 and B^3 != 1
    At (0, 0) both BranchBZero and BranchSquare hold; BranchBZero is recorded.
    """
    if A.field != tower.fq or B.field != tower.fq:
        raise LevelMismatch("A and B must live in F_q")
    fq = tower.fq
    a, b = A.code, B.code
    a3 = fq.pow(a, 3)
    one = 1
    if b == 0 and fq.add(a3, one) != 0:
        return PairClass(True, BRANCH_B_ZERO)
    cubic = fq.add(fq.sub(a3, fq.mul(fq.from_int(2), fq.mul(a, b))), one)
    if cubic == 0 and a3 != one and a3 != fq.neg(one):
        return PairClass(True, BRANCH_CUBIC)
    if a == fq.mul(b, b) and fq.pow(b, 3) != one:
        return PairClass(True, BRANCH_SQUARE)
    return PairClass(False)


def prop1_necessary(tower: FieldTower, A: Elt, B: Elt) -> bool:
    """Necessary condition: the linearized factor x^(q^2) + A*x^q + B*x is bijective.

    Equivalent to 1 + A^3 + B^3 - 3AB != 0 by the nonzero-kernel criterion.
    """
    return not has_nonzero_root_subfield_coeffs(tower.eq(1), A, B)


def count_formula(q) -> int:
    """Expected number of planar pairs: 3q - 2 - 4*gcd(3, q - 1)."""
    q = getattr(q, "q", q)
    return 3 * q - 2 - 4 * math.gcd(3, q - 1)


# ---------------------------------------------------------------------------
# the incidence pass: every pair's determinant witness at once
# ---------------------------------------------------------------------------

# (A, R) cells per chunk of the incidence pass; bounds its peak memory
_INCIDENCE_CHUNK = 1 << 20


def _lagrange_matrix(fq: Field, nodes) -> list[list[int]]:
    """The inverse Vandermonde matrix: W[i][a] is the x^i coefficient of the
    Lagrange basis polynomial that is 1 at nodes[a] and 0 at the others."""
    W = [[0] * len(nodes) for _ in nodes]
    for a, na in enumerate(nodes):
        poly, denom = [1], 1
        for b, nb in enumerate(nodes):
            if b != a:  # poly *= (x - nb)
                poly = [fq.sub(lo, fq.mul(nb, hi)) for lo, hi in zip([0] + poly, poly + [0])]
                denom = fq.mul(denom, fq.sub(na, nb))
        scale = fq.inv(denom)
        for i, c in enumerate(poly):
            W[i][a] = fq.mul(c, scale)
    return W


def _det_coefficients(tower: FieldTower, reps: np.ndarray) -> np.ndarray:
    """m with det(A, B, R) = sum m[i, j] A^i B^j for every representative R.

    Every entry of the difference matrix is affine in (A, B), so the
    determinant has total degree <= 3 in (A, B); interpolating it on the 4 x 4
    grid of F_q nodes 0..3 recovers it exactly, and the terms of degree > 3
    must come out zero.
    """
    fq = tower.fq
    nodes = range(4)
    D = np.stack([_checked_dets(tower, a, np.array(nodes)[:, None], reps) for a in nodes])
    W = np.array(_lagrange_matrix(fq, nodes), dtype=np.int64)
    # E[i, b] = sum_a W[i, a] D[a, b], then m[i, j] = sum_b W[j, b] E[i, b]
    E = functools.reduce(fq.add_vec, (fq.mul_vec(W[:, a, None, None], D[None, a])
                                      for a in nodes))
    m = functools.reduce(fq.add_vec, (fq.mul_vec(W[None, :, b, None], E[:, None, b])
                                      for b in nodes))
    high = [(i, j) for i in range(4) for j in range(4) if i + j > 3 and m[i, j].any()]
    if high:
        raise Disagreement(f"the determinant over q = {tower.q} has nonzero "
                           f"A^i B^j coefficients with i + j > 3: {high}")
    return m


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
    and the least killing one is the witness.  F_3 has too few interpolation
    nodes, so at q = 3 the 9 pairs go through the same direct evaluation as
    ``is_planar_det``.  Otherwise, with m[i, j](R) from ``_det_coefficients``,
    the B that R kills for a given A are the F_q roots of the cubic
    sum_j (sum_i m[i, j] A^i) B^j.  B enters only c0 = T + A Y + 2 B X, and c0
    and its twists fill the diagonal, so m[0, 3](R) = 8 N(R) != 0: every
    cubic is made monic by one division and its roots are read, in chunks of
    A, from ``_cubic_root_table``; one minimum over the incidences (R, A, B)
    picks the witnesses.
    """
    fq, q = tower.fq, tower.q
    if q < 4:
        ab = np.arange(q * q)
        return _direct_witnesses(tower, ab // q, ab % q)
    reps = orbit_reps(q, tower.order_top)
    m = _det_coefficients(tower, reps)
    if not m[0, 3].all():
        raise Disagreement(f"the B^3 coefficient of the determinant over q = {q} "
                           f"vanishes at a nonzero shift")
    m = fq.mul_vec(m, fq.pow_vec(m[0, 3], q - 2))  # every cubic in B monic
    roots = _cubic_root_table(fq)
    none = tower.fq3.order
    wit = np.full(q * q, none, dtype=np.int64)
    step = max(1, _INCIDENCE_CHUNK // len(reps))
    for start in range(0, q, step):
        a = np.arange(start, min(start + step, q), dtype=np.int64)[:, None]
        powers = [1, a, fq.mul_vec(a, a)]
        powers.append(fq.mul_vec(powers[2], a))
        e0, e1, e2 = (functools.reduce(fq.add_vec, (fq.mul_vec(m[i, j], powers[i])
                                                    for i in range(4 - j)))
                      for j in range(3))
        killed = roots[(e2 * q + e1) * q + e0]
        ai, ri, slot = np.nonzero(killed < q)
        np.minimum.at(wit, a[ai, 0] * q + killed[ai, ri, slot], reps[ri])
    wit[wit == none] = 0
    return wit


# ---------------------------------------------------------------------------
# the scanner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairRecord:
    """Per-pair scan outcome; A, B, witness are canonical codes."""

    A: int
    B: int
    verdicts: dict
    branch: str | None
    witness: int | None


@dataclass
class ScanReport:
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

    def planar_pairs(self) -> list[tuple[int, int]]:
        method = _authority(self.methods)
        return [(r.A, r.B) for r in self.pairs if r.verdicts[method]]

    def to_report_dict(self, seed: int = 0, version: str = "0") -> dict:
        """Stable-key dict for serialization; excludes wall-clock timings."""
        return {
            "meta": {"p": self.p, "m": self.m, "q": self.q, "seed": seed,
                     "version": version},
            "pairs": [
                {"A": r.A, "B": r.B,
                 "verdicts": {m: r.verdicts.get(m) for m in ALL_METHODS},
                 "branch": r.branch, "witness": r.witness}
                for r in self.pairs
            ],
            "summary": {
                "planar_count": self.planar_count,
                "expected_count": self.expected_count,
                "disagreements": [list(d) for d in self.disagreements],
                "beyond_theorem": [list(d) for d in self.beyond_theorem],
            },
        }


def _authority(methods) -> str:
    # definition-level methods outrank the closed form when counting
    for m in (METHOD_BRUTE, METHOD_DET, METHOD_THEOREM):
        if m in methods:
            return m
    raise ValueError("no methods given")


def _scan_chunk(args):
    tower, pairs, methods = args
    out = []
    for a_code, b_code, witness in pairs:
        A, B = tower.eq(a_code), tower.eq(b_code)
        verdicts = {}
        branch = None
        if METHOD_THEOREM in methods:
            cls = classify_pair(tower, A, B)
            verdicts[METHOD_THEOREM] = cls.planar
            branch = cls.branch
        if METHOD_DET in methods:
            verdicts[METHOD_DET] = witness is None
        if METHOD_BRUTE in methods:
            verdicts[METHOD_BRUTE] = brute_is_planar(f_poly(tower, A, B))
        out.append(PairRecord(a_code, b_code, verdicts, branch, witness))
    return out


def scan(tower: FieldTower, methods=(METHOD_THEOREM, METHOD_DET),
         workers: int = 1) -> ScanReport:
    """Run the requested deciders on every (A, B) in F_q x F_q.

    The determinant verdicts and witnesses come from one ``det_witnesses``
    pass in this process; the closed form and brute run per pair.  Pairs are
    processed in code order (results are merged back into that order
    whatever the worker count, so reports are bit-stable); at most
    min(workers, q^2, CPU count) processes run.  Hard
    disagreements are mismatches between exact deciders anywhere, or between
    the closed form and an exact decider for q > 3; at q = 3 the closed form
    is only required to be a lower bound, and exact-planar pairs it misses
    are reported separately in ``beyond_theorem``.  ``timings`` holds the
    seconds of the incidence pass (``det``), of the per-pair loop
    (``pairs``) and of the whole scan (``scan``).
    """
    requested = tuple(methods)
    unknown = [m for m in requested if m not in ALL_METHODS]
    if unknown:
        raise ValueError(f"unknown methods: {unknown}")
    methods = tuple(m for m in ALL_METHODS if m in requested)
    if not methods:
        raise ValueError("at least one method required")
    q = tower.q
    start = time.perf_counter()
    witnesses = det_witnesses(tower).tolist() if METHOD_DET in methods else [0] * (q * q)
    timings = {"det": time.perf_counter() - start}
    pairs = [(a, b, witnesses[a * q + b] or None) for a in range(q) for b in range(q)]
    # more processes than pairs or CPUs would only wait
    workers = min(workers, len(pairs), os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing as mp

        chunks = [pairs[i::workers] for i in range(workers)]
        with mp.Pool(workers) as pool:
            results = pool.map(_scan_chunk, [(tower, c, methods) for c in chunks])
        records = [r for chunk in results for r in chunk]
        records.sort(key=lambda r: (r.A, r.B))
    else:
        records = _scan_chunk((tower, pairs, methods))
    timings["scan"] = time.perf_counter() - start
    timings["pairs"] = timings["scan"] - timings["det"]

    exact = [m for m in (METHOD_DET, METHOD_BRUTE) if m in methods]
    disagreements = []
    beyond = []
    for r in records:
        v = r.verdicts
        hard = False
        if len(exact) == 2 and v[METHOD_DET] != v[METHOD_BRUTE]:
            hard = True
        if METHOD_THEOREM in methods and exact:
            ex = v[exact[0]]
            if q > 3 and v[METHOD_THEOREM] != ex:
                hard = True
            elif q == 3:
                if v[METHOD_THEOREM] and not ex:
                    hard = True
                elif ex and not v[METHOD_THEOREM]:
                    beyond.append((r.A, r.B))
        if hard:
            disagreements.append((r.A, r.B))

    authority = _authority(methods)
    planar_count = sum(1 for r in records if r.verdicts[authority])
    return ScanReport(
        p=tower.p, m=tower.m, q=q, methods=methods, pairs=records,
        planar_count=planar_count, expected_count=count_formula(q),
        disagreements=disagreements, beyond_theorem=beyond, timings=timings,
    )
