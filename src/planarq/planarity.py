"""Planarity deciders, the closed-form classifier, and the (A, B) scanner.

A polynomial f on a finite field is planar when every difference map
x -> f(x + a) - f(x), a != 0, permutes the field.  Three deciders coexist:

  * ``brute_is_planar`` -- the definition, checked with hit counts; works for
    any sparse polynomial over any field within the enumeration budget.
  * ``is_planar_det``   -- for the quadratic family only: sweeps the
    determinant of the difference map's coefficient matrix over all shifts.
  * ``classify_pair``   -- the closed-form three-branch criterion in F_q.

``scan`` runs any subset of the deciders over all q^2 pairs (A, B) and
reports verdicts, disagreements, and the planar count against the expected
3q - 2 - 4*gcd(3, q-1).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import LevelMismatch, SizeLimit
from .gf import Elt, Field, FieldTower
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
        if f.order > f.enum_bound():
            raise SizeLimit(f"value table needs |F| <= bound, got {f.order}")
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

    For each nonzero shift a, tabulates f(x+a) - f(x) over all x and demands
    all |F| values be distinct; stops at the first failing shift.
    """
    f = poly.field
    n = f.order
    ftab = poly.value_table()  # raises SizeLimit beyond the enumeration bound
    addtab = f.add_index_table()
    codes = np.arange(n, dtype=np.int64)
    for a in range(1, n):
        shifted = ftab[addtab[a]] if addtab is not None else ftab[f.add_vec(codes, a)]
        diffs = f.sub_vec(shifted, ftab)
        if np.bincount(diffs, minlength=n).max() != 1:
            return False
    return True


def _dets_at(tower: FieldTower, a_codes, b_codes, c_codes) -> np.ndarray:
    """Difference-matrix determinants, fully vectorized over (A, B, C) triples."""
    f = tower.fq3
    if f.order > f.enum_bound():
        raise SizeLimit(f"determinant sweep needs q^3 <= bound, got {f.order}")
    F1 = f.frob_table(1)
    F2 = f.frob_table(2)
    X = np.asarray(c_codes, dtype=np.int64)
    Y = F1[X]
    T = F2[X]
    a = np.asarray(a_codes, dtype=np.int64)
    twob = tower.fq.add_vec(b_codes, b_codes)
    c0 = f.add_vec(T, f.add_vec(f.mul_vec(a, Y), f.mul_vec(twob, X)))
    c1 = f.mul_vec(a, X)
    c2 = X
    c0q, c1q, c2q = F1[c0], F1[c1], F1[c2]
    c0q2, c1q2, c2q2 = F2[c0], F2[c1], F2[c2]
    # rows: (c0, c1, c2), (c2q, c0q, c1q), (c1q2, c2q2, c0q2)
    m1 = f.sub_vec(f.mul_vec(c0q, c0q2), f.mul_vec(c1q, c2q2))
    m2 = f.sub_vec(f.mul_vec(c2q, c0q2), f.mul_vec(c1q, c1q2))
    m3 = f.sub_vec(f.mul_vec(c2q, c2q2), f.mul_vec(c0q, c1q2))
    det = f.sub_vec(f.mul_vec(c0, m1), f.mul_vec(c1, m2))
    return f.add_vec(det, f.mul_vec(c2, m3))


def _det_sweep(tower: FieldTower, a_code: int, b_code: int) -> np.ndarray:
    """Determinants for one pair over every shift C != 0, in code order."""
    return _dets_at(tower, a_code, b_code, np.arange(1, tower.fq3.order, dtype=np.int64))


def is_planar_det(tower: FieldTower, A: Elt, B: Elt) -> tuple[bool, Elt | None]:
    """Planarity via the shift sweep: no nonzero C may kill the determinant.

    When not planar, also returns the witness: the first root C in code order.
    """
    if A.field != tower.fq or B.field != tower.fq:
        raise LevelMismatch("A and B must live in F_q")
    dets = _det_sweep(tower, A.code, B.code)
    roots = np.flatnonzero(dets == 0)
    if roots.size == 0:
        return True, None
    return False, Elt(tower.fq3, int(roots[0]) + 1)


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
    for a_code, b_code in pairs:
        A, B = tower.eq(a_code), tower.eq(b_code)
        verdicts = {}
        branch = None
        witness = None
        if METHOD_THEOREM in methods:
            cls = classify_pair(tower, A, B)
            verdicts[METHOD_THEOREM] = cls.planar
            branch = cls.branch
        if METHOD_DET in methods:
            ok, wit = is_planar_det(tower, A, B)
            verdicts[METHOD_DET] = ok
            witness = None if wit is None else wit.code
        if METHOD_BRUTE in methods:
            verdicts[METHOD_BRUTE] = brute_is_planar(f_poly(tower, A, B))
        out.append(PairRecord(a_code, b_code, verdicts, branch, witness))
    return out


def scan(tower: FieldTower, methods=(METHOD_THEOREM, METHOD_DET),
         workers: int = 1) -> ScanReport:
    """Run the requested deciders on every (A, B) in F_q x F_q.

    Pairs are processed in code order (results are merged back into that
    order whatever the worker count, so reports are bit-stable); at most
    min(workers, q^2, CPU count) processes run.  Hard
    disagreements are mismatches between exact deciders anywhere, or between
    the closed form and an exact decider for q > 3; at q = 3 the closed form
    is only required to be a lower bound, and exact-planar pairs it misses
    are reported separately in ``beyond_theorem``.
    """
    requested = tuple(methods)
    unknown = [m for m in requested if m not in ALL_METHODS]
    if unknown:
        raise ValueError(f"unknown methods: {unknown}")
    methods = tuple(m for m in ALL_METHODS if m in requested)
    if not methods:
        raise ValueError("at least one method required")
    q = tower.q
    pairs = [(a, b) for a in range(q) for b in range(q)]
    timings: dict[str, float] = {}
    start = time.perf_counter()
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
