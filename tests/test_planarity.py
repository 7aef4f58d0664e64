"""Deciders, classifier, counting formula, and the pair scanner."""

import json
import random

import numpy as np
import pytest
from conftest import det_sweep

from planarq import SizeLimit, build_tower
from planarq.gf import _mult_order, orbit_reps, prime_ext_field
from planarq.curves import build_F_det, count_nonzero_fq_zeros, find_linear_factors
from planarq.linearized import brute_kernel, difference_triple
from planarq.planarity import (
    _dets_at,
    BRANCH_B_ZERO,
    BRANCH_CUBIC,
    BRANCH_SQUARE,
    SparsePoly,
    brute_is_planar,
    classify_pair,
    count_formula,
    det_witnesses,
    f_poly,
    is_planar_det,
    prop1_necessary,
    scan,
)

Q5_PLANAR = {(0, 0), (1, 0), (2, 0), (3, 0), (1, 4), (2, 1), (3, 3), (4, 2), (4, 3)}


def test_sparse_poly_reduction_and_eval(towers):
    f = towers[5].fq3
    p = SparsePoly(f, {1: 1, 125: 1})  # x^125 reduces to x as a function
    assert p.terms == {1: 2}
    p2 = SparsePoly(f, {130: 3})
    assert p2.terms == {6: 3}
    tab = p2.value_table()
    assert tab[17] == f.mul(3, f.pow(17, 130))
    assert tab[17] == f.mul(3, f.pow(17, 6))


def test_f_poly_terms(towers):
    t = towers[5]
    p = f_poly(t, t.eq(0), t.eq(0))
    assert p.terms == {26: 1}
    p = f_poly(t, t.eq(0), t.eq(1))
    assert p.terms == {26: 1, 2: 1}
    p = f_poly(t, t.eq(2), t.eq(3))
    assert p.terms == {26: 1, 6: 2, 2: 3}


def test_difference_map_is_the_linearized_triple(towers):
    # f(x + C) - f(x) - f(C) agrees with the linearized coefficient triple;
    # this pins the x^2 reading of the B-term
    t = towers[5]
    f = t.fq3
    rng = random.Random(2)
    for _ in range(50):
        A, B = t.eq(rng.randrange(5)), t.eq(rng.randrange(5))
        C = t.eq3(rng.randrange(1, 125))
        tab = f_poly(t, A, B).value_table()
        L = difference_triple(t, A, B, C)
        xs = np.arange(f.order)
        lhs = f.sub_vec(f.sub_vec(tab[f.add_vec(xs, C.code)], tab), tab[C.code])
        assert np.array_equal(lhs, L.apply(xs))


def test_brute_examples(towers):
    t27 = towers[3]
    assert brute_is_planar(SparsePoly(t27.fq3, {2: 1}))       # x^2 over F_27
    assert not brute_is_planar(SparsePoly(t27.fq3, {3: 1}))   # x^3: constant diffs
    t = towers[5]
    assert brute_is_planar(f_poly(t, t.eq(2), t.eq(1)))


def _count_shifts(monkeypatch):
    """Record one entry per ``np.bincount`` call: brute counts the hits of
    each swept shift's difference map once, and makes no other call."""
    calls, real = [], np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    return calls


@pytest.mark.parametrize("q, s", [(3, 3), (5, 5), (9, 3), (9, 9), (25, 25)],
                         ids=["F27", "F125", "F729", "F729-s9", "F15625-s25"])
def test_orbit_reps_cover_every_nonzero_code_once(towers, q, s):
    f = towers[q].fq3
    reps = orbit_reps(s, f.order)
    assert len(reps) == (f.order - 1) // (s - 1)
    multiples = np.concatenate([f.mul_vec(lam, reps) for lam in range(1, s)])
    assert np.array_equal(np.sort(multiples), np.arange(1, f.order))


@pytest.mark.parametrize("q", [5, 9])
def test_brute_equals_the_full_sweep_on_every_pair(towers, q):
    t = towers[q]
    f = t.fq3
    # every shift a != 0, with x + a and u - v read from whole-field tables
    codes = np.arange(f.order)
    addtab = f.add_vec(codes[:, None], codes)
    subtab = f.sub_vec(codes[:, None], codes)

    def full_sweep(poly):
        ftab = poly.value_table()
        return all(np.bincount(subtab[ftab[addtab[a]], ftab]).max() == 1
                   for a in range(1, f.order))

    for a in range(q):
        for b in range(q):
            poly = f_poly(t, t.eq(a), t.eq(b))
            assert brute_is_planar(poly) == full_sweep(poly)


# (p, n): {terms: planar}.  Brute's chunks have 3, 2 and 1 base-p digits
# at p = 3, 5 and 23, so the codes of F_{3^7} split 3+3+1, of F_{5^5}
# 2+2+1, of F_9 into one short chunk, and of F_{23^2} 1+1.  Each field has
# a planar and a non-planar polynomial on each sweep path: homogeneous (one
# shift per F_p^* orbit) and, with the x term, not (every shift).
_CHUNKED = {
    (3, 7): {(2,): True, (14,): True, (8,): False, (2, 1): True, (8, 1): False},
    (5, 5): {(2,): True, (14,): False, (2, 1): True, (14, 1): False},
    (3, 2): {(2,): True, (4,): False, (2, 1): True, (4, 1): False},
    (23, 2): {(2,): True, (24,): False, (2, 1): True, (24, 1): False},
}


@pytest.mark.parametrize("p, n", list(_CHUNKED), ids=["F3^7", "F5^5", "F3^2", "F23^2"])
def test_brute_equals_the_full_sweep_on_chunked_fields(p, n):
    f = prime_ext_field(p, n)
    # every shift a != 0, with x + a and u - v = u + (-v) read from a
    # whole-field addition table, built a block of rows at a time
    codes = np.arange(f.order)
    blocks = np.array_split(codes, -(-f.order // 64))
    addtab = np.concatenate([f.add_vec(b[:, None], codes).astype(np.int16) for b in blocks])
    neg = f.sub_vec(0, codes)

    def full_sweep(poly):
        ftab = poly.value_table()
        return all(np.bincount(addtab[ftab[addtab[a]], neg[ftab]]).max() == 1
                   for a in range(1, f.order))

    for terms, planar in _CHUNKED[p, n].items():
        poly = SparsePoly(f, dict.fromkeys(terms, 1))
        assert brute_is_planar(poly) == full_sweep(poly) == planar, terms


def test_base_field_generator_is_the_least_generator():
    # brute's generator of F_s^*: the least code whose order is s - 1
    for p, n in ((3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (31, 1), (101, 1),
                 (251, 1), (3, 2), (5, 2), (3, 3)):
        base = prime_ext_field(p, n)
        s = base.order
        g = next(c for c in range(1, s) if _mult_order(base, c) == s - 1)
        assert {base.pow(g, k) for k in range(s - 1)} == set(range(1, s))
        assert all(len({base.pow(h, k) for k in range(s - 1)}) < s - 1 for h in range(1, g))


def test_brute_sweeps_one_shift_per_orbit_when_homogeneous(monkeypatch):
    f = prime_ext_field(3, 7)
    calls = _count_shifts(monkeypatch)
    assert brute_is_planar(SparsePoly(f, {14: 1}))   # T2.6: x^((3^3 + 1)/2)
    assert len(calls) == (f.order - 1) // 2


def test_brute_sweeps_every_shift_when_not_homogeneous(towers, monkeypatch):
    f = towers[3].fq3
    calls = _count_shifts(monkeypatch)
    # x^2 + x is planar, but f(2x) = x^2 + 2x is not 2^2 f(x)
    assert brute_is_planar(SparsePoly(f, {2: 1, 1: 1}))
    assert len(calls) == f.order - 1


@pytest.mark.parametrize("q", [9, 25])
def test_brute_sweeps_one_shift_per_fq_orbit_on_the_tower(towers, q, monkeypatch):
    # f_{A,B} has coefficients in F_q, so its F_q^* orbits decide: q^2 + q + 1 shifts
    t = towers[q]
    planar = np.flatnonzero(det_witnesses(t) == 0)
    A, B = t.eq(planar[-1] // q), t.eq(planar[-1] % q)
    assert A.code and B.code
    assert is_planar_det(t, A, B) == (True, None)
    calls = _count_shifts(monkeypatch)
    assert brute_is_planar(f_poly(t, A, B))
    assert len(calls) == q * q + q + 1


# every enumeration of a whole field or point set, given a tower at q = 5
_ENUMERATIONS = {
    "brute": lambda t: brute_is_planar(f_poly(t, t.eq(2), t.eq(1))),
    "is_planar_det": lambda t: is_planar_det(t, t.eq(2), t.eq(1)),
    "frob_table": lambda t: t.fq3.frob_table(1),
    "sqrt_code": lambda t: t.fq.sqrt_code(4),
    "brute_kernel": lambda t: brute_kernel(difference_triple(t, t.eq(1), t.eq(1), t.eq3(1))),
    "find_linear_factors": lambda t: find_linear_factors(build_F_det(t, t.eq(1), t.eq(1))),
    "point_count": lambda t: count_nonzero_fq_zeros(build_F_det(t, t.eq(1), t.eq(1))),
}


@pytest.mark.parametrize("site", list(_ENUMERATIONS))
def test_enumeration_size_limit(monkeypatch, site):
    # the tower is built under the default bound; each enumeration reads the
    # bound again when it runs, and under 4 no field of the tower fits
    t = build_tower(5, 1)
    monkeypatch.setenv("PLANARQ_MAX_Q3", "4")
    with pytest.raises(SizeLimit):
        _ENUMERATIONS[site](t)
    monkeypatch.delenv("PLANARQ_MAX_Q3")
    _ENUMERATIONS[site](t)


def test_det_decider_examples(towers):
    t = towers[5]
    ok, wit = is_planar_det(t, t.eq(2), t.eq(1))
    assert ok and wit is None
    ok, wit = is_planar_det(t, t.eq(1), t.eq(1))
    assert not ok and wit is not None
    # the (1,1) curve is the trace-line cube, so every witness is trace-zero
    f = t.fq3
    tr = f.add(wit.code, f.add(f.frob(wit.code, 1), f.frob(wit.code, 2)))
    assert tr == 0
    # first root in code order
    dets = det_sweep(t, 1, 1)
    assert wit.code == int(np.flatnonzero(dets == 0)[0]) + 1


def test_det_decider_degenerate_q3(towers):
    # q=3, A=2: A^3 = -1, the determinant vanishes identically
    t = towers[3]
    ok, wit = is_planar_det(t, t.eq(2), t.eq(0))
    assert not ok
    assert wit.code == 1


def test_classify_examples(towers):
    t = towers[5]
    assert classify_pair(t, t.eq(0), t.eq(0)).branch == BRANCH_B_ZERO
    c = classify_pair(t, t.eq(2), t.eq(1))
    assert c.planar and c.branch == BRANCH_CUBIC
    assert classify_pair(t, t.eq(4), t.eq(2)).branch == BRANCH_SQUARE
    assert not classify_pair(t, t.eq(1), t.eq(1)).planar
    assert not classify_pair(t, t.eq(4), t.eq(0)).planar  # 4^3 = -1 mod 5
    assert classify_pair(t, t.eq(0), t.eq(0)).verdict == "Planar"


def test_prop_necessary(towers):
    t = towers[5]
    assert prop1_necessary(t, t.eq(0), t.eq(0))
    assert not prop1_necessary(t, t.eq(1), t.eq(1))


def test_count_formula_values():
    assert count_formula(3) == 3
    assert count_formula(5) == 9
    assert count_formula(7) == 7
    assert count_formula(9) == 21
    assert count_formula(11) == 27
    assert count_formula(13) == 25
    assert count_formula(build_tower(5, 1)) == 9


def test_scan_q5_planar_set(towers):
    rep = scan(towers[5], methods=("theorem", "det", "brute"))
    assert set(rep.planar_pairs()) == Q5_PLANAR
    assert rep.planar_count == rep.expected_count == 9
    assert rep.disagreements == []


def test_scan_planar_implies_necessary(towers):
    t = towers[7]
    rep = scan(t, methods=("theorem",))
    for r in rep.pairs:
        if r.verdicts["theorem"]:
            assert prop1_necessary(t, t.eq(r.A), t.eq(r.B))


def test_scan_q3_subset_policy(towers):
    rep = scan(towers[3], methods=("theorem", "brute"))
    theorem = {(r.A, r.B) for r in rep.pairs if r.verdicts["theorem"]}
    brute = {(r.A, r.B) for r in rep.pairs if r.verdicts["brute"]}
    assert theorem == {(0, 0), (1, 0), (1, 2)}
    assert theorem <= brute
    assert rep.disagreements == []
    # pairs beyond the closed form are recorded, never silently dropped
    assert set(rep.beyond_theorem) == brute - theorem


def test_scan_q3_exact_deciders_agree(towers):
    # both exact deciders are definitional, so they agree even at q = 3
    rep = scan(towers[3], methods=("det", "brute"))
    assert rep.disagreements == []
    for r in rep.pairs:
        assert r.verdicts["det"] == r.verdicts["brute"]


def test_scan_deterministic_across_workers(towers):
    t = towers[5]
    r1 = scan(t, methods=("theorem", "det"), workers=1)
    r2 = scan(t, methods=("theorem", "det"), workers=3)
    d1 = json.dumps(r1.to_report_dict(seed=1, version="x"), sort_keys=True)
    d2 = json.dumps(r2.to_report_dict(seed=1, version="x"), sort_keys=True)
    assert d1 == d2


def test_scan_witnesses_kill_determinant(towers):
    t = towers[5]
    rep = scan(t, methods=("det",))
    from planarq.gf import det3
    from planarq.linearized import dickson_matrix

    for r in rep.pairs:
        if r.witness is not None:
            L = difference_triple(t, t.eq(r.A), t.eq(r.B), t.eq3(r.witness))
            assert det3(t.fq3, dickson_matrix(L)) == 0
        assert (r.witness is None) == r.verdicts["det"]


def test_planar_f_is_never_a_bijection(towers):
    t = towers[5]
    f = t.fq3
    for (a, b) in sorted(Q5_PLANAR):
        tab = f_poly(t, t.eq(a), t.eq(b)).value_table()
        assert len(np.unique(tab)) < f.order
        # every nonzero shift's difference map vanishes exactly once
        for shift in (1, 7, 42):
            diffs = f.sub_vec(tab[f.add_vec(np.arange(f.order), shift)], tab)
            assert int(np.count_nonzero(diffs == 0)) == 1


def test_scan_rejects_unknown_methods(towers):
    with pytest.raises(ValueError):
        scan(towers[5], methods=())


@pytest.mark.parametrize("p, m", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1)],
                         ids=lambda v: str(v))
def test_scan_det_equals_the_shift_sweep_on_every_pair(p, m, monkeypatch):
    t = build_tower(p, m)
    sweep = {}
    for a in range(t.q):
        for b in range(t.q):
            roots = np.flatnonzero(det_sweep(t, a, b) == 0)
            sweep[(a, b)] = (True, None) if roots.size == 0 else (False, int(roots[0]) + 1)
            ok, wit = is_planar_det(t, t.eq(a), t.eq(b))
            assert (ok, None if wit is None else wit.code) == sweep[(a, b)]
    # the scan reads the incidence pass only: it makes no per-pair call
    monkeypatch.setattr("planarq.planarity.is_planar_det", None)
    for r in scan(t, methods=("det",)).pairs:
        assert (r.verdicts["det"], r.witness) == sweep[(r.A, r.B)]


@pytest.mark.parametrize("p, m", [(5, 2), (3, 3)], ids=["q25", "q27"])
def test_incidence_scan_on_larger_towers(p, m):
    t = build_tower(p, m)
    q = t.q
    wit = det_witnesses(t)
    planar = wit == 0
    assert int(planar.sum()) == count_formula(q)
    # every witness kills the determinant
    killed = np.flatnonzero(~planar)
    assert not _dets_at(t, killed // q, killed % q, wit[killed]).any()
    assert scan(t).disagreements == []
    rng = random.Random(f"incidence:{q}")
    sample = (rng.sample(sorted(np.flatnonzero(planar)), 10)
              + rng.sample(sorted(killed), 10))
    for pair in sample:
        ok, w = is_planar_det(t, t.eq(pair // q), t.eq(pair % q))
        assert (ok, 0 if w is None else w.code) == (bool(planar[pair]), int(wit[pair]))


def test_scan_timings_stay_out_of_the_report(towers):
    rep = scan(towers[5])
    assert set(rep.timings) == {"det", "pairs", "scan"}
    assert "timings" not in json.dumps(rep.to_report_dict())
