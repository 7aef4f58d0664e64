"""Deciders, classifier, counting formula, and the pair scanner."""

import json
import random

import numpy as np
import pytest
from conftest import check_det_coefficients, check_det_deciders_agree, det_sweep

import planarq.planarity as planarity
from planarq import SizeLimit, build_tower
from planarq.gf import (PrimeField, _decode, _generator, _mult_order, find_normal_element,
                        frob_orbit_reps, orbit_reps, prime_ext_field)
from planarq.curves import _evaluate, build_F_det, count_nonzero_fq_zeros, find_linear_factors
from planarq.identities import run_identities
from planarq.linearized import brute_kernel, difference_triple, kernel_sizes
from planarq.planarity import (
    ALL_METHODS,
    _dets_at,
    _f_table,
    _pair_cubic,
    _monomial_tables,
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
    # repeated exponents among (exponent, code) pairs are added, as reduced ones are
    F5 = towers[5].fq
    assert SparsePoly(F5, [(2, 1), (2, 1)]).terms == {2: 2}
    assert SparsePoly(F5, [(2, 1), (3, 1), (2, 4)]).terms == {3: 1}  # 1 + 4 = 0


def test_f_poly_terms(towers):
    t = towers[5]
    p = f_poly(t, 0, 0)
    assert p.terms == {26: 1}
    p = f_poly(t, 0, 1)
    assert p.terms == {26: 1, 2: 1}
    p = f_poly(t, 2, 3)
    assert p.terms == {26: 1, 6: 2, 2: 3}


def test_difference_map_is_the_linearized_triple(towers):
    # f(x + C) - f(x) - f(C) agrees with the linearized coefficient triple;
    # this pins the x^2 reading of the B-term
    t = towers[5]
    f = t.fq3
    rng = random.Random(2)
    for _ in range(50):
        A, B = rng.randrange(5), rng.randrange(5)
        C = rng.randrange(1, 125)
        tab = f_poly(t, A, B).value_table()
        c0, c1, c2 = difference_triple(t, A, B, C)
        xs = np.arange(f.order)
        lhs = f.sub_vec(f.sub_vec(tab[f.add_vec(xs, C)], tab), tab[C])
        rhs = f.add_vec(f.add_vec(f.mul_vec(c0, xs), f.mul_vec(c1, f.frob_table(1))),
                        f.mul_vec(c2, f.frob_table(2)))
        assert np.array_equal(lhs, rhs)


def test_brute_examples(towers):
    t27 = towers[3]
    assert brute_is_planar(SparsePoly(t27.fq3, {2: 1}))       # x^2 over F_27
    assert not brute_is_planar(SparsePoly(t27.fq3, {3: 1}))   # x^3: constant diffs
    t = towers[5]
    assert brute_is_planar(f_poly(t, 2, 1))


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


def _orbits(f):
    """The orbits of F^* under scaling by F_s^* and x -> x^s, F_s the field f
    was built over, each the union of lambda * sigma^i(a) by ``Field.mul``
    and ``Field.frob``."""
    s, d = (f.base or f).order, f.degree
    seen, orbits = set(), []
    for a in range(1, f.order):
        if a not in seen:
            orbit = {f.mul(lam, f.frob(a, i)) for lam in range(1, s) for i in range(d)}
            seen |= orbit
            orbits.append(orbit)
    return orbits


@pytest.mark.parametrize("q", [3, 5, 9], ids=["F27", "F125", "F729"])
def test_frob_orbit_reps_are_the_least_code_of_each_orbit(towers, q):
    f = towers[q].fq3
    orbits = _orbits(f)
    assert sum(map(len, orbits)) == f.order - 1  # each nonzero code in exactly one
    reps = frob_orbit_reps(f)
    assert reps.tolist() == sorted(min(o) for o in orbits)


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
            poly = f_poly(t, a, b)
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
    # brute's generator of F_s^*, and the kernel counter's of F_{q^3}^*: the
    # least code whose order is s - 1
    fields = [prime_ext_field(p, n) for p, n in ((3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
                                                 (17, 1), (31, 1), (101, 1), (251, 1),
                                                 (3, 2), (5, 2), (3, 3))]
    fields += [build_tower(p, m).fq3 for p, m in ((7, 1), (3, 2), (5, 2))]  # over F_q
    for base in fields:
        s = base.order
        g = next(c for c in range(1, s) if _mult_order(base, c) == s - 1)
        assert _generator(base) == g
        if s <= 251:  # the power sets check _mult_order itself, on the smaller fields
            assert {base.pow(g, k) for k in range(s - 1)} == set(range(1, s))
            assert all(len({base.pow(h, k) for k in range(s - 1)}) < s - 1
                       for h in range(1, g))


def test_brute_sweeps_one_shift_per_orbit_when_homogeneous(monkeypatch):
    f = prime_ext_field(3, 7)
    calls = _count_shifts(monkeypatch)
    assert brute_is_planar(SparsePoly(f, {14: 1}))   # T2.6: x^((3^3 + 1)/2)
    assert len(calls) == len(_orbits(f)) == 157


def test_brute_sweeps_every_shift_when_not_homogeneous(towers, monkeypatch):
    f = towers[3].fq3
    calls = _count_shifts(monkeypatch)
    # x^2 + x is planar, but f(2x) = x^2 + 2x is not 2^2 f(x)
    assert brute_is_planar(SparsePoly(f, {2: 1, 1: 1}))
    assert len(calls) == f.order - 1


def test_brute_checks_the_homogeneity_gate():
    # 4x^4 + x^3 + 2x^2 + 3x over F_5 is not planar, yet its difference map at
    # 1, the one shift of orbit_reps and frob_orbit_reps on F_5, is a
    # bijection: a sweep that skipped the homogeneity gate would call it planar
    f = PrimeField(5)
    poly = SparsePoly(f, {4: 4, 3: 1, 2: 2, 1: 3})
    ftab, codes = poly.value_table(), np.arange(5)
    assert orbit_reps(5, 5).tolist() == frob_orbit_reps(f).tolist() == [1]
    images = {a: set(f.sub_vec(ftab[f.add_vec(codes, a)], ftab).tolist()) for a in range(1, 5)}
    assert [a for a in images if len(images[a]) == 5] == [1, 4]
    assert not brute_is_planar(poly)


@pytest.mark.parametrize("q", [9, 25])
def test_brute_sweeps_one_shift_per_fq_orbit_on_the_tower(towers, q, monkeypatch):
    # f_{A,B} has coefficients in F_q, so the orbits of F_q^* scaling and
    # x -> x^q decide: 31 shifts at q = 9 and 219 at q = 25
    t = towers[q]
    planar = np.flatnonzero(det_witnesses(t) == 0)
    A, B = planar[-1] // q, planar[-1] % q
    assert A and B
    assert is_planar_det(t, A, B) == (True, None)
    expected = len(_orbits(t.fq3))
    calls = _count_shifts(monkeypatch)
    assert brute_is_planar(f_poly(t, A, B))
    assert len(calls) == expected == {9: 31, 25: 219}[q]


def test_brute_sweeps_every_fq_orbit_when_a_coefficient_is_outside_fq(towers, monkeypatch):
    # x -> lam x takes the planar f_{A,B} to lam^(q^2+1) times
    # x^(q^2+1) + A lam^(q-q^2) x^(q+1) + B lam^(1-q^2) x^2, still planar and
    # homogeneous over F_q.  For a generator lam of F_{q^3}^* the x^2
    # coefficient is outside F_q, so the polynomial does not commute with
    # x -> x^q, and every one of the q^2 + q + 1 F_q^* orbits is swept
    t = towers[7]
    f, q = t.fq3, t.q
    A, B = 2, 3
    assert is_planar_det(t, A, B) == (True, None)
    lam = next(c for c in range(2, f.order) if _mult_order(f, c) == f.order - 1)
    a, b = f.mul(A, f.pow(lam, q - q * q)), f.mul(B, f.pow(lam, 1 - q * q))
    assert b >= q
    poly = SparsePoly(f, {q * q + 1: 1, q + 1: a, 2: b})
    calls = _count_shifts(monkeypatch)
    assert brute_is_planar(poly)
    assert len(calls) == q * q + q + 1


def test_brute_checks_the_frobenius_gate():
    # homogeneous over F_3 (even exponents) with coefficients outside F_3: not
    # planar, but every difference map at a rep of frob_orbit_reps is a
    # bijection, so a sweep of those shifts alone would call it planar
    f = prime_ext_field(3, 3)
    poly = SparsePoly(f, {10: 19, 4: 1, 2: 5})
    tab, codes = poly.value_table(), np.arange(f.order)
    bijective = [len(set(f.sub_vec(tab[f.add_vec(codes, a)], tab).tolist())) == f.order
                 for a in range(1, f.order)]
    assert not all(bijective)
    assert all(bijective[a - 1] for a in frob_orbit_reps(f))
    assert not brute_is_planar(poly)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_monomial_tables_give_every_value_table(towers, q):
    t = towers[q]
    monomials = _monomial_tables(t)
    for A in range(q):
        for B in range(q):
            assert np.array_equal(_f_table(t, monomials, A, B), f_poly(t, A, B).value_table())


def test_only_brute_scans_build_the_sweep_tables(towers, monkeypatch):
    built = []
    real = _monomial_tables
    monkeypatch.setattr("planarq.planarity._monomial_tables",
                        lambda t: built.append(t) or real(t))
    scan(towers[5], methods=("theorem", "det"))
    assert built == []
    # one chunk of pairs, one set of tables
    assert scan(towers[5], methods=("det", "brute")).brute_shifts > 0
    assert built == [towers[5]]


# every enumeration of a whole field or point set, given a tower at q = 5
_ENUMERATIONS = {
    "brute": lambda t: brute_is_planar(f_poly(t, 2, 1)),
    "is_planar_det": lambda t: is_planar_det(t, 2, 1),
    "frob_table": lambda t: t.fq3.frob_table(1),
    "sqrt_code": lambda t: t.fq.sqrt_code(4),
    "brute_kernel": lambda t: brute_kernel(t.fq3, *difference_triple(t, 1, 1, 1)),
    "kernel_sizes": lambda t: kernel_sizes(t.fq3, [1], [0], [0]),
    "find_normal_element": find_normal_element,
    "det_witnesses": det_witnesses,
    "identities": lambda t: run_identities(t, samples=3),
    "find_linear_factors": lambda t: find_linear_factors(t.fq, build_F_det(t, 1, 1)),
    "point_count": lambda t: count_nonzero_fq_zeros(t.fq, build_F_det(t, 1, 1)),
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
    ok, wit = is_planar_det(t, 2, 1)
    assert ok and wit is None
    ok, wit = is_planar_det(t, 1, 1)
    assert not ok and wit is not None
    # the (1,1) curve is the trace-line cube, so every witness is trace-zero
    f = t.fq3
    tr = f.add(wit, f.add(f.frob(wit, 1), f.frob(wit, 2)))
    assert tr == 0
    # first root in code order
    dets = det_sweep(t, 1, 1)
    assert wit == int(np.flatnonzero(dets == 0)[0]) + 1


def test_det_decider_degenerate_q3(towers):
    # q=3, A=2: A^3 = -1, the determinant vanishes identically
    t = towers[3]
    ok, wit = is_planar_det(t, 2, 0)
    assert not ok
    assert wit == 1


def _bilinear_sides(t, A, B, C, X):
    """D_C(x) = f(x + C) - f(x) - f(C) at the codes C, X, straight from the
    value table of f, and sum_(l, j) c_l x_j D_(e_l)(e_j) over the F_q digits
    c_l of C and x_j of X, e_l the basis codes q^l."""
    f, fq, q = t.fq3, t.fq, t.q
    tab = f_poly(t, A, B).value_table()
    lhs = f.sub_vec(f.sub_vec(tab[f.add_vec(C, X)], tab[X]), tab[C])
    e = [q ** l for l in range(3)]
    c, x = _decode(C, q, 3), _decode(X, q, 3)
    rhs = np.zeros_like(lhs)
    for l in range(3):
        for j in range(3):
            basis = f.sub(f.sub(int(tab[f.add(e[l], e[j])]), int(tab[e[l]])), int(tab[e[j]]))
            rhs = f.add_vec(rhs, f.mul_vec(fq.mul_vec(c[l], x[j]), basis))
    return lhs, rhs


@pytest.mark.parametrize("q", [3, 5])
def test_difference_map_is_bilinear_on_every_pair_and_point(towers, q):
    t = towers[q]
    C, X = (v.ravel() for v in np.meshgrid(np.arange(q ** 3), np.arange(q ** 3)))
    for A in range(q):
        for B in range(q):
            lhs, rhs = _bilinear_sides(t, A, B, C, X)
            assert np.array_equal(lhs, rhs), (A, B)


@pytest.mark.parametrize("q", [9, 25])
def test_difference_map_is_bilinear_on_sampled_pairs_and_points(towers, q):
    t = towers[q]
    rng = np.random.default_rng(q)
    for A, B in rng.integers(0, q, size=(6, 2)).tolist():
        C, X = rng.integers(0, q ** 3, size=(2, 4000))
        lhs, rhs = _bilinear_sides(t, A, B, C, X)
        assert np.array_equal(lhs, rhs), (A, B)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_matrix_dets_equal_the_dickson_dets_at_every_representative(towers, q):
    # each pair's cubic in the shift's F_q digits, as is_planar_det evaluates it
    t = towers[q]
    reps = orbit_reps(q, t.order_top)
    digits = _decode(reps, q, 3)
    for A in range(q):
        for B in range(q):
            dets = _evaluate(t.fq, _pair_cubic(t, A, B), *digits)
            assert np.array_equal(dets, _dets_at(t, A, B, reps)), (A, B)


def test_is_planar_det_equals_det_witnesses_on_every_pair_q25(towers):
    check_det_deciders_agree(towers[25])


def test_is_planar_det_reads_the_bound_after_its_tensor_is_cached(monkeypatch):
    t = build_tower(5, 1)
    assert is_planar_det(t, 2, 1) == (True, None)
    assert "det_table" in t.fq3._cache
    monkeypatch.setenv("PLANARQ_MAX_Q3", "4")
    with pytest.raises(SizeLimit):
        is_planar_det(t, 2, 1)


def test_classify_examples(towers):
    t = towers[5]
    assert classify_pair(t, 0, 0).branch == BRANCH_B_ZERO
    c = classify_pair(t, 2, 1)
    assert c.planar and c.branch == BRANCH_CUBIC
    assert classify_pair(t, 4, 2).branch == BRANCH_SQUARE
    assert not classify_pair(t, 1, 1).planar
    assert not classify_pair(t, 4, 0).planar  # 4^3 = -1 mod 5
    assert classify_pair(t, 0, 0).verdict == "Planar"


@pytest.mark.parametrize("q", [3, 5, 9, 25])
def test_scan_closed_form_is_classify_pair(towers, q):
    # the array pass of _branches in scan against its one-pair wrapper
    t = towers[q]
    rep = scan(t, methods=("theorem",))
    assert [(r["A"], r["B"]) for r in rep.pairs] == [(a, b) for a in range(q) for b in range(q)]
    for r in rep.pairs:
        cls = classify_pair(t, r["A"], r["B"])
        assert (r["verdicts"]["theorem"], r["branch"]) == (cls.planar, cls.branch)


def test_prop_necessary(towers):
    t = towers[5]
    assert prop1_necessary(t, 0, 0)
    assert not prop1_necessary(t, 1, 1)


def test_count_formula_values():
    assert count_formula(3) == 3
    assert count_formula(5) == 9
    assert count_formula(7) == 7
    assert count_formula(9) == 21
    assert count_formula(11) == 27
    assert count_formula(13) == 25


def test_scan_q5_planar_set(towers):
    rep = scan(towers[5], methods=("theorem", "det", "brute"))
    assert {(r["A"], r["B"]) for r in rep.pairs if r["verdicts"]["brute"]} == Q5_PLANAR
    assert rep.planar_count == rep.expected_count == 9
    assert rep.disagreements == []


def test_scan_planar_implies_necessary(towers):
    t = towers[7]
    rep = scan(t, methods=("theorem",))
    for r in rep.pairs:
        if r["verdicts"]["theorem"]:
            assert prop1_necessary(t, r["A"], r["B"])


def test_scan_q3_subset_policy(towers):
    rep = scan(towers[3], methods=("theorem", "brute"))
    theorem = {(r["A"], r["B"]) for r in rep.pairs if r["verdicts"]["theorem"]}
    brute = {(r["A"], r["B"]) for r in rep.pairs if r["verdicts"]["brute"]}
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
        assert r["verdicts"]["det"] == r["verdicts"]["brute"]


def test_scan_deterministic_across_workers(towers):
    t = towers[5]
    r1 = scan(t, methods=("theorem", "det"), workers=1)
    r2 = scan(t, methods=("theorem", "det"), workers=3)
    d1 = json.dumps(r1.to_report_dict(seed=1, version="x"), sort_keys=True)
    d2 = json.dumps(r2.to_report_dict(seed=1, version="x"), sort_keys=True)
    assert d1 == d2


def test_brute_scan_is_the_same_across_workers(towers):
    t = towers[5]
    r1 = scan(t, methods=ALL_METHODS, workers=1)
    r2 = scan(t, methods=ALL_METHODS, workers=2)
    assert r1.to_report_dict() == r2.to_report_dict()
    assert r1.brute_shifts == r2.brute_shifts


def test_scan_witnesses_kill_determinant(towers):
    t = towers[5]
    rep = scan(t, methods=("det",))
    from planarq.gf import det3
    from planarq.linearized import dickson_matrix

    for r in rep.pairs:
        if r["witness"] is not None:
            L = difference_triple(t, r["A"], r["B"], r["witness"])
            assert det3(t.fq3, dickson_matrix(t.fq3, *L)) == 0
        assert (r["witness"] is None) == r["verdicts"]["det"]


def test_planar_f_is_never_a_bijection(towers):
    t = towers[5]
    f = t.fq3
    for (a, b) in sorted(Q5_PLANAR):
        tab = f_poly(t, a, b).value_table()
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
            ok, wit = is_planar_det(t, a, b)
            assert (ok, wit) == sweep[(a, b)]
    # the scan reads the incidence pass only: it makes no per-pair call
    monkeypatch.setattr("planarq.planarity.is_planar_det", None)
    for r in scan(t, methods=("det",)).pairs:
        assert (r["verdicts"]["det"], r["witness"]) == sweep[(r["A"], r["B"])]


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
        ok, w = is_planar_det(t, pair // q, pair % q)
        assert (ok, 0 if w is None else w) == (bool(planar[pair]), int(wit[pair]))


@pytest.mark.parametrize("p, m", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2),
                                  (3, 3)],
                         ids=["q3", "q5", "q7", "q9", "q11", "q13", "q25", "q27"])
def test_det_coefficients_expand_the_determinant(p, m):
    check_det_coefficients(build_tower(p, m))


@pytest.mark.parametrize("q", [3, 7, 25])
def test_incidence_pass_is_the_same_across_chunk_boundaries(towers, monkeypatch, q):
    # two values of A per step of det_witnesses, so at odd q the last step holds one
    t = towers[q]
    witnesses = det_witnesses(t)
    monkeypatch.setattr(planarity, "_INCIDENCE_CHUNK", 2 * (q * q + q + 1))
    assert np.array_equal(det_witnesses(t), witnesses)


def test_scan_timings_stay_out_of_the_report(towers):
    rep = scan(towers[5])
    assert set(rep.timings) == {"det", "pairs", "scan"}
    assert "timings" not in json.dumps(rep.to_report_dict())
