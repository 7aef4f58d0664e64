"""Deciders, classifier, counting formula, and the pair scanner."""

import json
import random

import numpy as np
import pytest

from planarq import SizeLimit, build_tower
from planarq.linearized import difference_triple
from planarq.planarity import (
    BRANCH_B_ZERO,
    BRANCH_CUBIC,
    BRANCH_SQUARE,
    SparsePoly,
    brute_is_planar,
    classify_pair,
    count_formula,
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


def test_brute_size_limit(monkeypatch):
    t = build_tower(5, 1)
    monkeypatch.setenv("PLANARQ_MAX_Q3", "100")
    with pytest.raises(SizeLimit):
        brute_is_planar(f_poly(t, t.eq(2), t.eq(1)))


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
    from planarq.planarity import _det_sweep

    dets = _det_sweep(t, 1, 1)
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


def test_brute_agrees_on_extension_tower_sample(towers):
    # the q = 9 tower routes brute evaluation through the nested mid field;
    # check a stratified pair sample against the determinant sweep
    t = towers[9]
    pairs = [(a, b) for a in range(9) for b in range(9)]
    sample = [p for p in pairs if classify_pair(t, t.eq(p[0]), t.eq(p[1])).planar]
    sample += pairs[::13]
    for a, b in sorted(set(sample))[:30]:
        det_ok, _ = is_planar_det(t, t.eq(a), t.eq(b))
        assert brute_is_planar(f_poly(t, t.eq(a), t.eq(b))) == det_ok


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
        addtab = f.add_index_table()
        for shift in (1, 7, 42):
            diffs = f.sub_vec(tab[addtab[shift]], tab)
            assert int(np.count_nonzero(diffs == 0)) == 1


def test_scan_rejects_unknown_methods(towers):
    with pytest.raises(ValueError):
        scan(towers[5], methods=())
