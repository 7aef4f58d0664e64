"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values marked as derived were computed from independent
oracles (branch enumeration, exhaustive sweeps) before being frozen here.
"""

import random
import time

import numpy as np
from conftest import det_sweep

from planarq import find_normal_element
from planarq.curves import (
    MONOMIALS,
    build_F_det,
    build_F_paper,
    count_nonzero_fq_zeros,
    find_linear_factors,
    transform_H,
    verify_branch_factorization,
)
from planarq.families import FamilySpec, family_report
from planarq.identities import battery_det_identity, battery_root_criterion
from planarq.planarity import count_formula, scan

# planar-count values derived from the counting formula (3q - 2 - 4*gcd(3, q-1))
# and confirmed by the determinant sweep and, for q <= 11, the brute decider
EXPECTED_COUNTS = {5: 9, 7: 7, 9: 21, 11: 27, 13: 25}


def _report(num: int, label: str, ok: bool):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {label}", flush=True)
    assert ok, f"acceptance criterion {num} failed: {label}"


def test_criterion_1_counting_formula(towers):
    start = time.perf_counter()
    ok = True
    for q, expected in EXPECTED_COUNTS.items():
        rep = scan(towers[q], methods=("theorem", "det"))
        ok &= rep.planar_count == expected == count_formula(q)
        ok &= rep.disagreements == []
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _report(1, f"planar counts {tuple(EXPECTED_COUNTS.values())} for q in "
               f"{tuple(EXPECTED_COUNTS)} match the formula ({elapsed:.1f}s)", ok)


def test_criterion_2_triple_decider_agreement(towers):
    start = time.perf_counter()
    ok = True
    for q in (5, 7, 9, 11, 13):
        workers = 2 if q == 11 else 1
        rep = scan(towers[q], methods=("theorem", "det", "brute"), workers=workers)
        ok &= rep.disagreements == []
        ok &= len(rep.pairs) == q * q
    elapsed = time.perf_counter() - start
    ok &= elapsed < 600.0
    _report(2, f"theorem/det/brute agree on all pairs for q in (5, 7, 9, 11, 13) "
               f"({elapsed:.1f}s)", ok)


def test_criterion_3_q3_sufficiency(towers):
    rep = scan(towers[3], methods=("theorem", "brute"))
    theorem = {(r["A"], r["B"]) for r in rep.pairs if r["verdicts"]["theorem"]}
    brute = {(r["A"], r["B"]) for r in rep.pairs if r["verdicts"]["brute"]}
    ok = theorem == {(0, 0), (1, 0), (1, 2)} and theorem <= brute
    ok &= rep.disagreements == []
    # the full brute result is recorded (count reported, no equality assert)
    ok &= rep.planar_count == len(brute)
    _report(3, f"q=3 closed-form set is contained in the brute set "
               f"(brute count recorded: {rep.planar_count})", ok)


def test_criterion_4_determinant_identity(towers):
    ok = True
    rng = random.Random(2024)
    r3 = battery_det_identity(towers[3], samples=0, rng=rng)
    ok &= r3.passed and r3.checked == 9 * 27  # exhaustive at q = 3
    for q in (5, 7, 9, 25):
        r = battery_det_identity(towers[q], samples=1000, rng=rng)
        ok &= r.passed and r.checked >= 1000
    _report(4, "determinant equals the cubic at (C, C^q, C^(q^2)), value in F_q "
               "(exhaustive q=3; >=1000 seeded triples for q in (5, 7, 9, 25))", ok)


def test_criterion_5_coefficient_swap_relation(towers):
    ok = True
    for q in (3, 5, 7, 9):
        t = towers[q]
        for a in range(q):
            for b in range(q):
                F = build_F_det(t, a, b)
                ok &= build_F_paper(t, a, b) == tuple(F[MONOMIALS.index((j, i, k))]
                                                      for i, j, k in MONOMIALS)
    _report(5, "published cubic == determinant cubic with X, Y exchanged, "
               "all (A, B), q in (3, 5, 7, 9)", ok)


def test_criterion_6_root_criterion_equivalence(towers):
    ok = True
    rng = random.Random(0)
    for q in (3, 5, 7):
        r = battery_root_criterion(towers[q], samples=0, rng=rng)
        ok &= r.passed and r.checked == q ** 3  # exhaustive
    _report(6, "kernel criterion == brute kernel size > 1, exhaustive over "
               "F_q^3 for q in (3, 5, 7)", ok)


def test_criterion_7_branch_factorizations(towers):
    ok = True
    counts = {}
    for q in (5, 7, 11, 13):
        t = towers[q]
        n = 0
        for a in range(q):
            for b in range(q):
                rep = verify_branch_factorization(t, a, b, build_F_det(t, a, b))
                if rep["ok"] is None:
                    continue
                n += 1
                if not rep["ok"]:
                    ok = False
        counts[q] = n
    _report(7, f"all locus factorizations and divisibility checks verify "
               f"(locus pairs per q: {counts})", ok)


def test_criterion_8_curve_root_correspondence(towers):
    ok = True
    rng = random.Random(88)
    for q in (5, 7):
        t = towers[q]
        xi = find_normal_element(t)
        for _ in range(50):
            A, B = rng.randrange(q), rng.randrange(q)
            roots = int(np.count_nonzero(det_sweep(t, A, B) == 0))
            points = count_nonzero_fq_zeros(t.fq, transform_H(t, build_F_det(t, A, B), xi))
            ok &= roots == points
            from planarq.planarity import classify_pair

            if classify_pair(t, A, B).planar:
                ok &= points == 0
    _report(8, "determinant roots and F_q points of the transformed cubic "
               "agree for 50 seeded pairs at q in (5, 7); zero on planar pairs", ok)


def test_criterion_9_points_on_irreducible_curves(towers):
    ok = True
    checked = 0
    for q in (5, 7, 11):
        t = towers[q]
        xi = find_normal_element(t)
        rep = scan(t, methods=("theorem",))
        for r in rep.pairs:
            if r["verdicts"]["theorem"]:
                continue
            A, B = r["A"], r["B"]
            F = build_F_det(t, A, B)
            if not any(F) or find_linear_factors(t.fq, F):
                continue
            checked += 1
            ok &= count_nonzero_fq_zeros(t.fq, transform_H(t, F, xi)) > 0
    _report(9, f"every non-planar pair with a factor-free cubic has F_q points "
               f"({checked} curves at q in (5, 7, 11))", ok)


def test_criterion_10_families():
    cases = [
        ("x^2", FamilySpec("T2.1", {"p": 3, "n": 5})),
        ("x^10+x^6-x^2", FamilySpec("T2.3", {"n": 5})),
        ("x^10-x^6-x^2", FamilySpec("T2.4", {"n": 5})),
        ("x^14", FamilySpec("T2.6", {"n": 5, "k": 3})),
        ("x^2+x^90", FamilySpec("T3.5", {})),
    ]
    ok = True
    times = []
    for label, spec in cases:
        start = time.perf_counter()
        planar = family_report(spec)["planar"]
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        ok &= planar and elapsed < 5.0
    _report(10, f"catalog instances over F_243 are brute-planar "
                f"(max {max(times):.2f}s per check)", ok)


def test_criterion_11_scan_determinism(tmp_path):
    from planarq.cli import main

    a, b = tmp_path / "w1.json", tmp_path / "w4.json"
    code1 = main(["scan", "--p", "5", "--methods", "theorem,det,brute",
                  "--workers", "1", "--seed", "9", "--output", str(a)])
    code2 = main(["scan", "--p", "5", "--methods", "theorem,det,brute",
                  "--workers", "4", "--seed", "9", "--output", str(b)])
    ok = code1 == 0 and code2 == 0 and a.read_bytes() == b.read_bytes()
    _report(11, "scan reports are byte-identical across worker counts", ok)
