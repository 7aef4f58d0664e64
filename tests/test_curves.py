"""Determinant cubic, published form, factorizations, line oracle, transform."""

import random

import numpy as np
import pytest

from planarq import NotOnLocus, find_normal_element, standard_extension
from planarq.curves import (
    MONOMIALS,
    LineFactor,
    TernaryCubic,
    build_F_det,
    build_F_paper,
    count_nonzero_fq_zeros,
    divides,
    find_linear_factors,
    transform_H,
    triple_product,
    verify_branch_factorization,
)
from planarq.gf import det3
from planarq.linearized import dickson_matrix, difference_triple
from planarq.planarity import _det_sweep, scan


def closed_form_F_det(tower, A, B):
    """The determinant cubic written from its closed-form coefficients.

    Independent of the Leibniz construction in the package: 2AB on the
    symmetric cube terms, (2A^2B + 4B^2) on {X^2T, XY^2, YT^2}, (4AB^2 + 2B)
    on {X^2Y, Y^2T, XT^2}, and (2A^3 + 8B^3 + 2) on XYT.
    """
    fq = tower.fq
    a, b = A.code, B.code

    def n(k):
        return fq.from_int(k)

    c_sym = fq.mul(n(2), fq.mul(a, b))
    c_g1 = fq.add(fq.mul(n(2), fq.mul(fq.mul(a, a), b)), fq.mul(n(4), fq.mul(b, b)))
    c_g2 = fq.add(fq.mul(n(4), fq.mul(a, fq.mul(b, b))), fq.mul(n(2), b))
    c_xyt = fq.add(fq.add(fq.mul(n(2), fq.pow(a, 3)), fq.mul(n(8), fq.pow(b, 3))), n(2))
    return TernaryCubic(fq, {
        (3, 0, 0): c_sym, (0, 3, 0): c_sym, (0, 0, 3): c_sym,
        (2, 0, 1): c_g1, (1, 2, 0): c_g1, (0, 1, 2): c_g1,
        (2, 1, 0): c_g2, (0, 2, 1): c_g2, (1, 0, 2): c_g2,
        (1, 1, 1): c_xyt,
    })


def test_leibniz_matches_closed_form(towers):
    for q in (3, 5, 7, 9):
        t = towers[q]
        for a in range(t.q):
            for b in range(t.q):
                A, B = t.eq(a), t.eq(b)
                assert build_F_det(t, A, B) == closed_form_F_det(t, A, B)


def test_F_det_examples(towers):
    t = towers[5]
    F = build_F_det(t, t.eq(2), t.eq(1))
    assert F.in_field(t.fq3).evaluate(1, 1, 1) == 4
    # B = 0 collapses to 2(A^3+1) XYT
    F0 = build_F_det(t, t.eq(3), t.eq(0))
    fq = t.fq
    coeff = fq.mul(2, fq.add(fq.pow(3, 3), 1))
    assert F0 == TernaryCubic(fq, {(1, 1, 1): coeff})
    # cyclic substitution invariance (ground for det lying in F_q)
    for (a, b) in ((2, 1), (1, 3), (0, 2), (4, 4)):
        F = build_F_det(t, t.eq(a), t.eq(b))
        # (X, Y, T) -> (Y, T, X) moves the coefficient of X^i Y^j T^k to X^k Y^i T^j
        shifted = {(k, i, j): c for (i, j, k), c in zip(MONOMIALS, F.coeffs)}
        assert F == TernaryCubic(fq, shifted)


def test_published_form_swap_relation(towers):
    for q in (3, 5, 7, 9):
        t = towers[q]
        for a in range(t.q):
            for b in range(t.q):
                A, B = t.eq(a), t.eq(b)
                assert build_F_paper(t, A, B) == build_F_det(t, A, B).swap_xy()


def test_published_vs_det_disagree_off_diagonal(towers):
    # both cubics agree at symmetric points, differ at (2, 0, 1) for (A,B)=(2,1)
    t = towers[5]
    f3 = t.fq3
    A, B = t.eq(2), t.eq(1)
    Fp = build_F_paper(t, A, B).in_field(f3)
    Fd = build_F_det(t, A, B).in_field(f3)
    assert Fp.evaluate(1, 1, 1) == 4
    assert Fp.evaluate(2, 0, 1) == 0
    assert Fd.evaluate(2, 0, 1) == 4


def test_det_identity_exhaustive_q3_and_random(towers):
    # det of the difference matrix == F_det(C, C^q, C^(q^2)), a value in F_q
    def holds(t, A, B, C):
        f3 = t.fq3
        lhs = det3(f3, dickson_matrix(difference_triple(t, A, B, C)))
        c = C.code
        rhs = build_F_det(t, A, B).in_field(f3).evaluate(c, f3.frob(c, 1), f3.frob(c, 2))
        return lhs == rhs and lhs < t.q

    t = towers[3]
    for a in range(3):
        for b in range(3):
            for c in range(27):
                assert holds(t, t.eq(a), t.eq(b), t.eq3(c))
    t = towers[7]
    rng = random.Random(4)
    for _ in range(300):
        A, B = t.eq(rng.randrange(7)), t.eq(rng.randrange(7))
        C = t.eq3(rng.randrange(343))
        assert holds(t, A, B, C)


def test_branch_factorization_cubic_branch(towers):
    t = towers[5]
    rep = verify_branch_factorization(t, t.eq(2), t.eq(1))
    entry = rep.check("cubic_split")
    assert entry.verified and entry.scalar == 3  # 2B / A^2 = 2/4 = 3 mod 5
    assert rep.ok


def test_branch_factorization_trace_line(towers):
    t7 = towers[7]
    rep = verify_branch_factorization(t7, t7.eq(3), t7.eq(2))  # A - 2B + 1 = 0
    assert rep.check("trace_line").verified
    t5 = towers[5]
    rep = verify_branch_factorization(t5, t5.eq(1), t5.eq(1))
    assert rep.check("trace_line").verified
    assert rep.check("cubic_split").verified  # degenerates to a triple line


def test_branch_factorization_square_branch(towers):
    t = towers[5]
    rep = verify_branch_factorization(t, t.eq(4), t.eq(2))
    entry = rep.check("square_split")
    assert entry.verified and entry.scalar == 2  # 2A / B^2 = 8/4 = 2 mod 5


def test_branch_factorization_alpha_lines(towers):
    # q = 7: alpha^2 = -3 has roots {2, 5}; (2, 4) lies on the unit-cubic
    # locus (A^2+A+1 = 0, B = A^2), (2, 5) on the conic locus
    t = towers[7]
    rep = verify_branch_factorization(t, t.eq(2), t.eq(4))
    entry = rep.check("alpha_line_unit_cubic")
    assert entry.verified and entry.alpha in (2, 5)
    rep = verify_branch_factorization(t, t.eq(2), t.eq(5))
    entry = rep.check("alpha_line_conic")
    assert entry.verified and entry.alpha in (2, 5)


def test_branch_factorization_a_zero_line(towers):
    # corrected locus 8B^3 = 1: over F_7 that is B in {1, 2, 4}
    t = towers[7]
    for b in (1, 2, 4):
        rep = verify_branch_factorization(t, t.eq(0), t.eq(b))
        entry = rep.check("a_zero_line")
        assert entry.verified
    for b in (3, 5, 6):  # the sign-flipped locus 8B^3 = -1 carries no line
        with pytest.raises(NotOnLocus):
            verify_branch_factorization(t, t.eq(0), t.eq(b))


def test_branch_factorization_b_zero(towers):
    t = towers[5]
    for a in range(5):
        rep = verify_branch_factorization(t, t.eq(a), t.eq(0))
        assert rep.check("b_zero_monomial").verified


def test_branch_factorization_not_on_locus(towers):
    t = towers[5]
    with pytest.raises(NotOnLocus):
        verify_branch_factorization(t, t.eq(2), t.eq(2))


def test_scalar_on_locus_never_zero(towers):
    for q in (5, 7, 11, 13):
        t = towers[q]
        for a in range(q):
            for b in range(q):
                try:
                    rep = verify_branch_factorization(t, t.eq(a), t.eq(b))
                except NotOnLocus:
                    continue
                for c in rep.checks:
                    if c.scalar is not None:
                        assert c.scalar != 0


def test_find_linear_factors_examples(towers):
    t = towers[5]
    lines = find_linear_factors(build_F_det(t, t.eq(1), t.eq(1)))
    assert LineFactor((1, 1, 1), 1) in lines
    lines = find_linear_factors(build_F_det(t, t.eq(2), t.eq(1)))
    assert len(lines) == 3 and all(lf.ext == 1 for lf in lines)
    assert find_linear_factors(build_F_det(t, t.eq(2), t.eq(2))) == []


def test_find_linear_factors_coordinate_lines(towers):
    t = towers[5]
    lines = find_linear_factors(build_F_det(t, t.eq(3), t.eq(0)))
    assert {lf.coeffs for lf in lines} == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_find_linear_factors_zero_rejected(towers):
    t = towers[3]  # A = 2: A^3 = -1, the cubic vanishes identically
    with pytest.raises(ValueError):
        find_linear_factors(build_F_det(t, t.eq(2), t.eq(0)))


def test_find_linear_factors_quadratic_extension(towers):
    # q = 5: -3 = 2 is a non-square, so the alpha lines of a conic-locus pair
    # live over F_25; (1, 2) carries the trace line plus a conjugate pair
    t = towers[5]
    lines = find_linear_factors(build_F_det(t, t.eq(1), t.eq(2)))
    by_ext = {}
    for lf in lines:
        by_ext.setdefault(lf.ext, []).append(lf)
    assert len(by_ext.get(1, [])) == 1
    assert by_ext[1][0].coeffs == (1, 1, 1)
    assert len(by_ext.get(2, [])) == 2
    # conjugate pair: applying the q-power Frobenius permutes the two lines
    f2 = by_ext[2][0].coeffs, by_ext[2][1].coeffs
    ext_field = standard_extension(t.fq, 2)
    conj = tuple(ext_field.frob(c, 1) for c in f2[0])
    # normalize the conjugate before comparing
    from planarq.curves import _normalize_line

    assert _normalize_line(ext_field, conj) == f2[1]


def test_find_linear_factors_cubic_extension(towers):
    # product of the three conjugates of a normal-basis form splits only
    # over F_{q^3}
    t = towers[5]
    f3 = t.fq3
    xi = find_normal_element(t)
    x0, x1, x2 = xi.code, f3.frob(xi.code, 1), f3.frob(xi.code, 2)
    P3 = triple_product(f3, (x0, x1, x2), (x1, x2, x0), (x2, x0, x1))
    assert all(c < t.q for c in P3.coeffs)
    P = TernaryCubic(t.fq, P3.coeffs)
    lines = find_linear_factors(P)
    assert len(lines) == 3 and all(lf.ext == 3 for lf in lines)
    # each reported line really divides over the big field
    big = standard_extension(t.fq, 3)
    for lf in lines:
        assert divides(TernaryCubic(big, P.coeffs), lf.coeffs)


def test_oracle_matches_factorization_reports(towers):
    # wherever the branch verifier certifies a full split over F_q, the
    # oracle finds exactly those lines (they are distinct unless degenerate)
    t = towers[7]
    rep = verify_branch_factorization(t, t.eq(4), t.eq(2))  # A = B^2
    split = rep.check("square_split")
    from planarq.curves import _normalize_line

    expected = {_normalize_line(t.fq, l) for l in split.lines}
    got = {lf.coeffs for lf in find_linear_factors(build_F_det(t, t.eq(4), t.eq(2)))}
    assert expected == got


def _all_lines(f):
    """Every projective line uX + vY + wT over f, leading coefficient 1."""
    yield (0, 0, 1)
    for w in range(f.order):
        yield (0, 1, w)
    for v in range(f.order):
        for w in range(f.order):
            yield (1, v, w)


def _lines_by_enumeration(P, max_ext):
    """Lines that ``divides`` accepts over F_{q^k}, k <= max_ext, each at its least k."""
    q = P.field.order
    found = []
    for ext in range(1, max_ext + 1):
        f = standard_extension(P.field, ext)
        Pk = P.in_field(f)
        found += [LineFactor(line, ext) for line in _all_lines(f)
                  if (ext == 1 or any(c >= q for c in line)) and divides(Pk, line)]
    return sorted(found, key=lambda lf: (lf.ext, lf.coeffs))


def test_find_linear_factors_complete(towers):
    # the oracle returns exactly the lines found by trying every projective
    # line with the symbolic divisibility check
    cases = []
    for q, max_ext in ((3, 2), (5, 1), (7, 1)):
        t = towers[q]
        for a in range(q):
            for b in range(q):
                F = build_F_det(t, t.eq(a), t.eq(b))
                if not F.is_zero():
                    cases.append((F, max_ext))
    # products of three lines at q = 3: random F_3 lines, a vertical line
    # X = cT with random partners, and an F_3 line times an F_9-conjugate pair
    t = towers[3]
    f9 = standard_extension(t.fq, 2)
    rng = random.Random(3)
    base_lines = list(_all_lines(t.fq))
    ext_lines = [l for l in _all_lines(f9) if any(c >= 3 for c in l)]
    for _ in range(4):
        cases.append((triple_product(t.fq, *rng.choices(base_lines, k=3)), 2))
    for c in (1, 2):
        cases.append((triple_product(t.fq, (1, 0, c), *rng.choices(base_lines, k=2)), 2))
    for _ in range(3):
        line = rng.choice(ext_lines)
        conj = tuple(f9.frob(c, 1) for c in line)
        P = triple_product(f9, line, conj, rng.choice(base_lines))
        assert all(c < 3 for c in P.coeffs)
        cases.append((TernaryCubic(t.fq, P.coeffs), 2))
    for P, max_ext in cases:
        assert find_linear_factors(P, max_ext) == _lines_by_enumeration(P, max_ext)


def test_transform_H_properties(towers):
    for q in (5, 7):
        t = towers[q]
        xi = find_normal_element(t)
        rng = random.Random(q)
        for _ in range(25):
            A, B = t.eq(rng.randrange(q)), t.eq(rng.randrange(q))
            H = transform_H(t, A, B, xi)
            assert H.field == t.fq
            roots = np.count_nonzero(_det_sweep(t, A.code, B.code) == 0)
            assert count_nonzero_fq_zeros(H) == roots


def test_point_count_examples(towers):
    t = towers[5]
    xi = find_normal_element(t)
    assert count_nonzero_fq_zeros(transform_H(t, t.eq(2), t.eq(1), xi)) == 0
    assert count_nonzero_fq_zeros(transform_H(t, t.eq(2), t.eq(2), xi)) > 0


def test_irreducible_nonplanar_curves_have_points(towers):
    # irreducible non-planar curves must carry rational points (q = 5 slice)
    t = towers[5]
    xi = find_normal_element(t)
    rep = scan(t, methods=("theorem",))
    for r in rep.pairs:
        if r.verdicts["theorem"]:
            continue
        F = build_F_det(t, t.eq(r.A), t.eq(r.B))
        if F.is_zero() or find_linear_factors(F):
            continue
        assert count_nonzero_fq_zeros(transform_H(t, t.eq(r.A), t.eq(r.B), xi)) > 0


def test_fq_line_with_kernel_blocks_planarity(towers):
    # any F_q line of the cubic whose coefficient triple has the zero
    # criterion forces a determinant root
    from planarq.linearized import has_nonzero_root_subfield_coeffs
    from planarq.planarity import is_planar_det

    t = towers[7]
    for a in range(7):
        for b in range(7):
            F = build_F_det(t, t.eq(a), t.eq(b))
            if F.is_zero():
                continue
            for lf in find_linear_factors(F, max_ext=1):
                u, v, w = lf.coeffs
                if has_nonzero_root_subfield_coeffs(t.eq(w), t.eq(v), t.eq(u)):
                    assert not is_planar_det(t, t.eq(a), t.eq(b))[0]
