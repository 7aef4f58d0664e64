"""Determinant cubic, published form, factorizations, line oracle, transform."""

import random

import numpy as np
import pytest
from conftest import (all_lines, check_lines_exactly_on_the_loci, check_one_curve, det_sweep,
                      divides_by_substitution, lines_by_enumeration, substitute_linear)

import planarq.curves as curves
import planarq.gf as gf
from planarq import LevelMismatch, build_tower, find_normal_element, standard_extension
from planarq.curves import (
    MONOMIALS,
    _det_coeffs,
    _evaluate,
    _paper_coeffs,
    LineFactor,
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
from planarq.planarity import scan


def _entry(rep, name):
    """The check called ``name`` in a ``verify_branch_factorization`` section."""
    return next(c for c in rep["checks"] if c["name"] == name)


def _cubic(terms):
    """Coefficient codes in MONOMIALS order from a {monomial: code} dict."""
    return tuple(terms.get(mon, 0) for mon in MONOMIALS)


def closed_form_F_det(tower, a, b):
    """The determinant cubic written from its closed-form coefficients.

    Independent of the Leibniz construction in the package: 2AB on the
    symmetric cube terms, (2A^2B + 4B^2) on {X^2T, XY^2, YT^2}, (4AB^2 + 2B)
    on {X^2Y, Y^2T, XT^2}, and (2A^3 + 8B^3 + 2) on XYT.
    """
    fq = tower.fq

    def n(k):
        return fq.from_int(k)

    c_sym = fq.mul(n(2), fq.mul(a, b))
    c_g1 = fq.add(fq.mul(n(2), fq.mul(fq.mul(a, a), b)), fq.mul(n(4), fq.mul(b, b)))
    c_g2 = fq.add(fq.mul(n(4), fq.mul(a, fq.mul(b, b))), fq.mul(n(2), b))
    c_xyt = fq.add(fq.add(fq.mul(n(2), fq.pow(a, 3)), fq.mul(n(8), fq.pow(b, 3))), n(2))
    return _cubic({
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
                assert build_F_det(t, a, b) == closed_form_F_det(t, a, b)


def test_F_det_examples(towers):
    t = towers[5]
    F = build_F_det(t, 2, 1)
    assert _evaluate(t.fq3, F, 1, 1, 1) == 4
    # B = 0 collapses to 2(A^3+1) XYT
    F0 = build_F_det(t, 3, 0)
    fq = t.fq
    coeff = fq.mul(2, fq.add(fq.pow(3, 3), 1))
    assert F0 == _cubic({(1, 1, 1): coeff})
    # cyclic substitution invariance (ground for det lying in F_q)
    for (a, b) in ((2, 1), (1, 3), (0, 2), (4, 4)):
        F = build_F_det(t, a, b)
        # (X, Y, T) -> (Y, T, X) moves the coefficient of X^i Y^j T^k to X^k Y^i T^j
        shifted = {(k, i, j): c for (i, j, k), c in zip(MONOMIALS, F)}
        assert F == _cubic(shifted)


def test_published_form_swap_relation(towers):
    for q in (3, 5, 7, 9):
        t = towers[q]
        for a in range(t.q):
            for b in range(t.q):
                F = build_F_det(t, a, b)
                # (X, Y, T) -> (Y, X, T) moves the coefficient of X^i Y^j T^k to X^j Y^i T^k
                assert build_F_paper(t, a, b) == _cubic({(j, i, k): c for (i, j, k), c
                                                         in zip(MONOMIALS, F)})


def test_published_vs_det_disagree_off_diagonal(towers):
    # both cubics agree at symmetric points, differ at (2, 0, 1) for (A,B)=(2,1)
    t = towers[5]
    f3 = t.fq3
    A, B = 2, 1
    Fp, Fd = build_F_paper(t, A, B), build_F_det(t, A, B)
    assert _evaluate(f3, Fp, 1, 1, 1) == 4
    assert _evaluate(f3, Fp, 2, 0, 1) == 0
    assert _evaluate(f3, Fd, 2, 0, 1) == 4


def test_det_identity_exhaustive_q3_and_random(towers):
    # det of the difference matrix == F_det(C, C^q, C^(q^2)), a value in F_q
    def holds(t, A, B, C):
        f3 = t.fq3
        lhs = det3(f3, dickson_matrix(f3, *difference_triple(t, A, B, C)))
        rhs = _evaluate(f3, build_F_det(t, A, B), C, f3.frob(C, 1), f3.frob(C, 2))
        return lhs == rhs and lhs < t.q

    t = towers[3]
    for a in range(3):
        for b in range(3):
            for c in range(27):
                assert holds(t, a, b, c)
    t = towers[7]
    rng = random.Random(4)
    for _ in range(300):
        A, B = rng.randrange(7), rng.randrange(7)
        C = rng.randrange(343)
        assert holds(t, A, B, C)


def test_branch_factorization_cubic_branch(towers):
    t = towers[5]
    rep = verify_branch_factorization(t, 2, 1, build_F_det(t, 2, 1))
    entry = _entry(rep, "cubic_split")
    assert entry["verified"] and entry["scalar"] == 3  # 2B / A^2 = 2/4 = 3 mod 5
    assert rep["ok"]


def test_branch_factorization_trace_line(towers):
    t7 = towers[7]
    rep = verify_branch_factorization(t7, 3, 2, build_F_det(t7, 3, 2))  # A - 2B + 1 = 0
    assert _entry(rep, "trace_line")["verified"]
    t5 = towers[5]
    rep = verify_branch_factorization(t5, 1, 1, build_F_det(t5, 1, 1))
    assert _entry(rep, "trace_line")["verified"]
    assert _entry(rep, "cubic_split")["verified"]  # degenerates to a triple line


def test_branch_factorization_square_branch(towers):
    t = towers[5]
    rep = verify_branch_factorization(t, 4, 2, build_F_det(t, 4, 2))
    entry = _entry(rep, "square_split")
    assert entry["verified"] and entry["scalar"] == 2  # 2A / B^2 = 8/4 = 2 mod 5


def test_branch_factorization_alpha_lines(towers):
    # q = 7: alpha^2 = -3 has roots {2, 5}; (2, 4) lies on the unit-cubic
    # locus (A^2+A+1 = 0, B = A^2), (2, 5) on the conic locus
    t = towers[7]
    rep = verify_branch_factorization(t, 2, 4, build_F_det(t, 2, 4))
    entry = _entry(rep, "alpha_line_unit_cubic")
    assert entry["verified"] and entry["alpha"] in (2, 5)
    rep = verify_branch_factorization(t, 2, 5, build_F_det(t, 2, 5))
    entry = _entry(rep, "alpha_line_conic")
    assert entry["verified"] and entry["alpha"] in (2, 5)


@pytest.mark.parametrize("p", [5, 11, 17, 23])
def test_non_square_minus_three_leaves_no_pair_off_every_locus(p):
    # -3 is a non-square mod p = 2 (mod 3): the conic A^2 + 2AB - A + 4B^2 +
    # 2B + 1 (discriminant -3(2B+1)^2 in A) holds only at (1, -1/2), which is
    # on the trace line, and A^2 + A + 1 has no root
    t = build_tower(p, 1)
    assert t.fq.sqrt_code(p - 3) is None
    half = (p - 1) // 2  # -1/2 mod p
    conic = [(a, b) for a in range(p) for b in range(p)
             if (a * a + 2 * a * b - a + 4 * b * b + 2 * b + 1) % p == 0]
    assert conic == [(1, half)]
    assert all((a * a + a + 1) % p for a in range(p))
    rep = verify_branch_factorization(t, 1, half, build_F_det(t, 1, half))
    assert _entry(rep, "trace_line")["verified"]
    entry = _entry(rep, "alpha_line_conic")
    assert entry["verified"] is None and entry["note"] == "-3 is a non-square in F_q"
    assert rep["ok"] is True


def test_branch_factorization_a_zero_line(towers):
    # corrected locus 8B^3 = 1: over F_7 that is B in {1, 2, 4}
    t = towers[7]
    for b in (1, 2, 4):
        rep = verify_branch_factorization(t, 0, b, build_F_det(t, 0, b))
        entry = _entry(rep, "a_zero_line")
        assert entry["verified"]
    for b in (3, 5, 6):  # the sign-flipped locus 8B^3 = -1 carries no line
        assert verify_branch_factorization(t, 0, b, build_F_det(t, 0, b)) == {
            "checks": [], "ok": None}


def test_branch_factorization_b_zero(towers):
    t = towers[5]
    for a in range(5):
        rep = verify_branch_factorization(t, a, 0, build_F_det(t, a, 0))
        assert _entry(rep, "b_zero_monomial")["verified"]


def test_branch_factorization_not_on_locus(towers):
    t = towers[5]
    assert verify_branch_factorization(t, 2, 2, build_F_det(t, 2, 2)) == {
        "checks": [], "ok": None}


def test_scalar_on_locus_never_zero(towers):
    for q in (5, 7, 11, 13):
        t = towers[q]
        for a in range(q):
            for b in range(q):
                rep = verify_branch_factorization(t, a, b, build_F_det(t, a, b))
                for c in rep["checks"]:
                    if c["scalar"] is not None:
                        assert c["scalar"] != 0


def test_split_check_reports_the_scalar_it_finds(towers):
    # (2, 4) at q = 7 is on the cubic branch, F = lam * (three lines) with
    # lam = 2B/A^2 = 2; mu * F is a split with scalar mu * lam, reported with
    # the closed form it misses, and F with X and Y exchanged splits by the
    # relabelled lines
    t = towers[7]
    fq = t.fq
    F = build_F_det(t, 2, 4)
    entry = _entry(verify_branch_factorization(t, 2, 4, F), "cubic_split")
    assert entry["verified"] and entry["scalar"] == 2 and entry["note"] == "as printed"
    for mu in range(2, 7):
        scaled = tuple(fq.mul(mu, c) for c in F)
        got = _entry(verify_branch_factorization(t, 2, 4, scaled), "cubic_split")
        lam = fq.mul(mu, 2)
        assert got == dict(entry, verified=False, scalar=lam,
                           note=f"as printed; scalar {lam} != closed form 2")
    swapped = tuple(F[n] for n in curves._SWAP_XY)
    got = _entry(verify_branch_factorization(t, 2, 4, swapped), "cubic_split")
    assert got["verified"] and got["scalar"] == 2 and got["note"] == "X<->Y"
    assert got["lines"] == tuple((v, u, w) for u, v, w in entry["lines"])
    # F plus one monomial is a multiple of neither orientation's product
    for n in range(10):
        bumped = F[:n] + (fq.add(F[n], 1),) + F[n + 1:]
        got = _entry(verify_branch_factorization(t, 2, 4, bumped), "cubic_split")
        assert got == {"name": "cubic_split", "verified": False, "scalar": None,
                       "alpha": None, "lines": (), "note": "no orientation matches"}


@pytest.mark.parametrize("p", [5, 7])
def test_square_root_of_minus_three_is_searched_only_on_its_loci(monkeypatch, p):
    # the alpha-line loci: the conic A^2 + 2AB - A + 4B^2 + 2B + 1 = 0, and
    # A^2 + A + 1 = 0 with B = A^2 or B = -A^2/2; a pair with B = 0 gets
    # only the monomial check
    t = build_tower(p, 1)
    half = (p + 1) // 2  # 1/2 mod p
    loci = {(a, b) for a in range(p) for b in range(1, p)
            if (a * a + 2 * a * b - a + 4 * b * b + 2 * b + 1) % p == 0
            or ((a * a + a + 1) % p == 0 and b in (a * a % p, -a * a * half % p))}
    calls = []
    original = gf.Field.sqrt_code

    def spy(self, a):
        calls.append(a)
        return original(self, a)

    monkeypatch.setattr(gf.Field, "sqrt_code", spy)
    searched = set()
    for a in range(p):
        for b in range(p):
            before = len(calls)
            verify_branch_factorization(t, a, b, build_F_det(t, a, b))
            assert len(calls) - before in (0, 1)
            if len(calls) > before:
                searched.add((a, b))
    assert loci and searched == loci


def test_find_linear_factors_examples(towers):
    t = towers[5]
    lines = find_linear_factors(t.fq, build_F_det(t, 1, 1))
    assert LineFactor((1, 1, 1), 1) in lines
    lines = find_linear_factors(t.fq, build_F_det(t, 2, 1))
    assert len(lines) == 3 and all(lf.ext == 1 for lf in lines)
    assert find_linear_factors(t.fq, build_F_det(t, 2, 2)) == []


def test_find_linear_factors_coordinate_lines(towers):
    t = towers[5]
    lines = find_linear_factors(t.fq, build_F_det(t, 3, 0))
    assert {lf.coeffs for lf in lines} == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_find_linear_factors_zero_rejected(towers):
    t = towers[3]  # A = 2: A^3 = -1, the cubic vanishes identically
    with pytest.raises(ValueError):
        find_linear_factors(t.fq, build_F_det(t, 2, 0))


def test_find_linear_factors_reports_each_line_once(towers):
    # X^2*Y and X^3 repeat a coordinate factor; in Y*(XT + Y^2) the
    # residual conic's restrictions both have the root 0, so its candidate
    # line is the coordinate line Y again; T times an F_9-conjugate pair has
    # its F_3 line at ext 1 only
    t = towers[3]
    f9 = standard_extension(t.fq, 2)
    X, Y, T = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert find_linear_factors(t.fq, _cubic({(2, 1, 0): 1})) == [
        LineFactor(Y, 1), LineFactor(X, 1)]
    assert find_linear_factors(t.fq, _cubic({(3, 0, 0): 1})) == [LineFactor(X, 1)]
    assert find_linear_factors(t.fq, _cubic({(1, 1, 1): 1, (0, 3, 0): 1})) == [
        LineFactor(Y, 1)]
    line = next(l for l in all_lines(f9) if any(c >= 3 for c in l))
    P = _over_base(f9, t.fq, *_conjugates(f9, line), T)
    lines = find_linear_factors(t.fq, P)
    assert lines[0] == LineFactor(T, 1) and [lf.ext for lf in lines] == [1, 2, 2]
    assert len(set(lines)) == 3 and all(any(c >= 3 for c in lf.coeffs) for lf in lines[1:])


def test_find_linear_factors_tests_no_fq_candidate_past_fq(towers, monkeypatch):
    # (1, 2) at q = 5: the F_25 pass tests only candidate lines through a
    # point with a coordinate outside F_5, and still finds the conjugate pair
    t = towers[5]
    tested = []
    original = curves._on_line

    def spy(f, coeffs, p0, p1):
        if f.order == 25:
            tested.append(np.concatenate([p0, p1]))
        return original(f, coeffs, p0, p1)

    monkeypatch.setattr(curves, "_on_line", spy)
    lines = find_linear_factors(t.fq, build_F_det(t, 1, 2))
    assert [lf.coeffs for lf in lines if lf.ext == 2] == [(1, 7, 22), (1, 22, 7)]
    assert len(tested) == 1 and (tested[0] >= 5).any(axis=0).all()


def test_find_linear_factors_quadratic_extension(towers):
    # q = 5: -3 = 2 is a non-square, so the alpha lines of a conic-locus pair
    # live over F_25; (1, 2) carries the trace line plus a conjugate pair
    t = towers[5]
    lines = find_linear_factors(t.fq, build_F_det(t, 1, 2))
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
    x0, x1, x2 = xi, f3.frob(xi, 1), f3.frob(xi, 2)
    P = triple_product(f3, (x0, x1, x2), (x1, x2, x0), (x2, x0, x1))
    assert all(c < t.q for c in P)
    lines = find_linear_factors(t.fq, P)
    assert len(lines) == 3 and all(lf.ext == 3 for lf in lines)
    # each reported line really divides over the big field
    big = standard_extension(t.fq, 3)
    for lf in lines:
        assert divides_by_substitution(big, P, lf.coeffs)


def test_oracle_matches_factorization_reports(towers):
    # wherever the branch verifier certifies a full split over F_q, the
    # oracle finds exactly those lines (they are distinct unless degenerate)
    t = towers[7]
    rep = verify_branch_factorization(t, 4, 2, build_F_det(t, 4, 2))  # A = B^2
    split = _entry(rep, "square_split")
    from planarq.curves import _normalize_line

    expected = {_normalize_line(t.fq, l) for l in split["lines"]}
    got = {lf.coeffs for lf in find_linear_factors(t.fq, build_F_det(t, 4, 2))}
    assert expected == got


def _scaled(f, rng, line):
    """The line times a random nonzero scalar of f."""
    lam = rng.randrange(1, f.order)
    return tuple(f.mul(lam, c) for c in line)


def _random_line(f, rng):
    """A nonzero (u, v, w) over f, each entry 0 a quarter of the time."""
    while True:
        line = tuple(0 if rng.random() < 0.25 else rng.randrange(f.order) for _ in range(3))
        if any(line):
            return line


@pytest.mark.parametrize("q", (5, 7))
def test_divides_matches_the_substitution_on_every_line(towers, q):
    # every pair's cubic against every line over F_q, as normalized and scaled
    t = towers[q]
    rng = random.Random(q)
    lines = [l for line in all_lines(t.fq) for l in (line, _scaled(t.fq, rng, line))]
    verdicts = []
    for a in range(q):
        for b in range(q):
            F = build_F_det(t, a, b)
            for line in lines:
                want = divides_by_substitution(t.fq, F, line)
                assert divides(t.fq, F, line) is want, (a, b, line)
                verdicts.append(want)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("q", (9, 13))
def test_divides_matches_the_substitution_on_sampled_lines(towers, q):
    # pairs' cubics with the trace line and products of lines with their own
    # factors, over F_q and F_{q^2}, against those and sampled lines, scaled
    t = towers[q]
    rng = random.Random(q)
    f2 = standard_extension(t.fq, 2)
    cases = []
    for f, pairs in ((t.fq, range(q * q)), (f2, rng.sample(range(q * q), 20))):
        cases += [(f, build_F_det(t, *divmod(pair, q)), [(1, 1, 1)]) for pair in pairs]
        for _ in range(20):
            factors = [_random_line(f, rng) for _ in range(3)]
            cases.append((f, triple_product(f, *factors), factors))
    verdicts = []
    for f, P, lines in cases:
        for line in lines + [_random_line(f, rng) for _ in range(20)]:
            line = _scaled(f, rng, line)
            want = divides_by_substitution(f, P, line)
            assert divides(f, P, line) is want, (f, P, line)
            verdicts.append(want)
    assert any(verdicts) and not all(verdicts)


def test_the_zero_cubic_is_divisible_by_every_line(towers):
    t = towers[7]
    assert all(divides(t.fq, (0,) * 10, line) for line in all_lines(t.fq))


def test_the_zero_cubic_evaluates_to_zero_of_the_points_kind(towers):
    f = towers[5].fq
    value = _evaluate(f, (0,) * 10, 1, 2, 3)
    assert value == 0 and type(value) is int
    assert type(_evaluate(f, (0,) * 9 + (1,), 1, 2, 3)) is int
    # arrays keep the shape the points broadcast to
    value = _evaluate(f, (0,) * 10, np.arange(4)[:, None], 1, np.arange(3))
    assert isinstance(value, np.ndarray) and value.shape == (4, 3) and not value.any()


def test_divides_checks_the_line_codes(towers):
    # a code outside F_5 is refused, not read as an element: 5 would invert to 0
    t = towers[5]
    F = build_F_det(t, 1, 0)
    for line in ((1, 0, 5), (5, 1, 1), (1, -1, 0), (1, 1, t.order_top - 1)):
        with pytest.raises(LevelMismatch):
            divides(t.fq, F, line)
    assert divides(t.fq, F, (np.int64(1), np.int64(0), np.int64(0)))
    with pytest.raises(ValueError):
        divides(t.fq, F, (0, 0, 0))


def _conjugates(f, line):
    """The line and its images under the Frobenius of f over its base."""
    out = [line]
    for _ in range(f.degree - 1):
        out.append(tuple(f.frob(c, 1) for c in out[-1]))
    return out


def _over_base(f, base, *lines):
    """The product of three lines over f, whose coefficients lie in base."""
    P = triple_product(f, *lines)
    assert all(c < base.order for c in P)
    return P


def test_find_linear_factors_complete(towers):
    # the oracle returns exactly the lines found by trying every projective
    # line with the symbolic divisibility check: every pair's cubic over
    # F_{q^2} at q = 5 and 7, where the search skips cubics with no F_q line
    cases = []
    for q, max_ext in ((3, 3), (5, 2), (7, 2)):
        t = towers[q]
        for a in range(q):
            for b in range(q):
                F = build_F_det(t, a, b)
                if any(F):
                    cases.append((t.fq, F, max_ext))
    # products of three lines at q = 3: random F_3 lines, a vertical line
    # X = cT with random partners, and an F_3 line times an F_9-conjugate pair
    t = towers[3]
    f9 = standard_extension(t.fq, 2)
    rng = random.Random(3)
    base_lines = list(all_lines(t.fq))
    ext_lines = [l for l in all_lines(f9) if any(c >= 3 for c in l)]
    for _ in range(4):
        cases.append((t.fq, triple_product(t.fq, *rng.choices(base_lines, k=3)), 2))
    for c in (1, 2):
        cases.append((t.fq, triple_product(t.fq, (1, 0, c), *rng.choices(base_lines, k=2)), 2))
    for _ in range(3):
        line = rng.choice(ext_lines)
        P = _over_base(f9, t.fq, *_conjugates(f9, line), rng.choice(base_lines))
        cases.append((t.fq, P, 3))
    # three F_27-conjugate lines leave an irreducible cubic restriction, and
    # an F_9-conjugate pair times T an irreducible quadratic one
    f27 = standard_extension(t.fq, 3)
    ext3_lines = [l for l in all_lines(f27) if any(c >= 3 for c in l)]
    xi = find_normal_element(t)
    x0, x1, x2 = xi, f27.frob(xi, 1), f27.frob(xi, 2)
    for line in [(x0, x1, x2)] + rng.sample(ext3_lines, 3):
        cases.append((t.fq, _over_base(f27, t.fq, *_conjugates(f27, line)), 3))
    for line in rng.sample(ext_lines, 2):
        cases.append((t.fq, _over_base(f9, t.fq, *_conjugates(f9, line), (0, 0, 1)), 3))
    found = [[lf for lf in find_linear_factors(fq, P) if lf.ext <= max_ext]
             for fq, P, max_ext in cases]
    for lines, (fq, P, max_ext) in zip(found, cases):
        assert lines == lines_by_enumeration(fq, P, max_ext)
    # each kind of extension line is present among the cases
    assert {lf.ext for lines in found for lf in lines} == {1, 2, 3}


def test_find_linear_factors_split_cubic_searches_only_fq(towers, monkeypatch):
    # (4, 2) at q = 7 is on the square branch: the cube of one F_7 line, so
    # every restriction splits over F_7 and no extension field is built
    t = towers[7]
    degrees = []

    def spy(base, degree):
        degrees.append(degree)
        return standard_extension(base, degree)

    monkeypatch.setattr(curves, "standard_extension", spy)
    assert find_linear_factors(t.fq, build_F_det(t, 4, 2)) == [LineFactor((1, 2, 4), 1)]
    assert degrees and all(d < 2 for d in degrees)


@pytest.mark.parametrize("p, pair, ext2_lines", [
    (23, (1, 4), []),
    # the trace line and an F_{q^2}-conjugate pair
    (23, (1, 11), [(1, 195, 356), (1, 356, 195)]),
    (5, (1, 2), [(1, 7, 22), (1, 22, 7)]),
])
def test_find_linear_factors_skips_fq2_on_a_cubic_with_no_fq_line(monkeypatch, p, pair,
                                                                 ext2_lines):
    # (1, 4) at q = 23 is off every locus and a restriction of its cubic
    # leaves an irreducible quadratic over F_q, yet a line over F_{q^2} would
    # come with its conjugate and an F_q line, so F_{q^2} is not built; a
    # cubic with an F_q line still searches F_{q^2}
    t = build_tower(p, 1)
    F = build_F_det(t, *pair)
    degrees, left = [], []
    original = curves._degree_without_roots

    def spy_extension(base, degree):
        degrees.append(degree)
        return standard_extension(base, degree)

    def spy_degree(f, poly, roots):
        left.append(original(f, poly, roots))
        return left[-1]

    monkeypatch.setattr(curves, "standard_extension", spy_extension)
    monkeypatch.setattr(curves, "_degree_without_roots", spy_degree)
    lines = find_linear_factors(t.fq, F)
    assert 2 in left
    assert sorted(set(degrees)) == ([1, 2] if ext2_lines else [1])
    assert [lf.coeffs for lf in lines if lf.ext == 2] == ext2_lines
    f2 = standard_extension(t.fq, 2)
    assert [tuple(f2.frob(c, 1) for c in line) for line in ext2_lines] == ext2_lines[::-1]
    if not ext2_lines:
        assert lines == [] and verify_branch_factorization(t, *pair, F)["ok"] is None


def test_transform_H_properties(towers):
    for q in (5, 7):
        t = towers[q]
        xi = find_normal_element(t)
        rng = random.Random(q)
        for _ in range(25):
            A, B = rng.randrange(q), rng.randrange(q)
            H = transform_H(t, build_F_det(t, A, B), xi)
            assert max(H) < q
            roots = np.count_nonzero(det_sweep(t, A, B) == 0)
            assert count_nonzero_fq_zeros(t.fq, H) == roots


@pytest.mark.parametrize("q", (5, 7, 9, 25))
def test_transform_H_equals_the_substitution(towers, q):
    # the cached matrix form against substitute_linear, at two normal
    # elements, on every pair, or on 20 sampled pairs at q = 25 (m = 2)
    t = towers[q]
    f3 = t.fq3

    def conjugates(c):
        return c, f3.frob(c, 1), f3.frob(c, 2)

    first = find_normal_element(t)
    second = next(c for c in range(first + 1, f3.order)
                  if det3(t.fq, [f3.coords(x) for x in conjugates(c)]))
    pairs = range(q * q) if q < 25 else random.Random(q).sample(range(q * q), 20)
    for a, b in (divmod(pair, q) for pair in pairs):
        G = build_F_det(t, a, b)
        for xi in (first, second):  # alternating, so each reads its own matrix
            x0, x1, x2 = conjugates(xi)
            oracle = substitute_linear(f3, G, ((x0, x1, x2), (x1, x2, x0), (x2, x0, x1)))
            assert max(oracle) < q
            assert transform_H(t, G, xi) == oracle


def test_point_count_examples(towers):
    t = towers[5]
    xi = find_normal_element(t)
    assert count_nonzero_fq_zeros(t.fq, transform_H(t, build_F_det(t, 2, 1), xi)) == 0
    assert count_nonzero_fq_zeros(t.fq, transform_H(t, build_F_det(t, 2, 2), xi)) > 0


def _grid_count(field, P):
    """Zeros of P on the full grid F_q^3 minus the origin."""
    codes = np.arange(field.order)
    vals = _evaluate(field, P, codes[:, None, None], codes[None, :, None], codes[None, None, :])
    return int(np.count_nonzero(vals == 0)) - 1


@pytest.mark.parametrize("q", (5, 7, 9))
def test_point_count_matches_the_full_grid(towers, q):
    t = towers[q]
    xi = find_normal_element(t)
    for a in range(q):
        for b in range(q):
            H = transform_H(t, build_F_det(t, a, b), xi)
            assert count_nonzero_fq_zeros(t.fq, H) == _grid_count(t.fq, H)
    zero = (0,) * 10
    assert count_nonzero_fq_zeros(t.fq, zero) == _grid_count(t.fq, zero) == q ** 3 - 1


def test_irreducible_nonplanar_curves_have_points(towers):
    # irreducible non-planar curves must carry rational points (q = 5 slice)
    t = towers[5]
    xi = find_normal_element(t)
    rep = scan(t, methods=("theorem",))
    for r in rep.pairs:
        if r["verdicts"]["theorem"]:
            continue
        F = build_F_det(t, r["A"], r["B"])
        if not any(F) or find_linear_factors(t.fq, F):
            continue
        assert count_nonzero_fq_zeros(t.fq, transform_H(t, F, xi)) > 0


def test_fq_line_with_kernel_blocks_planarity(towers):
    # any F_q line of the cubic whose coefficient triple has the zero
    # criterion forces a determinant root
    from planarq.linearized import has_nonzero_root_subfield_coeffs
    from planarq.planarity import is_planar_det

    t = towers[7]
    for a in range(7):
        for b in range(7):
            F = build_F_det(t, a, b)
            if not any(F):
                continue
            for lf in [lf for lf in find_linear_factors(t.fq, F) if lf.ext <= 1]:
                u, v, w = lf.coeffs
                if has_nonzero_root_subfield_coeffs(t.fq, w, v, u):
                    assert not is_planar_det(t, a, b)[0]


@pytest.mark.parametrize("q", (3, 5, 9, 25))
def test_coefficient_arrays_match_the_single_pair_cubics(towers, q):
    t = towers[q]
    A, B = np.divmod(np.arange(q * q), q)
    det = np.stack(np.broadcast_arrays(*_det_coeffs(t.fq, A, B)), axis=1)
    paper = np.stack(np.broadcast_arrays(*_paper_coeffs(t.fq, A, B)), axis=1)
    for a, b, d, p in zip(A.tolist(), B.tolist(), det.tolist(), paper.tolist()):
        assert tuple(d) == build_F_det(t, a, b)
        assert tuple(p) == build_F_paper(t, a, b)


def test_array_coefficient_evaluation_matches_evaluate(towers):
    t = towers[25]
    f3 = t.fq3
    rng = np.random.default_rng(5)
    n = 300
    # coefficients in F_q with many zeros and ones, points anywhere in F_{q^3}
    coeffs = rng.integers(0, t.q, size=(10, n))
    coeffs[rng.random((10, n)) < 0.3] = 0
    coeffs[rng.random((10, n)) < 0.2] = 1
    X, Y, T = rng.integers(0, f3.order, size=(3, n))
    got = _evaluate(f3, list(coeffs), X, Y, T)
    # one point at a time, with int coefficients: the scalar path of _evaluate
    want = [int(_evaluate(f3, coeffs[:, i].tolist(), X[i], Y[i], T[i])) for i in range(n)]
    assert got.tolist() == want


@pytest.mark.parametrize("q", (3, 5, 7, 9, 11, 13))
def test_pair_cubic_and_H_count_the_same_points(towers, q):
    check_one_curve(towers[q])


@pytest.mark.parametrize("q", (3, 5, 7, 9, 11, 13))
def test_F_det_has_a_line_exactly_on_the_loci(towers, q):
    check_lines_exactly_on_the_loci(towers[q])
