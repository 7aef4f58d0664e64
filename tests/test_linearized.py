"""Coefficient matrices, permutation and kernel criteria for linearized maps."""

import random

import numpy as np
import pytest

from planarq import Elt, LevelMismatch
from planarq.gf import det3
from planarq.linearized import (
    LinTriple,
    brute_kernel,
    dickson_matrix,
    difference_matrix_direct,
    difference_triple,
    has_nonzero_root_subfield_coeffs,
)


def _triple(t, c0, c1, c2):
    return LinTriple(t.eq3(c0), t.eq3(c1), t.eq3(c2))


def test_matrix_of_subfield_triple(towers):
    # all-subfield coefficients (gamma, beta, alpha) give the circulant-style
    # pattern (g b a / a g b / b a g)
    t = towers[5]
    g, b, a = 1, 2, 3
    M = dickson_matrix(_triple(t, g, b, a))
    assert M == ((g, b, a), (a, g, b), (b, a, g))


def test_matrix_identity_map(towers):
    t = towers[5]
    M = dickson_matrix(_triple(t, 1, 0, 0))
    assert M == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_matrix_matches_direct_transcription(towers):
    for q in (5, 9):
        t = towers[q]
        rng = random.Random(3)
        for _ in range(100):
            A, B = t.eq(rng.randrange(t.q)), t.eq(rng.randrange(t.q))
            C = t.eq3(rng.randrange(t.order_top))
            L = difference_triple(t, A, B, C)
            assert dickson_matrix(L) == difference_matrix_direct(t, A, B, C)


def test_det3_basics(towers):
    t = towers[5]
    f = t.fq3
    ident = tuple(tuple(1 if i == j else 0 for j in range(3)) for i in range(3))
    assert det3(f, ident) == 1
    row, other = (7, 11, 2), (1, 3, 9)
    assert det3(f, (row, row, other)) == 0


def test_det3_hand_value(towers):
    # difference matrix at (A, B, C) = (2, 1, 1) over q = 5 reduces to the
    # integer matrix [[0,2,1],[1,0,2],[2,1,0]], determinant 9 = 4 mod 5
    t = towers[5]
    L = difference_triple(t, t.eq(2), t.eq(1), t.eq3(1))
    assert det3(t.fq3, dickson_matrix(L)) == 4


def test_determinant_lies_in_subfield(towers):
    t = towers[5]
    f = t.fq3
    rng = random.Random(5)
    for _ in range(200):
        A, B = t.eq(rng.randrange(5)), t.eq(rng.randrange(5))
        C = t.eq3(rng.randrange(125))
        d = int(det3(f, dickson_matrix(difference_triple(t, A, B, C))))
        assert f.frob(d, 1) == d
        assert d < t.q


def test_is_permutation_examples(towers):
    t = towers[5]
    L = _triple(t, 1, 0, 0)
    assert det3(L.field, dickson_matrix(L)) != 0
    L = _triple(t, 1, 1, 1)  # trace map onto F_q
    assert det3(L.field, dickson_matrix(L)) == 0


def test_permutation_matches_image_count(towers):
    t = towers[3]
    f = t.fq3
    rng = random.Random(9)
    for _ in range(60):
        L = _triple(t, rng.randrange(27), rng.randrange(27), rng.randrange(27))
        image = np.unique(L.apply(np.arange(f.order)))
        nonsingular = det3(f, dickson_matrix(L)) != 0
        assert nonsingular == (len(image) == f.order)
        assert nonsingular == (len(brute_kernel(L)) == 1)


def test_kernel_structure(towers):
    t = towers[5]
    ker = brute_kernel(_triple(t, 1, 1, 1))
    assert len(ker) == t.q ** 2  # trace kernel
    assert ker[0].code == 0
    assert brute_kernel(_triple(t, 1, 0, 0)) == [t.eq3(0)]
    rng = random.Random(1)
    for _ in range(40):
        L = _triple(t, rng.randrange(125), rng.randrange(125), rng.randrange(125))
        n = len(brute_kernel(L))
        assert n in (1, t.q, t.q ** 2, t.q ** 3)


def test_root_criterion_examples(towers):
    t = towers[5]
    assert has_nonzero_root_subfield_coeffs(t.eq(1), t.eq(1), t.eq(1))
    assert not has_nonzero_root_subfield_coeffs(t.eq(1), t.eq(0), t.eq(0))


def test_root_criterion_squared_pattern(towers):
    # (alpha, beta, gamma) = (A^2, 1, A): the criterion value is (A^3 - 1)^2
    for q in (5, 7):
        t = towers[q]
        fq = t.fq
        for a in range(q):
            a2 = fq.mul(a, a)
            crit = has_nonzero_root_subfield_coeffs(t.eq(a2), t.eq(1), t.eq(a))
            assert crit == (fq.pow(a, 3) == 1)


def test_root_criterion_vs_kernel_exhaustive_q3(towers):
    t = towers[3]
    f = t.fq3
    for a in range(3):
        for b in range(3):
            for g in range(3):
                crit = has_nonzero_root_subfield_coeffs(t.eq(a), t.eq(b), t.eq(g))
                L = LinTriple(Elt(f, g), Elt(f, b), Elt(f, a))
                assert crit == (len(brute_kernel(L)) > 1)


def test_lintriple_level_checks(towers):
    t = towers[5]
    with pytest.raises(LevelMismatch):
        LinTriple(t.eq(1), t.eq(0), t.eq(0))
    with pytest.raises(LevelMismatch):
        difference_triple(t, t.eq3(1), t.eq(0), t.eq3(1))
