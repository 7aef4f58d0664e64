"""Coefficient matrices, permutation and kernel criteria for linearized maps."""

import itertools
import random

import numpy as np
import pytest
from conftest import check_kernel_criterion

from planarq import LevelMismatch
from planarq.cli import main
from planarq.errors import Disagreement
from planarq.gf import det3
import planarq.linearized as linearized
from planarq.linearized import (
    brute_kernel,
    dickson_matrix,
    difference_matrix_direct,
    difference_triple,
    has_nonzero_root_subfield_coeffs,
    kernel_sizes,
)


def test_matrix_of_subfield_triple(towers):
    # all-subfield coefficients (gamma, beta, alpha) give the circulant-style
    # pattern (g b a / a g b / b a g)
    t = towers[5]
    g, b, a = 1, 2, 3
    M = dickson_matrix(t.fq3, g, b, a)
    assert M == ((g, b, a), (a, g, b), (b, a, g))


def test_matrix_identity_map(towers):
    t = towers[5]
    M = dickson_matrix(t.fq3, 1, 0, 0)
    assert M == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_matrix_matches_direct_transcription(towers):
    # every triple at q = 3, 100 sampled ones at q = 5 and 9
    for q in (3, 5, 9):
        t = towers[q]
        if q == 3:
            triples = list(itertools.product(range(3), range(3), range(27)))
        else:
            rng = random.Random(3)
            triples = [(rng.randrange(t.q), rng.randrange(t.q), rng.randrange(t.order_top))
                       for _ in range(100)]
        direct = [difference_matrix_direct(t, A, B, C) for A, B, C in triples]
        for (A, B, C), M in zip(triples, direct):
            assert dickson_matrix(t.fq3, *difference_triple(t, A, B, C)) == M
        # the array core, entry by entry, against the int transcription
        cells = linearized._direct_matrix(t.fq3, *np.array(triples, dtype=np.int64).T)
        for i in range(3):
            for j in range(3):
                assert cells[i][j].tolist() == [M[i][j] for M in direct]


def test_det3_basics(towers):
    t = towers[5]
    f = t.fq3
    ident = tuple(tuple(1 if i == j else 0 for j in range(3)) for i in range(3))
    assert det3(f, ident) == 1
    row, other = (7, 11, 2), (1, 3, 9)
    assert det3(f, (row, row, other)) == 0
    # ints give a Python int, arrays an int64 array of the same values
    mats = (ident, (row, row, other), (row, other, (4, 0, 5)), dickson_matrix(f, 2, 1, 1))
    dets = [det3(f, M) for M in mats]
    assert all(type(d) is int for d in dets)
    stacked = tuple(tuple(np.array([M[i][j] for M in mats]) for j in range(3)) for i in range(3))
    got = det3(f, stacked)
    assert got.dtype == np.int64 and got.tolist() == dets
    # row r varying along axis r: all 27 mixed determinants in one call
    rng = random.Random(3)
    options = [[tuple(rng.randrange(f.order) for _ in range(3)) for _ in range(3)]
               for _ in range(3)]  # options[r][s]: choice s for row r
    axes = ((3, 1, 1), (1, 3, 1), (1, 1, 3))
    mixed = det3(f, tuple(tuple(np.array([row[k] for row in options[r]]).reshape(axes[r])
                                for k in range(3)) for r in range(3)))
    assert mixed.shape == (3, 3, 3)
    for s in itertools.product(range(3), repeat=3):
        assert mixed[s] == det3(f, tuple(options[r][s[r]] for r in range(3)))


def test_det3_hand_value(towers):
    # difference matrix at (A, B, C) = (2, 1, 1) over q = 5 reduces to the
    # integer matrix [[0,2,1],[1,0,2],[2,1,0]], determinant 9 = 4 mod 5
    t = towers[5]
    L = difference_triple(t, 2, 1, 1)
    assert det3(t.fq3, dickson_matrix(t.fq3, *L)) == 4


def test_determinant_lies_in_subfield(towers):
    t = towers[5]
    f = t.fq3
    rng = random.Random(5)
    for _ in range(200):
        A, B = rng.randrange(5), rng.randrange(5)
        C = rng.randrange(125)
        d = int(det3(f, dickson_matrix(f, *difference_triple(t, A, B, C))))
        assert f.frob(d, 1) == d
        assert d < t.q


def test_is_permutation_examples(towers):
    t = towers[5]
    f = t.fq3
    assert det3(f, dickson_matrix(f, 1, 0, 0)) != 0
    assert det3(f, dickson_matrix(f, 1, 1, 1)) == 0  # trace map onto F_q


def test_permutation_matches_image_count(towers):
    t = towers[3]
    f = t.fq3
    rng = random.Random(9)
    for _ in range(60):
        c0, c1, c2 = rng.randrange(27), rng.randrange(27), rng.randrange(27)
        image = np.unique(f.add_vec(f.add_vec(f.mul_vec(c0, np.arange(f.order)),
                                              f.mul_vec(c1, f.frob_table(1))),
                                    f.mul_vec(c2, f.frob_table(2))))
        nonsingular = det3(f, dickson_matrix(f, c0, c1, c2)) != 0
        assert nonsingular == (len(image) == f.order)
        assert nonsingular == (len(brute_kernel(f, c0, c1, c2)) == 1)


def test_kernel_structure(towers):
    t = towers[5]
    f = t.fq3
    ker = brute_kernel(f, 1, 1, 1)
    assert len(ker) == t.q ** 2  # trace kernel
    assert ker[0] == 0
    assert brute_kernel(f, 1, 0, 0) == [0]
    rng = random.Random(1)
    for _ in range(40):
        n = len(brute_kernel(f, rng.randrange(125), rng.randrange(125), rng.randrange(125)))
        assert n in (1, t.q, t.q ** 2, t.q ** 3)


def test_root_criterion_examples(towers):
    t = towers[5]
    assert has_nonzero_root_subfield_coeffs(t.fq, 1, 1, 1)
    assert not has_nonzero_root_subfield_coeffs(t.fq, 1, 0, 0)


def test_root_criterion_squared_pattern(towers):
    # (alpha, beta, gamma) = (A^2, 1, A): the criterion value is (A^3 - 1)^2
    for q in (5, 7):
        t = towers[q]
        fq = t.fq
        for a in range(q):
            a2 = fq.mul(a, a)
            crit = has_nonzero_root_subfield_coeffs(t.fq, a2, 1, a)
            assert crit == (fq.pow(a, 3) == 1)


def test_root_criterion_vs_kernel_exhaustive_q3(towers):
    t = towers[3]
    f = t.fq3
    for a in range(3):
        for b in range(3):
            for g in range(3):
                crit = has_nonzero_root_subfield_coeffs(t.fq, a, b, g)
                assert crit == (len(brute_kernel(f, g, b, a)) > 1)


def test_map_entry_points_check_code_levels(towers):
    t = towers[5]
    for entry in (dickson_matrix, brute_kernel):
        want = entry(t.fq3, 1, 7, 124)
        assert entry(t.fq3, np.int64(1), np.int64(7), np.int64(124)) == want
        with pytest.raises(LevelMismatch):
            entry(t.fq, 1, 0, 0)  # coefficients of F_q, not of F_{q^3}
        for c in (t.order_top, -1):
            with pytest.raises(LevelMismatch):
                entry(t.fq3, 1, 0, c)


@pytest.mark.parametrize("q", (3, 5, 9))
def test_kernel_sizes_match_brute_kernel_on_every_subfield_triple(towers, q):
    t = towers[q]
    alpha, beta, gamma = np.unravel_index(np.arange(q ** 3), (q, q, q))
    sizes = kernel_sizes(t.fq3, gamma, beta, alpha)
    for a, b, g, size in zip(alpha.tolist(), beta.tolist(), gamma.tolist(), sizes.tolist()):
        assert size == len(brute_kernel(t.fq3, g, b, a))


def test_kernel_sizes_in_small_chunks_on_full_field_coefficients(towers, monkeypatch):
    # coefficients anywhere in F_{q^3}, and chunks far smaller than one x-slice
    monkeypatch.setattr(linearized, "_KERNEL_CHUNK", 37)
    t = towers[5]
    rng = np.random.default_rng(11)
    c0, c1, c2 = rng.integers(0, t.fq3.order, size=(3, 60))
    c1[:20] = 0  # maps with repeated and zero coefficients
    diffs = [difference_triple(t, a, b, c)
             for a, b, c in ((1, 1, 1), (2, 1, 7), (0, 0, 3))]
    c0, c1, c2 = (np.concatenate([c, d]) for c, d in zip((c0, c1, c2), zip(*diffs)))
    sizes = kernel_sizes(t.fq3, c0, c1, c2)
    want = [len(brute_kernel(t.fq3, *c)) for c in zip(c0, c1, c2)]
    assert sizes.tolist() == want
    assert max(want) > 1


@pytest.mark.parametrize("q", (3, 5, 7, 9, 11, 13))
def test_kernel_criterion_on_every_subfield_triple(towers, q):
    check_kernel_criterion(towers[q])


@pytest.mark.parametrize("q", (3, 5, 9))
def test_kernel_sizes_on_every_zero_pattern(towers, q):
    # each of the 8 patterns of zero coefficients, the zero map (kernel F)
    # included, on random nonzero codes and on x - x^q, x - x^(q^2), x^q - x^(q^2)
    t = towers[q]
    f, minus = t.fq3, t.fq3.from_int(-1)
    rng = np.random.default_rng(q)
    maps = [(1, minus, 0), (1, 0, minus), (0, 1, minus)]
    for pattern in itertools.product((0, 1), repeat=3):
        for c in rng.integers(1, f.order, size=(10, 3)):
            maps.append(tuple(int(v) if keep else 0 for v, keep in zip(c, pattern)))
    sizes = kernel_sizes(f, *np.array(maps).T)
    assert sizes.tolist() == [len(brute_kernel(f, *c)) for c in maps]
    assert sizes[:3].tolist() == [q, q, q]
    assert sizes[3:13].tolist() == [f.order] * 10  # pattern (0, 0, 0)


@pytest.mark.parametrize("q", (3, 5, 9))
def test_log_and_zech_tables_on_every_nonzero_code(towers, q):
    f = towers[q].fq3
    g, (log, zech) = linearized._generator(f), linearized._log_tables(f)
    n = f.order - 1
    assert log.dtype == zech.dtype == np.int32 and log[0] == n
    assert [f.pow(g, int(log[x])) for x in range(1, f.order)] == list(range(1, f.order))
    assert zech.tolist() == [log[f.add(1, f.pow(g, d))] for d in range(n)]


def test_kernel_sizes_refuse_tables_of_a_non_generator(towers, monkeypatch):
    # a code of F_q generates no more than F_q^*, so its powers miss most of
    # F_{q^3}^*: the table check raises instead of counting, and the battery
    # that counts kernels exits 2
    monkeypatch.setattr(linearized, "_generator", lambda f: 2)
    t = towers[5]
    with pytest.raises(Disagreement):
        kernel_sizes(t.fq3, [1], [1], [1])
    assert main(["identities", "--p", "5", "--samples", "10"]) == 2


def test_kernel_sizes_check_code_levels(towers):
    t = towers[5]
    assert kernel_sizes(t.fq3, [], [], []).tolist() == []
    with pytest.raises(LevelMismatch):
        kernel_sizes(t.fq, [1], [0], [0])  # coefficients of F_q, not of F_{q^3}
    for c in (t.order_top, -1):
        with pytest.raises(LevelMismatch):
            kernel_sizes(t.fq3, [1], [0], [c])


def test_cubic_sum_on_arrays_matches_the_criterion(towers):
    t = towers[7]
    a, b, g = np.unravel_index(np.arange(343), (7, 7, 7))
    zero = has_nonzero_root_subfield_coeffs(t.fq, a, b, g)
    assert zero.tolist() == [has_nonzero_root_subfield_coeffs(t.fq, x, y, z)
                             for x, y, z in zip(a.tolist(), b.tolist(), g.tolist())]
