"""Whole-range cross-checks, opt-in with ``pytest --exhaustive`` (minutes each).

Without the option the tests marked ``exhaustive`` are skipped, so the
default selection is unchanged.
"""

import math

import pytest
from conftest import (check_det_coefficients, check_det_deciders_agree, check_kernel_criterion,
                      check_lines_exactly_on_the_loci, check_one_curve, lines_by_enumeration)

from planarq import build_tower
from planarq.curves import build_F_det, find_linear_factors
from planarq.gf import DEFAULT_MAX_Q3, _is_prime
from planarq.planarity import ALL_METHODS, scan


def _admissible():
    """Every (p, m) with p an odd prime and q = p^m, q^3 <= 2^24: the 53 odd
    primes up to 251 and q = 9, 25, 27, 49, 81, 121, 125, 169, 243."""
    out = []
    for p in filter(_is_prime, range(3, 256, 2)):
        m = 1
        while p ** (3 * m) <= DEFAULT_MAX_Q3:
            out.append((p, m))
            m += 1
    return out


ADMISSIBLE = _admissible()


def _assert_count_and_agreement(rep):
    assert rep.disagreements == []
    assert rep.planar_count == 3 * rep.q - 2 - 4 * math.gcd(3, rep.q - 1)


@pytest.mark.exhaustive
@pytest.mark.parametrize("p, m", [(17, 1), (5, 2), (3, 3), (31, 1)],
                         ids=["q17", "q25", "q27", "q31"])
def test_triple_scan_agrees(p, m):
    rep = scan(build_tower(p, m), methods=ALL_METHODS)
    _assert_count_and_agreement(rep)


@pytest.mark.exhaustive
@pytest.mark.parametrize("p, m", ADMISSIBLE, ids=[f"q{p ** m}" for p, m in ADMISSIBLE])
def test_det_scan_at_every_admissible_q(p, m):
    rep = scan(build_tower(p, m), methods=("theorem", "det"))
    _assert_count_and_agreement(rep)


@pytest.mark.exhaustive
@pytest.mark.parametrize("p, m", [(5, 2), (3, 3)], ids=["q25", "q27"])
def test_kernel_criterion_on_every_subfield_triple(p, m):
    check_kernel_criterion(build_tower(p, m))


@pytest.mark.exhaustive
@pytest.mark.parametrize("p, m", [(31, 1), (7, 2), (3, 4), (11, 2), (5, 3), (13, 2), (3, 5),
                                  (251, 1)],
                         ids=["q31", "q49", "q81", "q121", "q125", "q169", "q243", "q251"])
def test_det_coefficients_past_tier1(p, m):
    # tier-1 checks q = 3 to 13, 25 and 27
    check_det_coefficients(build_tower(p, m))


@pytest.mark.exhaustive
@pytest.mark.parametrize("p, m", [(3, 3), (31, 1), (7, 2)], ids=["q27", "q31", "q49"])
def test_is_planar_det_equals_det_witnesses_past_tier1(p, m):
    # tier-1 checks q = 25
    check_det_deciders_agree(build_tower(p, m))


@pytest.mark.exhaustive
@pytest.mark.parametrize("p, m", [(3, 2), (11, 1)], ids=["q9", "q11"])
def test_line_oracle_over_fq2_on_every_pair(p, m):
    # tier-1 checks q = 5 and 7
    t = build_tower(p, m)
    for a in range(t.q):
        for b in range(t.q):
            F = build_F_det(t, a, b)
            if any(F):
                lines = [lf for lf in find_linear_factors(t.fq, F) if lf.ext <= 2]
                assert lines == lines_by_enumeration(t.fq, F, 2), (a, b)


@pytest.mark.exhaustive
@pytest.mark.parametrize("p, m", [(5, 2), (3, 3)], ids=["q25", "q27"])
def test_pair_cubic_and_H_count_the_same_points_past_tier1(p, m):
    # tier-1 checks q = 3 to 13
    check_one_curve(build_tower(p, m))


@pytest.mark.exhaustive
@pytest.mark.parametrize("p, m", [(23, 1), (5, 2), (3, 3), (7, 2)],
                         ids=["q23", "q25", "q27", "q49"])
def test_F_det_has_a_line_exactly_on_the_loci_past_tier1(p, m):
    # tier-1 checks q = 3 to 13
    check_lines_exactly_on_the_loci(build_tower(p, m))


def test_admissible_q_list():
    qs = sorted(p ** m for p, m in ADMISSIBLE)
    assert len(qs) == 53 + 9
    assert [q for q in qs if not _is_prime(q)] == [9, 25, 27, 49, 81, 121, 125, 169, 243]
