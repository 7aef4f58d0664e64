"""Whole-range cross-checks, opt-in with ``pytest --exhaustive`` (minutes each).

Without the option the tests marked ``exhaustive`` are skipped, so the
default selection is unchanged.
"""

import math

import pytest

from planarq import build_tower
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
@pytest.mark.parametrize("p, m", [(17, 1), (5, 2)], ids=["q17", "q25"])
def test_triple_scan_agrees(p, m):
    rep = scan(build_tower(p, m), methods=ALL_METHODS)
    _assert_count_and_agreement(rep)


@pytest.mark.exhaustive
@pytest.mark.parametrize("p, m", ADMISSIBLE, ids=[f"q{p ** m}" for p, m in ADMISSIBLE])
def test_det_scan_at_every_admissible_q(p, m):
    rep = scan(build_tower(p, m), methods=("theorem", "det"))
    _assert_count_and_agreement(rep)


def test_admissible_q_list():
    qs = sorted(p ** m for p, m in ADMISSIBLE)
    assert len(qs) == 53 + 9
    assert [q for q in qs if not _is_prime(q)] == [9, 25, 27, 49, 81, 121, 125, 169, 243]
