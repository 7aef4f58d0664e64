"""Identity batteries: each one reports exactly the triples or pairs that a
tampered component gets wrong, the first five in battery order."""

import random

import numpy as np
import pytest

import planarq.curves as curves
import planarq.identities as identities
import planarq.planarity as planarity
from planarq.identities import (
    battery_det_identity,
    battery_matrix_convention,
    battery_root_criterion,
    battery_swap_relation,
)


def _hit(points, *codes):
    """Mask of the entries of the code arrays that form one of the points."""
    hit = np.zeros(np.broadcast_shapes(*(np.shape(c) for c in codes)), dtype=bool)
    for point in points:
        at = np.ones_like(hit)
        for code, value in zip(codes, point):
            at &= np.asarray(code) == value
        hit |= at
    return hit


# one point, then six points out of order: the report keeps the first five
_PAIRS = ([(3, 1)], [(4, 4), (0, 2), (2, 0), (1, 3), (0, 0), (2, 4)])
_TRIPLES = ([(2, 0, 1)], [(4, 0, 3), (0, 1, 0), (3, 3, 3), (0, 0, 4), (1, 2, 0), (2, 2, 2)])
_SHIFTS = ([(1, 2, 5)], [(2, 2, 26), (0, 0, 1), (1, 0, 13), (0, 2, 7), (2, 1, 0), (1, 1, 1)])


@pytest.mark.parametrize("pairs", _PAIRS)
def test_swap_battery_reports_perturbed_pairs(towers, monkeypatch, pairs):
    original = curves._paper_coeffs

    def perturbed(fq, a, b):
        coeffs = original(fq, a, b)
        coeffs[4] = np.where(_hit(pairs, a, b), fq.add_vec(coeffs[4], 1), coeffs[4])
        return coeffs

    monkeypatch.setattr(curves, "_paper_coeffs", perturbed)
    r = battery_swap_relation(towers[5])
    assert not r.passed and r.checked == 25
    assert r.failures == tuple(sorted(pairs)[:5])


@pytest.mark.parametrize("triples", _TRIPLES)
def test_root_battery_reports_flipped_criteria(towers, monkeypatch, triples):
    original = identities.has_nonzero_root_subfield_coeffs

    def flipped(f, a, b, g):
        return original(f, a, b, g) ^ _hit(triples, a, b, g)

    monkeypatch.setattr(identities, "has_nonzero_root_subfield_coeffs", flipped)
    r = battery_root_criterion(towers[5], samples=0, rng=random.Random(0))
    assert not r.passed and r.checked == 125
    assert r.failures == tuple(sorted(triples)[:5])


@pytest.mark.parametrize("shifts", _SHIFTS)
def test_det_battery_reports_altered_determinants(towers, monkeypatch, shifts):
    original = planarity._det_coefficients
    constant = curves._MIDX[0, 0, 3]  # the row of A^0 B^0

    def altered(tower, c):
        m = original(tower, c)
        # at q = 3 the battery takes every triple, in code order
        a, b, _ = np.unravel_index(np.arange(len(c)), (3, 3, 27))
        m[constant] = np.where(_hit(shifts, a, b, c), tower.fq.add_vec(m[constant], 1),
                               m[constant])
        return m

    monkeypatch.setattr(planarity, "_det_coefficients", altered)
    r = battery_det_identity(towers[3], samples=0, rng=random.Random(0))
    assert not r.passed and r.checked == 9 * 27
    assert r.failures == tuple(sorted(shifts)[:5])


def _sampled_shifts(seed, count, q, n):
    rng = random.Random(seed)
    return [(rng.randrange(q), rng.randrange(q), rng.randrange(n)) for _ in range(count)]


# indices into the battery's sample sequence: one, then six out of order
_SAMPLED = ([4], [30, 2, 17, 9, 25, 11])


@pytest.mark.parametrize("picks", _SAMPLED)
def test_matrix_battery_reports_altered_transcriptions(towers, monkeypatch, picks):
    t = towers[5]
    sampled = _sampled_shifts(7, 40, t.q, t.order_top)
    points = {sampled[i] for i in picks}
    original = identities._direct_matrix

    def altered(f3, a, b, c):
        (m00, *row0), *rows = original(f3, a, b, c)
        m00 = np.where(_hit(points, a, b, c), f3.add_vec(m00, 1), m00)
        return ((m00, *row0), *rows)

    monkeypatch.setattr(identities, "_direct_matrix", altered)
    r = battery_matrix_convention(t, samples=40, rng=random.Random(7))
    assert not r.passed and r.checked == 40
    assert r.failures == tuple(s for s in sampled if s in points)[:5]


def test_batteries_pass_and_time_themselves(towers):
    results = identities.run_identities(towers[9], samples=50, seed=3)
    assert [r.passed for r in results] == [True] * 4
    assert all(r.seconds > 0 for r in results)


@pytest.mark.parametrize("samples", [0, -5])
def test_run_identities_refuses_fewer_than_one_sample(towers, samples):
    # with no samples the sampled batteries would pass on zero checks
    with pytest.raises(ValueError, match="samples must be at least 1"):
        identities.run_identities(towers[11], samples=samples)
