"""Randomized/exhaustive identity batteries wiring the modules together.

Each battery checks one structural identity across many (A, B, C) choices:
the determinant/cubic identity, the X <-> Y relation between the published
and determinant-derived cubics, the nonzero-kernel criterion against brute
kernel enumeration, and the matrix-convention agreement.  A single seeded
stream drives all sampling, so runs are reproducible from (config, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .gf import Elt, FieldTower
from .linearized import (
    LinTriple,
    brute_kernel,
    dickson_matrix,
    difference_matrix_direct,
    difference_triple,
    has_nonzero_root_subfield_coeffs,
)

_EXHAUSTIVE_TRIPLES = 4096  # below this many (A, B, C) triples, just do them all


@dataclass(frozen=True)
class BatteryResult:
    name: str
    passed: bool
    checked: int
    failures: tuple = ()

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = "" if self.passed else f"  failures(sample)={list(self.failures)}"
        return f"{self.name}: {status} ({self.checked} checks){extra}"


def _sample_triples(tower: FieldTower, samples: int, rng: random.Random):
    q, n = tower.q, tower.order_top
    if q * q * n <= _EXHAUSTIVE_TRIPLES:
        for a in range(q):
            for b in range(q):
                for c in range(n):
                    yield a, b, c
    else:
        for _ in range(samples):
            yield rng.randrange(q), rng.randrange(q), rng.randrange(n)


def battery_det_identity(tower: FieldTower, samples: int, rng: random.Random) -> BatteryResult:
    """det of the difference matrix == determinant cubic at (C, C^q, C^(q^2)),
    with the value landing in F_q, across sampled or exhaustive triples."""
    from .curves import build_F_det
    from .planarity import _dets_at

    f3 = tower.fq3
    triples = sorted(_sample_triples(tower, samples, rng))
    A, B, C = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    lhs = _dets_at(tower, A, B, C)
    # each pair's cubic, evaluated once on the array of its shifts
    rhs = np.empty_like(lhs)
    F1, F2 = f3.frob_table(1), f3.frob_table(2)
    for a, b in dict.fromkeys(zip(A.tolist(), B.tolist())):
        at = (A == a) & (B == b)
        F = build_F_det(tower, tower.eq(a), tower.eq(b)).in_field(f3)
        c = C[at]
        rhs[at] = F.evaluate(c, F1[c], F2[c])
    bad = np.flatnonzero((lhs != rhs) | (rhs >= tower.q))
    failures = [triples[i] for i in bad[:5]]
    return BatteryResult("determinant identity", not failures, len(triples),
                         tuple(failures))


def battery_swap_relation(tower: FieldTower) -> BatteryResult:
    """published cubic == determinant cubic with X and Y exchanged, all (A, B)."""
    from .curves import build_F_det, build_F_paper

    q = tower.q
    failures = []
    for a in range(q):
        for b in range(q):
            A, B = tower.eq(a), tower.eq(b)
            if build_F_paper(tower, A, B) != build_F_det(tower, A, B).swap_xy():
                failures.append((a, b))
    return BatteryResult("X<->Y coefficient relation", not failures, q * q,
                         tuple(failures[:5]))


def battery_root_criterion(tower: FieldTower, samples: int, rng: random.Random) -> BatteryResult:
    """cubic-sum kernel criterion == (brute kernel bigger than {0}), F_q coefficients."""
    q = tower.q
    f3 = tower.fq3
    if q ** 3 <= _EXHAUSTIVE_TRIPLES:
        triples = [(a, b, g) for a in range(q) for b in range(q) for g in range(q)]
    else:
        # each sample costs a full O(q^3) kernel enumeration; cap the budget
        triples = [(rng.randrange(q), rng.randrange(q), rng.randrange(q))
                   for _ in range(min(samples, 400))]
    failures = []
    for a, b, g in triples:
        crit = has_nonzero_root_subfield_coeffs(tower.eq(a), tower.eq(b), tower.eq(g))
        # the map is alpha*x^(q^2) + beta*x^q + gamma*x
        L = LinTriple(Elt(f3, g), Elt(f3, b), Elt(f3, a))
        if crit != (len(brute_kernel(L)) > 1):
            failures.append((a, b, g))
    return BatteryResult("kernel criterion vs brute kernel", not failures,
                         len(triples), tuple(failures[:5]))


def battery_matrix_convention(tower: FieldTower, samples: int, rng: random.Random) -> BatteryResult:
    """dickson_matrix of the difference triple == entry-by-entry transcription."""
    n = tower.order_top
    q = tower.q
    failures = []
    count = min(samples, 256)
    for _ in range(count):
        a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(n)
        A, B, C = tower.eq(a), tower.eq(b), tower.eq3(c)
        if dickson_matrix(difference_triple(tower, A, B, C)) != \
                difference_matrix_direct(tower, A, B, C):
            failures.append((a, b, c))
    return BatteryResult("matrix convention", not failures, count, tuple(failures[:5]))


def run_identities(tower: FieldTower, samples: int = 1000, seed: int = 0) -> list[BatteryResult]:
    """Run every battery with one seeded stream; returns per-battery results."""
    rng = random.Random(seed)
    return [
        battery_det_identity(tower, samples, rng),
        battery_swap_relation(tower),
        battery_root_criterion(tower, samples, rng),
        battery_matrix_convention(tower, samples, rng),
    ]
