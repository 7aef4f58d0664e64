"""Randomized/exhaustive identity batteries wiring the modules together.

Each battery checks one structural identity across many (A, B, C) choices,
each in a few whole-array passes over all of its pairs or triples, against
an oracle of its own:

* the determinant identity: the table both determinant deciders read
  (``planarity._det_table``, at each triple through ``_det_coefficients``)
  equals the Leibniz-expanded determinant cubic at (C, C^q, C^(q^2)), every
  sampled shift evaluated against its pair's coefficient arrays at once;
* the X <-> Y relation: the published cubic equals the Leibniz expansion
  with X and Y exchanged, as coefficient arrays over all q^2 pairs;
* the nonzero-kernel criterion against brute kernel enumeration
  (``linearized.kernel_sizes``, every map tested at every x, x running over
  the powers of a generator on per-call log and Zech tables);
* the matrix convention: ``_dickson`` of ``_difference_coeffs``, the very
  cores whose ``gf.det3`` the determinant oracle ``_dets_at`` takes, run on
  the arrays of all sampled triples at once, against the entry-by-entry
  transcription ``_direct_matrix`` on the same arrays.

A single seeded stream drives all sampling, so runs are reproducible from
(config, seed).  The determinant and kernel batteries take their triples
from ``_triples`` (all of them, or a seeded draw), the matrix battery a
capped draw, and each reports its first five failures, in battery order.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import time
from dataclasses import dataclass

import numpy as np

from .gf import FieldTower, _check_enumerable
from .linearized import (
    _dickson,
    _difference_coeffs,
    _direct_matrix,
    has_nonzero_root_subfield_coeffs,
    kernel_sizes,
)

_EXHAUSTIVE_TRIPLES = 4096  # below this many (A, B, C) triples, just do them all


@dataclass(frozen=True)
class BatteryResult:
    name: str
    passed: bool
    checked: int
    failures: tuple = ()
    seconds: float = dataclasses.field(default=0.0, compare=False)

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = "" if self.passed else f"  failures(sample)={list(self.failures)}"
        return f"{self.name}: {status} ({self.checked} checks){extra}"


def _triples(rng: random.Random, sizes, count: int) -> list[tuple[int, int, int]]:
    """Every triple of codes below ``sizes``, in code order, when there are at
    most ``_EXHAUSTIVE_TRIPLES``; else ``count`` triples drawn from ``rng``,
    one code after another."""
    if math.prod(sizes) <= _EXHAUSTIVE_TRIPLES:
        return list(itertools.product(*map(range, sizes)))
    return [tuple(rng.randrange(s) for s in sizes) for _ in range(count)]


def _result(name: str, cases: list, bad) -> BatteryResult:
    """The battery's result over ``cases``, the bool array ``bad`` flagging
    those that fail; the first five of these, in battery order, are kept."""
    failures = tuple(cases[i] for i in np.flatnonzero(bad)[:5])
    return BatteryResult(name, not failures, len(cases), failures)


def battery_det_identity(tower: FieldTower, samples: int, rng: random.Random) -> BatteryResult:
    """The deciders' determinant table == determinant cubic at (C, C^q, C^(q^2)),
    with the value landing in F_q, across sampled or exhaustive triples."""
    from .curves import _det_coeffs, _evaluate
    from .planarity import _det_coefficients

    f3 = tower.fq3
    triples = sorted(_triples(rng, (tower.q, tower.q, tower.order_top), samples))
    A, B, C = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    lhs = _evaluate(tower.fq, _det_coefficients(tower, C), A, B, 1)
    # every triple's own pair cubic, as coefficient arrays, at its shift
    rhs = _evaluate(f3, _det_coeffs(tower.fq, A, B), C,
                    f3.frob_vec(C, 1), f3.frob_vec(C, 2))
    return _result("determinant identity", triples, (lhs != rhs) | (rhs >= tower.q))


def battery_swap_relation(tower: FieldTower) -> BatteryResult:
    """published cubic == determinant cubic with X and Y exchanged, all (A, B)."""
    from .curves import _SWAP_XY, _det_coeffs, _paper_coeffs

    q = tower.q
    A, B = np.divmod(np.arange(q * q, dtype=np.int64), q)
    det = _det_coeffs(tower.fq, A, B)
    bad = np.zeros(q * q, dtype=bool)
    for c, slot in zip(_paper_coeffs(tower.fq, A, B), _SWAP_XY):
        bad |= c != det[slot]
    return _result("X<->Y coefficient relation", list(zip(A.tolist(), B.tolist())), bad)


def battery_root_criterion(tower: FieldTower, samples: int, rng: random.Random) -> BatteryResult:
    """cubic-sum kernel criterion == (brute kernel bigger than {0}), F_q coefficients."""
    q = tower.q
    # each sample costs a full O(q^3) kernel enumeration; cap the budget
    triples = _triples(rng, (q, q, q), min(samples, 400))
    alpha, beta, gamma = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    crit = has_nonzero_root_subfield_coeffs(tower.fq, alpha, beta, gamma)
    # the map is alpha*x^(q^2) + beta*x^q + gamma*x
    nonzero_kernel = kernel_sizes(tower.fq3, gamma, beta, alpha) > 1
    return _result("kernel criterion vs brute kernel", triples, crit != nonzero_kernel)


def battery_matrix_convention(tower: FieldTower, samples: int, rng: random.Random) -> BatteryResult:
    """The matrix ``_dets_at`` takes the determinant of == the entry-by-entry
    transcription, on every sampled triple in one array pass."""
    q, n, f3 = tower.q, tower.order_top, tower.fq3
    triples = [(rng.randrange(q), rng.randrange(q), rng.randrange(n))
               for _ in range(min(samples, 256))]
    A, B, C = np.array(triples, dtype=np.int64).T
    bad = np.any(np.array(_dickson(f3, *_difference_coeffs(f3, A, B, C)))
                 != np.array(_direct_matrix(f3, A, B, C)), axis=(0, 1))
    return _result("matrix convention", triples, bad)


def run_identities(tower: FieldTower, samples: int = 1000, seed: int = 0) -> list[BatteryResult]:
    """Run every battery with one seeded stream; returns per-battery results,
    each with its wall time in ``seconds``.  ``samples`` must be at least 1,
    so that no sampled battery passes on zero checks."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    _check_enumerable(samples, "identity samples")
    rng = random.Random(seed)
    batteries = (
        lambda: battery_det_identity(tower, samples, rng),
        lambda: battery_swap_relation(tower),
        lambda: battery_root_criterion(tower, samples, rng),
        lambda: battery_matrix_convention(tower, samples, rng),
    )
    results = []
    for battery in batteries:
        start = time.perf_counter()
        result = battery()
        results.append(dataclasses.replace(result, seconds=time.perf_counter() - start))
    return results
