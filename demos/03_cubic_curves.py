"""The cubic-curve side: determinant identity, factorizations, point counts.

Planarity of a pair is equivalent to a homogeneous cubic in
(X, Y, T) = (C, C^q, C^(q^2)) having no nonzero "twisted" roots; reducible
cases split into lines and the rest is settled by counting rational points
after a normal-basis change of variables.

Run:  python demos/03_cubic_curves.py
"""

import numpy as np

from planarq import build_tower, find_normal_element
from planarq.curves import (
    MONOMIALS,
    _evaluate,
    build_F_det,
    build_F_paper,
    count_nonzero_fq_zeros,
    find_linear_factors,
    transform_H,
    verify_branch_factorization,
)
from planarq.gf import det3
from planarq.linearized import dickson_matrix, difference_triple
from planarq.planarity import _dets_at

tower = build_tower(5, 1)
A, B = 2, 1

# The cubic is regenerated symbolically from the coefficient matrix, never
# transcribed; evaluating it at (C, C^q, C^(q^2)) reproduces the determinant.
# A cubic is its ten coefficient codes, one per monomial X^i Y^j T^k of
# MONOMIALS, and its F_q codes are also codes of F_{q^3}.
F = build_F_det(tower, A, B)
terms = {mon: c for mon, c in zip(MONOMIALS, F) if c}
print(f"determinant cubic for (2, 1), nonzero terms: {terms}")
f3 = tower.fq3
det = det3(f3, dickson_matrix(f3, *difference_triple(tower, A, B, 1)))
value = _evaluate(f3, F, 1, f3.frob(1, 1), f3.frob(1, 2))
print(f"identity holds at C = 1: {bool(det == value and det < tower.q)}")

# The published bivariate form differs from the determinant expansion by an
# X <-> Y swap; both are kept and the relation is pinned.
swapped = tuple(F[MONOMIALS.index((j, i, k))] for i, j, k in MONOMIALS)
print(f"\nswap relation holds: {build_F_paper(tower, A, B) == swapped}")

# On a branch locus the cubic splits into lines, up to an explicit scalar.
rep = verify_branch_factorization(tower, A, B, F)
for check in rep["checks"]:
    print(f"locus {check['name']}: verified={check['verified']} scalar={check['scalar']} "
          f"lines={check['lines']}")

# The line oracle searches F_q, F_25, F_125 independently of the loci.
print(f"\nlines of the (2,1) cubic: {find_linear_factors(tower.fq, F)}")
F12 = build_F_det(tower, 1, 2)
print(f"lines of the (1,2) cubic: {find_linear_factors(tower.fq, F12)}")
print("(the conjugate pair over F_25 appears because -3 is a non-square in F_5)")

# Changing variables by a normal basis turns nonzero determinant roots into
# F_q-rational points of a cubic with F_q coefficients; the roots are counted
# over every shift C != 0.
xi = find_normal_element(tower)
shifts = np.arange(1, f3.order)
for (a, b) in ((2, 1), (2, 2), (1, 1)):
    H = transform_H(tower, build_F_det(tower, a, b), xi)
    pts = count_nonzero_fq_zeros(tower.fq, H)
    roots = np.count_nonzero(_dets_at(tower, a, b, shifts) == 0)
    print(f"pair ({a}, {b}): determinant roots {roots}, points of H {pts}")
