"""The three planarity deciders and the full (A, B) scan.

A map f is planar when every difference x -> f(x+a) - f(x), a != 0, permutes
the field.  For f(x) = x*(x^(q^2) + A*x^q + B*x) the closed-form classifier,
the determinant test (no shift may make the difference map's matrix singular;
checking one shift per F_q^* orbit suffices), and the brute-force definition
must always agree.

Run:  python demos/02_planarity_scan.py
"""

from planarq import build_tower
from planarq.planarity import (
    brute_is_planar,
    classify_pair,
    count_formula,
    f_poly,
    is_planar_det,
    scan,
)

tower = build_tower(5, 1)

# One pair, three ways.
A, B = 2, 1
cls = classify_pair(tower, A, B)
det_ok, _ = is_planar_det(tower, A, B)
brute_ok = brute_is_planar(f_poly(tower, A, B))
print(f"(A, B) = (2, 1) over q = 5:")
print(f"  closed form: {cls.verdict} via {cls.branch}")
print(f"  det sweep:   {'Planar' if det_ok else 'NotPlanar'}")
print(f"  brute force: {'Planar' if brute_ok else 'NotPlanar'}")

# A failing pair comes with a witness shift whose difference map is singular:
# the first such shift in code order.
ok, witness = is_planar_det(tower, 1, 1)
print(f"\n(1, 1) is planar: {ok}; witness shift C = {witness}, "
      f"coordinates {tower.fq3.coords(witness)}")

# The scan runs all q^2 pairs and compares the planar count to the formula.
report = scan(tower, methods=("theorem", "det", "brute"))
print(f"\nscan over q = 5: planar {report.planar_count}, "
      f"expected {report.expected_count} (= 3q - 2 - 4*gcd(3, q-1) = {count_formula(5)})")
planar = sorted((r["A"], r["B"]) for r in report.pairs if r["verdicts"]["brute"])
print(f"planar pairs: {planar}")
print(f"disagreements: {report.disagreements}")

# q = 3 is a special case: the closed form is only guaranteed to be a lower
# bound there, so the scan records extras instead of failing.
t3 = build_tower(3, 1)
r3 = scan(t3, methods=("theorem", "brute"))
theorem = [(r["A"], r["B"]) for r in r3.pairs if r["verdicts"]["theorem"]]
print(f"\nq = 3: closed-form planar set {theorem}")
print(f"q = 3: brute count {r3.planar_count}, pairs beyond the closed form: "
      f"{r3.beyond_theorem}")
