"""Tour of the field tower F_p < F_q < F_{q^3}: codes, arithmetic, Frobenius.

Run:  python demos/01_field_tower.py
"""

from planarq import build_tower, find_normal_element

# Towers are built from (p, m) with deterministic moduli, so element codes
# mean the same thing on every machine.
tower = build_tower(p=3, m=2)
print(f"tower: {tower}")
print(f"  mid modulus (F_9  = F_3[t]/...):  {tower.mid_modulus}")
print(f"  top modulus (F_729 = F_9[x]/...): {tower.top_modulus}")

# Element codes pack coordinate vectors little-endian; code < q means the
# element lies in the subfield, so embedding F_9 in F_729 keeps every code.
x = 500
print(f"\ncode {x} in F_729 has F_9-coordinates {tower.fq3.coords(x)}")
sub = 7
print(f"subfield element code {sub} embeds as code {sub}")

# Arithmetic is done by the field on codes.
f, a, b = tower.fq3, 500, 123
print(f"\na + b = {f.add(a, b)}, a * b = {f.mul(a, b)}, a / b = {f.div(a, b)}")
print(f"a^(|F|-1) = {f.pow(a, f.order - 1)}  (unit group order)")

# The q-power Frobenius is F_3-linear: the field applies a 6x6 matrix over
# F_3 to the six flat digits of a code, built on first use.  Its fixed field
# is exactly the embedded F_9.
y = tower.fq3.frob(x, 1)
print(f"\nx^q = {y}; x^(q^3) = {tower.fq3.frob(x, 3)} (back to x)")
fixed = [c for c in range(729) if tower.fq3.frob(c, 1) == c]
print(f"Frobenius fixes {len(fixed)} elements: codes {fixed[:5]}... (= F_9)")

# A normal element's conjugates form a basis; the search is deterministic.
xi = find_normal_element(tower)
print(f"\nfirst normal element: code {xi}")

# Square roots in F_q (needed for the sqrt(-3) branch loci downstream).
t7 = build_tower(7, 1)
minus3 = 4  # -3 = 4 mod 7
print(f"\nsqrt(-3) in F_7: {t7.fq.sqrt_code(minus3)}")
t5 = build_tower(5, 1)
print(f"sqrt(-3) in F_5: {t5.fq.sqrt_code(2)}  (non-square)")
