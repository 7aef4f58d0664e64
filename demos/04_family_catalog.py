"""The catalog of known planar families: validation, instantiation, checking.

Every step goes through ``family_report``, the one route into the catalog.
Side conditions are implemented exactly as published; exhaustive planarity
checking at small sizes is the arbiter, and a validating instance that fails
it is flagged rather than patched.

Run:  python demos/04_family_catalog.py
"""

from planarq.families import FAMILIES, FamilySpec, family_report

print("catalog:")
for fam in FAMILIES.values():
    print(f"  {fam.id}: {fam.formula}")

# Classic instances over F_243.
print("\ninstances over F_3^5:")
for spec in (FamilySpec("T2.3", {"n": 5}), FamilySpec("T2.6", {"n": 5, "k": 3}),
             FamilySpec("T3.5", {})):
    rep = family_report(spec)
    print(f"  {spec.id}: {rep['polynomial']}  planar={rep['planar']}")

# Violated conditions are named one by one.
bad = FamilySpec("T2.2", {"p": 3, "n": 4, "k": 2})
print(f"\nT2.2 with (p, n, k) = (3, 4, 2): violations {family_report(bad)['violations']}")

# Element parameters are searched deterministically when not supplied.
rep = family_report(FamilySpec("T2.5", {"p": 3, "k": 1, "s": 4}), brute=False)
print(f"\nT2.5 resolved parameters: {rep['params']}")
print(f"instance: {rep['polynomial']}")

# The one known trouble spot: the published side conditions for T3.2 admit
# p = 3 instances that are not planar; the report flags the discrepancy.
rep = family_report(FamilySpec("T3.2", {"p": 3, "k": 1, "s": 2}))
print(f"\nT3.2 at (p, k, s) = (3, 1, 2): planar={rep['planar']} "
      f"flagged={rep['flagged']}")
rep = family_report(FamilySpec("T3.2", {"p": 5, "k": 1, "s": 2}))
print(f"T3.2 at (p, k, s) = (5, 1, 2): planar={rep['planar']} "
      f"flagged={rep['flagged']}")
