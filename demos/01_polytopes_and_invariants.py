#!/usr/bin/env python3
"""Moment polytopes, exact facet distances, and fibre invariants.

A polytope is a list of (primitive inward normal, exact offset) pairs over
Q(sqrt D).  Every number below is exact; nothing is floating point.
"""

from fractions import Fraction

from delzant import DelzantPolytope, preset, scalar

print("== the projective-plane simplex ==")
cp2 = preset("cp2")
for i, f in enumerate(cp2.facets):
    print(f"  facet {i}: normal {f.normal}, offset {f.offset}")

x = (Fraction(-1, 2), Fraction(-1, 5))
print(f"\ndistances of x = (-1/2, -1/5) to the facets: "
      f"{[str(v) for v in cp2.ell(x)]}")

inv = cp2.invariants(x)
print(f"invariants: d = {inv.d}, multiplicity = {inv.count}, "
      f"excess subgroup = {inv.gamma}, reduced vector = "
      f"{[str(v) for v in inv.reduced]}")

print("\n== Delzant verification ==")
for v in cp2.check_delzant():
    print(f"  vertex {[str(c) for c in v.point]}: facets {v.active}, "
          f"det {v.det}")

bad = DelzantPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -2), 2)])
try:
    bad.check_delzant()
except Exception as exc:
    print(f"  non-smooth triangle rejected: {exc}")

print("\n== a polytope over Q(sqrt 2) ==")
quad = DelzantPolytope(
    2, [((1, 0), scalar(1, Fraction(1, 2), 2)), ((0, 1), 1), ((-1, -1), 2)]
)
print(f"  the field is the offsets': D = {quad.field_disc}")
w = quad.interior_point()
print(f"  interior witness: {[str(c) for c in w]}")
print(f"  distances there: {[str(v) for v in quad.ell(w)]}")

print("\n== unbounded polytopes are first-class ==")
strip = preset("ts1_x_s2")
print(f"  the infinite strip has {len(strip.check_delzant())} vertices "
      f"and passes the check")
d, active = strip.de_germ((7, Fraction(1, 3)))
print(f"  displacement-energy germ at (7, 1/3): value {d}, "
      f"active facets {active}")
