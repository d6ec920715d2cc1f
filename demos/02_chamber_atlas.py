"""Enumerate every cone of a small system and poke around the atlas.

Each cone is named by its sign vector (one sign per wall functional) and
carries an exact witness in its interior: a primitive integer vector b,
composed from an extreme ray of the cone and a witness one rank down.  The catalog also
records the antipodal pairing and supports point classification: given any
b, either name its cone or report the walls it sits on.
"""

from fractions import Fraction

from arrcensus.chambers import (adjacency, antipodal_classes, classify_b,
                                enumerate_chambers)
from arrcensus.discriminantal import build
from arrcensus.exact_linalg import rational_str
from arrcensus.gallery import four_lines
from arrcensus.normal_system import ns_to_dict

ns = four_lines()
print("system rows:", ns_to_dict(ns)["rows"])
da = build(ns)
print("walls:", ["".join(map(str, s)) for s in da.subsets])

catalog = enumerate_chambers(da)
print("\n%d cones in %d antipodal classes" %
      (len(catalog), catalog.class_count))
for ch in catalog:
    witness = "(" + ", ".join(rational_str(x) for x in ch.witness) + ")"
    print("  %s  class %d  witness %s" % (ch.signs, ch.class_id, witness))

# The pairing: negating b flips every sign and lands in the same class.
print("\nantipodal pairs:")
for plus, minus in antipodal_classes(catalog):
    print("  %s  <->  %s" % (plus.signs, minus.signs))

# Walking the atlas: two cones are adjacent when they share a facet.  In
# a real central arrangement that is exactly when their sign vectors
# differ in one place, and the wall crossed is the one whose sign flips.
graph = adjacency(catalog)
start = catalog[0].signs
print("\nneighbors of %s:" % start)
for other in graph[start]:
    wall = next(i for i, (x, y) in enumerate(zip(start, other)) if x != y)
    print("  %s  across wall %s" %
          (other, "".join(map(str, da.subsets[wall]))))

# Classification of concrete b vectors.  A zero functional value means b
# sits on a wall; that is an answer, not an error.
for b in [(1, 2, 4, 8), (-1, -2, -4, -8), (0, 0, 0, 0),
          (Fraction(1, 3), Fraction(2, 3), 1, 2)]:
    print("\nb =", b, "->", classify_b(da, b, catalog))
