"""From cones back to pictures: what the classes look like in the plane.

Every cone of the b-space arrangement is one affine portrait of the lines
{a_i . x = b_i}: which triples are near-concurrent, which regions are
bounded, which bounded regions are triangles.  This script takes one
witness b per class of the four-line system and reads the portrait off
exactly, then crosses a single wall and watches two vertices trade places.
"""

from arrcensus.affine_geometry import (are_isomorphic_trivial, region_census,
                                       simplex_signature, special_point,
                                       swap_check, vertex_orders)
from arrcensus.chambers import adjacency, antipodal_classes, enumerate_chambers
from arrcensus.discriminantal import build
from arrcensus.gallery import four_lines
from arrcensus.normal_system import Arrangement

ns = four_lines()
da = build(ns)
catalog = enumerate_chambers(da)
reps = [plus for plus, _ in antipodal_classes(catalog)]

# Every class has the same region census: at a generic b the lines are in
# general position, so Zaslavsky's count gives sum C(n, i), i <= m, regions,
# C(n - 1, m) of them bounded, from (n, m) alone.  A census per class is
# constant; what changes from class to class is which regions are triangles.
censuses = [region_census(Arrangement(ns, ch.witness)) for ch in reps]
assert all(census == censuses[0] for census in censuses)
print("four lines, %d classes" % len(reps))
print("regions of every class: %(total)d total, %(bounded)d bounded, "
      "%(unbounded)d unbounded\n" % censuses[0])
for ch in reps:
    arr = Arrangement(ns, ch.witness)
    triangles = sorted(simplex_signature(arr))
    print("class %d  (cone %s)" % (ch.class_id, ch.signs))
    print("  triangles:", ["".join(map(str, t)) for t in triangles])
    print("  special pair:", special_point(arr))

# The portrait data underneath: on each line, the order in which the other
# lines cross it.  Two b vectors give trivially isomorphic arrangements
# exactly when these orders agree line by line, up to reversal.
b = reps[0].witness
print("\nvertex orders at the class-%d witness:" % reps[0].class_id)
for line, lo in sorted(vertex_orders(Arrangement(ns, b)).items()):
    print("  line %s crosses %s" % (line, [v for v in lo.order]))

w1, w2 = reps[0].witness, reps[1].witness
print("\nwitnesses of classes 1 and 2 isomorphic?",
      are_isomorphic_trivial(Arrangement(ns, w1), Arrangement(ns, w2)))

# Crossing one wall of the cone complex swaps exactly one adjacent vertex
# pair on each line the wall subset still contains, and nothing else.
signs = reps[0].signs
neighbor = adjacency(catalog)[signs][0]
rep = swap_check(da, catalog, signs, neighbor)
print("\ncrossing %s -> %s over wall %s:" %
      (signs, neighbor, "".join(map(str, rep["wall"]))))
print("  lines with a swap :", rep["swapped"])
print("  lines untouched   :", rep["unchanged"])
print("  verdict           :", "clean swap" if rep["ok"] else rep["failures"])
