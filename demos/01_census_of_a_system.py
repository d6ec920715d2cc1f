"""Walk one normal system from raw coefficients to its full cone census.

A normal system is an n x m matrix whose rows are hyperplane normals with
every subset of at most m rows independent.  Varying the constant vector b
deforms the arrangement {a_i . x = b_i}; the space of b vectors is itself
cut into cones by one functional per (m+1)-subset of rows, and the cones
are the combinatorial types.  This script builds that cone arrangement for
a small system and counts its pieces two independent ways.
"""

from arrcensus.charpoly import (combinatorial_charpoly, iso_class_count,
                                whitney_charpoly, zaslavsky_regions)
from arrcensus.concurrency import is_concurrency_free
from arrcensus.discriminantal import build
from arrcensus.exact_linalg import rational_str
from arrcensus.normal_system import validate

# Five lines through the origin of the plane, no two parallel.  Any three
# of the five rows are of course dependent (they live in R^2); the normal
# system condition only constrains subsets of size <= m = 2.
rows = [
    (1, 0),
    (0, 1),
    (1, 1),
    (1, -1),
    (2, 1),
]
ns = validate(rows, m=2)
print("normal system:", ns)
print("concurrency free:", bool(is_concurrency_free(ns)))

# One functional per triple of lines.  Its sign at b records on which side
# of "these three lines concurrent" the arrangement sits.
da = build(ns)
print("\ncone arrangement lives in R^%d with %d walls:"
      % (da.n, len(da.subsets)))
for subset, normal in zip(da.subsets, da.normals):
    print("  wall %s  normal (%s)" %
          ("".join(map(str, subset)),
           ", ".join(rational_str(a) for a in normal)))

# The characteristic polynomial of the wall arrangement.  The subset
# expansion, the engine every command runs, sums over all 2^10 subsets of
# walls by a deletion recursion memoised on flats; the combinatorial
# method never touches the matrix and applies verbatim to every
# concurrency-free system of this shape.
chi = whitney_charpoly(da)
print("\nchi(t) =", chi.as_str())
print("       =", chi.factored_str())
assert chi == combinatorial_charpoly(ns.n, ns.m)
print("the matrix-free recursion agrees")

# Zaslavsky: number of cones = (-1)^n chi(-1).  Cones come in antipodal
# pairs (b and -b give mirror images), so classes = cones / 2.
print("\ncones  :", zaslavsky_regions(chi))
print("classes:", iso_class_count(chi))
