"""Geometry of an affine arrangement in m-space.

Everything here reads combinatorial structure off the actual hyperplanes
a_i . x = b_i: the order of vertices along each line cut out by m-1 of them,
the isomorphism oracle that compares those orders up to per-line reversal,
region censuses with exact boundedness tests, triangle signatures of planar
arrangements, the special point of a four-line arrangement, and the
verification that crossing one wall of the associated central arrangement
swaps exactly one pair of vertices on each affected line.

Genericity (no m+1 hyperplanes through a common point) is checked exactly
before any geometric reading; it is equivalent to b avoiding every
hyperplane of the discriminantal arrangement of the system.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import combinations

from .chambers import shared_wall, sign_cells
from .discriminantal import build
from .errors import (NotAdjacent, NotGeneric, NotInCatalog,
                     UnsupportedDimension, WrongShape)
from .exact_linalg import (_int_row, dot, feasible_strict,
                           integer_primitive, nullspace_basis,
                           solve_particular)
from .normal_system import Arrangement

MAX_REGIONS = 10 ** 4

LineOrder = namedtuple("LineOrder", ["direction", "order", "params"])


@lru_cache(maxsize=None)
def _da_of(ns):
    return build(ns)


def genericity_witness(arr):
    """Lex-first (m+1)-subset whose hyperplanes concur, or None.

    b sits on the wall of subset S exactly when the discriminantal
    functional of S vanishes at b, so this is a pure evaluation pass.
    """
    da = _da_of(arr.system)
    for subset, normal in zip(da.subsets, da.normals):
        if dot(normal, arr.b) == 0:
            return subset
    return None


def _require_generic(arr):
    witness = genericity_witness(arr)
    if witness is not None:
        raise NotGeneric("m+1 hyperplanes pass through a common point",
                         subset=list(witness))


def vertex_orders(arr):
    """Vertex order along every line of a generic arrangement.

    For each (m-1)-subset A, the line is the intersection of the
    hyperplanes indexed by A; its direction is the normalized generator of
    the common direction space (first nonzero entry positive, coprime
    integer entries), and the vertices are the meets with the remaining
    hyperplanes, labeled by the m-subset A + {j} and sorted by exact
    line parameter.  Returns {A: LineOrder(direction, order, params)}.
    """
    _require_generic(arr)
    ns = arr.system
    table = {}
    for A in combinations(range(1, ns.n + 1), ns.m - 1):
        rows = [ns.rows[i - 1] for i in A]
        p0 = solve_particular(rows, [arr.b[i - 1] for i in A])
        d = integer_primitive(nullspace_basis(rows)[0])
        hits = []
        for j in range(1, ns.n + 1):
            if j in A:
                continue
            aj = ns.rows[j - 1]
            t = (arr.b[j - 1] - dot(aj, p0)) / dot(aj, d)
            hits.append((t, tuple(sorted(A + (j,)))))
        hits.sort()
        table[A] = LineOrder(d, tuple(v for _, v in hits),
                             tuple(t for t, _ in hits))
    return table


def are_isomorphic_trivial(a1, a2):
    """Label-preserving isomorphism oracle.

    True iff on every line the two arrangements list the same vertices in
    the same order or in exactly reversed order (the direction convention
    is shared, so reversal is the only reparametrization left).  Reversal
    is allowed per line, independently.
    """
    s1, s2 = a1.system, a2.system
    if (s1.n, s1.m) != (s2.n, s2.m):
        raise WrongShape("arrangements must share n and m",
                         left=(s1.n, s1.m), right=(s2.n, s2.m))
    t1 = vertex_orders(a1)
    t2 = vertex_orders(a2)
    for A, line in t1.items():
        other = t2[A].order
        if line.order != other and line.order != other[::-1]:
            return False
    return True


def _affine_cells(arr, max_regions):
    # homogenize: region sign vectors of {a.x > b} match cone sign vectors
    # of {(a,-b).(x,t) > 0} on the side t > 0
    ns = arr.system
    rows = [tuple(a) + (-bi,) for a, bi in zip(ns.rows, arr.b)]
    base = [(0,) * ns.m + (1,)]
    return [signs for signs, _ in sign_cells(rows, ns.m + 1, base_rows=base,
                                             max_cells=max_regions)]


def _left_kernel(ns):
    # one integer row per hyperplane i: entry k is entry i of the k-th
    # basis vector of the left kernel of the normals, times the row's lcm
    kernel = nullspace_basis(list(zip(*ns.rows)))
    return [_int_row([k[i] for k in kernel])[0] for i in range(ns.n)]


def _is_bounded(cols, signs):
    # recession cone {d : sign_i * a_i . d >= 0} is trivial iff some strictly
    # positive combination of the signed rows vanishes (Gordan/Stiemke); the
    # left kernel of the plain rows is computed once, signs only flip it
    return feasible_strict(tuple(
        row if s > 0 else [-x for x in row]
        for row, s in zip(cols, signs))) is not None


def region_census(arr, max_regions=MAX_REGIONS):
    """Exact {total, bounded, unbounded} region counts of a generic arr."""
    _require_generic(arr)
    cells = _affine_cells(arr, max_regions)
    cols = _left_kernel(arr.system)
    bounded = sum(1 for signs in cells if _is_bounded(cols, signs))
    return {"total": len(cells), "bounded": bounded,
            "unbounded": len(cells) - bounded}


def _walls(ns, b):
    # per wall i, the other hyperplanes j read on a parametrization of the
    # wall, homogenized: an integer row per j, to be signed by the region
    out = []
    for i in range(1, ns.n + 1):
        rows = [ns.rows[i - 1]]
        p0 = solve_particular(rows, [b[i - 1]])
        d = nullspace_basis(rows)
        out.append([(j, _int_row([dot(ns.rows[j - 1], dv) for dv in d]
                                 + [dot(ns.rows[j - 1], p0) - b[j - 1]])[0])
                    for j in range(1, ns.n + 1) if j != i])
    return out


def _facets(walls, signs):
    # indices i whose wall holds an (m-1)-dimensional face of the region:
    # ask for a point of the wall satisfying every other constraint strictly
    out = []
    for i, others in enumerate(walls, start=1):
        folded = [row if signs[j - 1] > 0 else [-x for x in row]
                  for j, row in others]
        hom = [0] * (len(folded[0]) - 1) + [1]
        if feasible_strict(tuple(folded) + (hom,)) is not None:
            out.append(i)
    return out


def simplex_signature(arr):
    """Index triples of the triangular regions of a planar arrangement.

    A triangle is a bounded region with exactly three facets; the triple
    records which hyperplanes carry them.  The multiset of triples is a
    class invariant of the associated discriminantal cone.
    """
    ns = arr.system
    if ns.m != 2:
        raise UnsupportedDimension("triangle signatures are planar only",
                                   m=ns.m)
    _require_generic(arr)
    cols = _left_kernel(ns)
    walls = _walls(ns, arr.b)
    triples = set()
    for signs in _affine_cells(arr, MAX_REGIONS):
        if not _is_bounded(cols, signs):
            continue
        facets = _facets(walls, signs)
        if len(facets) == 3:
            triples.add(tuple(facets))
    return triples


def special_point(arr):
    """The unique pair {i, j} whose shared vertex is the middle vertex
    on both of its lines; defined for generic four-line arrangements."""
    ns = arr.system
    if (ns.n, ns.m) != (4, 2):
        raise WrongShape("special points are defined for n=4, m=2",
                         n=ns.n, m=ns.m)
    table = vertex_orders(arr)
    middles = {}
    for (i,), line in table.items():
        pair = line.order[1]
        middles[i] = pair[0] if pair[1] == i else pair[1]
    found = [(i, j) for i, j in middles.items() if i < j and middles[j] == i]
    if len(found) != 1:
        raise NotGeneric("generic four-line arrangements have exactly one "
                         "special point", found=[list(p) for p in found])
    return found[0]


def swap_check(da, catalog, signs_c, signs_d):
    """Verify the wall-crossing swap between two adjacent chambers.

    Crossing the wall of subset S swaps, on each line cut out by an
    (m-1)-subset A of S, the two adjacent vertices labeled by A plus one of
    the remaining pair of S; every line with A not inside S keeps its order.
    Returns a report dict; raises NotAdjacent when the chambers do not
    share a facet.
    """
    if da.source is None:
        raise WrongShape("arrangement lacks its source normal system")
    wall = shared_wall(da, signs_c, signs_d)
    if wall is None:
        raise NotAdjacent("chambers do not share a facet",
                          left=signs_c, right=signs_d)
    S = da.subsets[wall]
    cham_c = catalog.find(signs_c)
    cham_d = catalog.find(signs_d)
    if cham_c is None or cham_d is None:
        raise NotInCatalog("chamber missing from catalog")
    t_c = vertex_orders(Arrangement(da.source, cham_c.witness))
    t_d = vertex_orders(Arrangement(da.source, cham_d.witness))
    swapped, unchanged, failures = [], [], []
    for A in t_c:
        oc = t_c[A].order
        od = t_d[A].order
        if set(A) <= set(S):
            pair = tuple(sorted(set(S) - set(A)))
            u = tuple(sorted(A + (pair[0],)))
            v = tuple(sorted(A + (pair[1],)))
            iu, iv = oc.index(u), oc.index(v)
            lo, hi = min(iu, iv), max(iu, iv)
            flipped = oc[:lo] + (oc[hi], oc[lo]) + oc[hi + 1:]
            if hi == lo + 1 and od == flipped:
                swapped.append(A)
            else:
                failures.append(A)
        elif oc == od:
            unchanged.append(A)
        else:
            failures.append(A)
    return {"wall": S, "swapped": tuple(swapped),
            "unchanged": tuple(unchanged), "failures": tuple(failures),
            "ok": not failures}
