"""Geometry of an affine arrangement in m-space.

Everything here reads combinatorial structure off the actual hyperplanes
a_i . x = b_i: the order of vertices along each line cut out by m-1 of them,
the isomorphism oracle that compares those orders up to per-line reversal,
region censuses after an exact genericity check, triangle signatures of
planar arrangements (the triples of lines whose three vertices no other
line separates), the special point of a four-line arrangement, and the
verification that crossing one wall of the associated central arrangement
swaps exactly one pair of vertices on each affected line.

Every reading but the line parameters comes from two sign tables: the
sign vector of b, s_T = sign f_T(b) for every wall T of the
discriminantal arrangement of the system (discriminantal._wall_values),
and the signs of the system's one table of m x m minors
(NormalSystem.minors).  f_T(b) is minus the determinant of the
homogenized rows (a_i, -b_i) of T, so the sign vector is the chirotope
of the homogenized configuration (Bjorner, Las Vergnas, Sturmfels, White
and Ziegler, Oriented Matroids, 1993): the side of every vertex, and so
the regions, their boundedness and the triangles, and the order of the
vertices on every line up to reversal, and so trivial isomorphism, are
functions of the cone that holds b.  A zero sign is a concurrent
(m+1)-subset, so the same pass decides genericity (no m+1 hyperplanes
through a common point) before any geometric reading.  The region census
needs no more than that pass: the m-subsets of a validated system are
independent, so for a generic b the arrangement is in general position
and has sum C(n, i), i <= m, regions, C(n - 1, m) of them bounded
(Zaslavsky, Facing up to arrangements, Mem. AMS 154, 1975), whatever
the cone of b.  Only vertex_orders, which returns exact line parameters,
builds a vertex table: the signed maximal minors of the homogenized rows
through each vertex, with line directions from the minors of the normals
alone, and Fractions made only for the parameters.  No LP is run: the
wall of a swap is read off the two sign vectors.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations, compress
from math import comb

from .discriminantal import _wall_values
from .errors import (NotAdjacent, NotGeneric, NotInCatalog,
                     UnsupportedDimension, WrongShape)
from .exact_linalg import _direction, _int_det, _int_row
from .normal_system import Arrangement

LineOrder = namedtuple("LineOrder", ["direction", "order", "params"])


def sign_vector(arr):
    """The sign vector s(b) of arr: s_T = sign f_T(b) as +-1, one entry
    per wall T in lex order.

    The signs are those of the wall values of b
    (discriminantal._wall_values); the first zero, the lex-first
    concurrent (m+1)-subset, is raised as NotGeneric naming it (1-based).
    """
    ns = arr.system
    vals = _wall_values(ns, _int_row(arr.b)[0])
    if not all(vals):
        T = next(T for T, v in zip(combinations(range(1, ns.n + 1),
                                                ns.m + 1), vals) if not v)
        raise NotGeneric("m+1 hyperplanes pass through a common point",
                         subset=list(T))
    return [1 if v > 0 else -1 for v in vals]


def _vertices(arr):
    """The vertex table {S: v_S} of a generic arr.

    S runs over the m-subsets (0-based, lex order), and v_S is the signed
    maximal minors of the homogenized integer rows (a_i, -b_i) of S with
    its last coordinate made positive, so the hyperplanes of S meet at
    v[:m] / v[m].
    """
    ns = arr.system
    hom = [_int_row(tuple(a) + (-bi,))[0] for a, bi in zip(ns.rows, arr.b)]
    table = {}
    for S in combinations(range(ns.n), ns.m):
        v = _kernel([hom[i] for i in S])
        table[S] = v if v[-1] > 0 else [-x for x in v]
    return table


def genericity_witness(arr):
    """Lex-first (m+1)-subset whose hyperplanes concur, or None.

    b sits on the discriminantal wall of subset S exactly when the rows of
    S have a common point: the first zero of the sign vector of b.
    """
    try:
        sign_vector(arr)
    except NotGeneric as err:
        return tuple(err.payload["subset"])
    return None


def _directions(normals, m):
    # {A: d_A} over the (m-1)-subsets A (0-based, lex order) of the
    # integer normals: d_A spans line A, the kernel of the normals of A,
    # as coprime integers with the first nonzero entry positive
    return {A: _direction(_kernel([normals[i] for i in A]))
            for A in combinations(range(len(normals)), m - 1)}


def vertex_orders(arr):
    """Vertex order along every line of a generic arrangement.

    For each (m-1)-subset A, the line is the intersection of the
    hyperplanes indexed by A; its direction d is the normalized generator of
    the common direction space (first nonzero entry positive, coprime
    integer entries), and the vertices are the meets with the remaining
    hyperplanes, labeled by the m-subset A + {j} and sorted by exact
    line parameter.  The parameter of a vertex x is x_f / d_f, f the last
    coordinate with d_f != 0: x = p + t d for the point p of the line that
    is zero in coordinate f.  Returns {A: LineOrder(direction, order,
    params)}.
    """
    sign_vector(arr)
    table = _vertices(arr)
    normals = [_int_row(a)[0] for a in arr.system.rows]
    out = {}
    for A, d in _directions(normals, arr.system.m).items():
        f = max(i for i, x in enumerate(d) if x)
        hits = []
        for j in range(arr.system.n):
            if j in A:
                continue
            S = tuple(sorted(A + (j,)))
            v = table[S]
            hits.append((Fraction(v[f], v[-1] * d[f]),
                         tuple(i + 1 for i in S)))
        hits.sort()
        out[tuple(i + 1 for i in A)] = LineOrder(
            d, tuple(v for _, v in hits), tuple(t for t, _ in hits))
    return out


def are_isomorphic_trivial(a1, a2):
    """Label-preserving isomorphism oracle.

    True iff on every line the two arrangements list the same vertices in
    the same order or in exactly reversed order (the direction convention
    is shared, so reversal is the only reparametrization left).  Reversal
    is allowed per line, independently.

    That is s(b1) = +-s(b2), read off the two sign vectors (b1 is checked
    for genericity first) with no vertex table.  Put x = p + t d on line
    A and let vertex A + j sit at t_j.  Along the line a_k . x - b_k =
    (a_k . d)(t - t_k), so sign(t_j - t_k) is sign(a_k . d) times the
    side of row k at vertex A + j, which is s_{A+j+k} times a sign of the
    normals alone (_sides).  So sign(t_j - t_k) = s_{A+j+k} e(A, j, k),
    with e the same for both arrangements: the orders on line A agree iff
    the walls T that hold A (its star) have the same signs at b1 and b2,
    and are reversed iff they all have opposite signs.  Every wall holds
    an (m-1)-subset, so lies in a star, and two stars whose subsets share
    m - 2 members share a wall (their union and one more row); the
    (m-1)-subsets are connected by such steps, as in the Johnson graph.
    So if each star is all-same or all-opposite, neighbouring stars make
    the same choice, and the whole vector is equal or opposite.
    """
    s1, s2 = a1.system, a2.system
    if (s1.n, s1.m) != (s2.n, s2.m):
        raise WrongShape("arrangements must share n and m",
                         left=(s1.n, s1.m), right=(s2.n, s2.m))
    v1 = sign_vector(a1)
    v2 = sign_vector(a2)
    return v1 == v2 or v1 == [-s for s in v2]


def _kernel(rows):
    # k independent integer rows of length k + 1: entry j is (-1)^j times
    # the minor without column j, so r . v = det([r; rows]) for every r
    return [(-1) ** j * _int_det([r[:j] + r[j + 1:] for r in rows])
            for j in range(len(rows) + 1)]


def _sides(arr):
    """{S: side} over the m-subsets S (0-based, lex order) of a generic
    arr, read off its sign vector: bit j of side is set when
    a_j . x > b_j at the vertex v_S where the hyperplanes of S meet, and
    the bits of S are clear.

    The side of row j at v_S is s_{S+j} times a sign of the normals.  Let
    v be the kernel vector of the homogenized rows h_i = (a_i, -b_i) of S
    (_kernel), so h_j . v = det([h_j; h_S]) = (-1)^p det(h_{S+j}) for
    p = #{i in S : i < j}, and det(h_{S+j}) = -f_{S+j}(b) by Laplace
    expansion along the b column, each up to a positive scale.  Its last
    coordinate is (-1)^m det(h_S without the b column), of the sign of
    (-1)^m minors[S], and v_S has it positive.  So a_j . x > b_j at v_S
    iff -s_{S+j} (-1)^(p+m) sign(minors[S]) > 0.

    So side is neg[S] XOR odd off S, with no wall looked up: neg[S] holds
    the j with s_{S+j} = -1, set by one pass over the walls T of sign -1
    at each j in T, and odd the j with p odd (the XOR of the masks above
    each member of S), complemented when (-1)^m minors[S] < 0: the j
    that a wall of sign +1 puts on the positive side.
    """
    ns = arr.system
    n, m = ns.n, ns.m
    bits = [1 << i for i in range(n)]
    full = (1 << n) - 1
    neg = dict.fromkeys(map(sum, combinations(bits, m)), 0)
    for T in compress(combinations(bits, m + 1),
                      map((-1).__eq__, sign_vector(arr))):
        M = sum(T)
        for b in T:
            neg[M ^ b] |= b
    minors = ns.minors
    sides = {}
    for S, (M, N) in zip(combinations(range(n), m), neg.items()):
        odd = full if (minors[M] > 0) == m % 2 else 0
        for i in S:
            odd ^= full >> i + 1 << i + 1
        sides[S] = (N ^ odd) & ~M
    return sides


def region_census(arr):
    """Exact {total, bounded, unbounded} region counts of a generic arr.

    Raises NotGeneric naming the lex-first concurrent (m+1)-subset when b
    is on a wall (sign_vector), the one pass over the C(n, m+1) walls the
    census makes; no limit on the region count applies, since the count
    is read off the shape.  Every m normals of a validated system are
    independent, so a generic arr is in general position, and its census
    depends on (n, m) alone:
    sum C(n, i), i <= m, regions, of which C(n - 1, m) are bounded
    (Zaslavsky, Facing up to arrangements, Mem. AMS 154, 1975).  Every
    cone of the discriminantal arrangement has the same census; the tests
    check it against the regions enumerated around every vertex.
    """
    sign_vector(arr)
    n, m = arr.system.n, arr.system.m
    total = sum(comb(n, i) for i in range(m + 1))
    bounded = comb(n - 1, m)
    return {"total": total, "bounded": bounded, "unbounded": total - bounded}


def simplex_signature(arr):
    """Index triples of the triangular regions of a planar arrangement.

    A triangle is a bounded region with exactly three vertices; the triple
    is the union of their pairs, the lines that carry its sides.  The
    multiset of triples is a class invariant of the associated
    discriminantal cone.

    Read off the sides of the vertices (_sides).  Three lines in general
    position bound one triangle, the hull of their three vertices, and a
    triangular region is the triangle of its three lines.  That triangle
    is a region exactly when no other line separates its vertices: a line
    through its interior leaves a vertex on each side, since no three
    lines meet, and a triangle no line enters is a region.  So triple
    {i, j, k} is kept iff the side masks of its three vertices agree on
    every row outside it.
    """
    ns = arr.system
    if ns.m != 2:
        raise UnsupportedDimension("triangle signatures are planar only",
                                   m=ns.m)
    sides = _sides(arr)
    out = set()
    for i, j in combinations(range(ns.n), 2):
        x = sides[i, j]
        for k in range(j + 1, ns.n):
            if ((x ^ sides[i, k]) | (x ^ sides[j, k])) & ~(
                    1 << i | 1 << j | 1 << k) == 0:
                out.add((i + 1, j + 1, k + 1))
    return out


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
    Returns a report dict.  Two chambers of the catalog whose sign
    vectors differ in one coordinate are adjacent across that wall (see
    chambers.adjacency), so the wall is read off the signs, with no LP:
    NotAdjacent is raised when the sign vectors differ in length or in
    other than one coordinate, and then NotInCatalog when the catalog
    lacks either of them.
    """
    diff = [i for i, (x, y) in enumerate(zip(signs_c, signs_d)) if x != y]
    if len(signs_c) != len(signs_d) or len(diff) != 1:
        raise NotAdjacent("chambers do not share a facet",
                          left=signs_c, right=signs_d)
    cham_c = catalog.find(signs_c)
    cham_d = catalog.find(signs_d)
    if cham_c is None or cham_d is None:
        raise NotInCatalog("chamber missing from catalog")
    S = da.subsets[diff[0]]
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
