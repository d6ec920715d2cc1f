"""Discriminantal arrangement of a normal system.

For every (m+1)-subset S of the n lines there is one hyperplane through the
origin of R^n: the locus of constant vectors b for which the lines indexed
by S pass through a common point.  Its normal comes from expanding the
(m+1) x (m+1) concurrency determinant along the b-column, so it is
supported exactly on S.  The C(n, m+1) normals, in lexicographic subset
order, fix the sign conventions used by every census downstream.

The walls are integer minors, made once by build: the arrangement keeps
them as exact Fraction normals (for serialization and the oracles) and as
primitive integer rows, the form every sign test, flat crawl and rank
test downstream reads.  The walls span only n - m dimensions, and
quotient_rows cuts the integer rows to a coordinate set of that size on
which no linear dependence changes.  It is the one such cut: the
deletion recursion, the Mobius cross-check, the cone composition, the
facet LP of chambers.shared_wall and the freeness search all run there.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, prod

from .errors import BadArtifact
from .exact_linalg import (_int_det, _int_row, lex_independent_columns,
                           parse_rational, primitive_int_rows, rank,
                           rational_str)


class DiscriminantalArrangement:
    """Central arrangement in R^n keyed by (m+1)-subsets (1-based, lex).

    source keeps the normal system the arrangement was built from (None for
    deserialized arrangements); geometric verifiers use it to reconstruct
    the affine picture behind a constant vector b.  int_rows holds each
    normal scaled by a positive factor to coprime integers, as
    primitive_int_rows gives them; they are computed from the normals
    unless the caller (build) passes them.
    """

    __slots__ = ("n", "m", "subsets", "normals", "int_rows", "index",
                 "source")

    def __init__(self, n, m, subsets, normals, source=None, int_rows=None):
        self.n = int(n)
        self.m = int(m)
        self.subsets = tuple(tuple(s) for s in subsets)
        self.normals = tuple(tuple(v) for v in normals)
        self.int_rows = tuple(primitive_int_rows(self.normals)
                              if int_rows is None else int_rows)
        self.index = {s: i for i, s in enumerate(self.subsets)}
        self.source = source

    def normal_of(self, subset):
        return self.normals[self.index[tuple(sorted(subset))]]

    def __eq__(self, other):
        return (isinstance(other, DiscriminantalArrangement)
                and (self.n, self.m) == (other.n, other.m)
                and self.subsets == other.subsets
                and self.normals == other.normals)

    def __repr__(self):
        return "DiscriminantalArrangement(n=%d, m=%d, %d hyperplanes)" % (
            self.n, self.m, len(self.subsets))


def build(ns):
    """All C(n, m+1) concurrency hyperplanes of a normal system.

    The coefficient of b_{i_k} in the hyperplane of S = {i_1 < ... <
    i_{m+1}} is (-1)^(m+1+k) times the maximal minor of the coefficient
    rows of S with row i_k deleted.  Signs are kept raw: rescaling would
    break bit-exact comparison with hand-computed equation lists.

    Each row is scaled to integers once, by the lcm d_i of its
    denominators, and every minor is an integer Bareiss determinant:
    the coefficient is that minor over the product of its rows' scales.
    Times the product of all the scales of S, which is positive, it is
    the minor times d_{i_k}, so the wall's primitive integer row is those
    integers over their gcd, with no Fraction arithmetic.
    """
    n, m = ns.n, ns.m
    subsets = list(combinations(range(1, n + 1), m + 1))
    scaled = [_int_row(row) for row in ns.rows]
    zero = Fraction(0)
    normals = []
    int_rows = []
    for S in subsets:
        vec = [zero] * n
        ints = [0] * n
        for k, i in enumerate(S, start=1):
            rest = [scaled[j - 1] for j in S if j != i]
            minor = _int_det([list(row) for row, _ in rest])
            if (m + 1 + k) % 2:
                minor = -minor
            vec[i - 1] = Fraction(minor, prod(d for _, d in rest))
            ints[i - 1] = minor * scaled[i - 1][1]
        g = gcd(*ints)
        normals.append(tuple(vec))
        int_rows.append(tuple([x // g for x in ints]) if g > 1
                        else tuple(ints))
    return DiscriminantalArrangement(n, m, subsets, normals, source=ns,
                                     int_rows=int_rows)


def quotient_rows(da):
    """Coordinates on which the walls keep their rank, and the walls there.

    Returns (cols, rows): rows are the primitive integer rows int_rows
    restricted to cols and made primitive again.  For a built arrangement
    cols are the first n - m coordinates, with no rank computed: the
    walls span ker(A^T) for the n x m matrix A of its normal system, and
    a vector of that space which vanishes there is zero, because any m
    rows of A, the last m among them, are independent.  A loaded
    arrangement (source None) has the lexicographically first columns of
    full rank computed.  Either way the restriction is one-to-one on the
    row space, so every linear dependence, flat and sign is kept.
    """
    if da.source is not None:
        cols = list(range(da.n - da.m))
    else:
        cols = lex_independent_columns(da.int_rows, rank(da.int_rows))
    return cols, primitive_int_rows([[row[j] for j in cols]
                                     for row in da.int_rows])


def da_to_dict(da):
    return {
        "n": da.n,
        "m": da.m,
        "hyperplanes": [
            {"subset": list(s), "normal": [rational_str(a) for a in v]}
            for s, v in zip(da.subsets, da.normals)
        ],
    }


def da_from_dict(data):
    """Arrangement read back from da_to_dict output.

    A missing key or a wrong layout raises BadArtifact; a normal entry
    that is not an exact rational raises BadRational.
    """
    need = ('arrangement needs integer "n", "m" and "hyperplanes" entries '
            'with "subset" and "normal"')
    try:
        n, m = data["n"], data["m"]
        planes = [(h["subset"], h["normal"]) for h in data["hyperplanes"]]
    except (KeyError, TypeError):
        raise BadArtifact(need) from None
    if type(n) is not int or type(m) is not int:
        raise BadArtifact(need)
    normals = []
    for k, (subset, normal) in enumerate(planes, start=1):
        if not (isinstance(subset, list) and isinstance(normal, list)
                and len(normal) == n):
            raise BadArtifact('"subset" must be a list and "normal" a list '
                              'of n entries', hyperplane=k, n=n)
        normals.append(tuple(parse_rational(a, hyperplane=k, position=i)
                             for i, a in enumerate(normal, start=1)))
    return DiscriminantalArrangement(n, m, [s for s, _ in planes], normals)
