"""Discriminantal arrangement of a normal system.

For every (m+1)-subset S of the n lines there is one hyperplane through the
origin of R^n: the locus of constant vectors b for which the lines indexed
by S pass through a common point.  Its normal comes from expanding the
(m+1) x (m+1) concurrency determinant along the b-column, so it is
supported exactly on S.  The C(n, m+1) normals, in lexicographic subset
order, fix the sign conventions used by every census downstream.

Every coefficient of a wall is an m x m minor of the normal system, so
build, the only maker of an arrangement, reads the walls off the system's
one table of minors (NormalSystem.minors), with no determinant computed.
It makes them as primitive integer rows, the form every sign test, flat
crawl and rank test downstream reads; the exact Fraction normals (for
serialization and the oracles) are made from the same table the first
time they are read.  The walls span only n - m dimensions, and
quotient_rows cuts the integer rows to the first n - m coordinates, on
which no linear dependence changes.  It is the one such cut: the deletion
recursion, the Mobius cross-check, the cone composition, the facet LP of
chambers.shared_wall and the freeness search all run there.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, prod

from .exact_linalg import rational_str


class DiscriminantalArrangement:
    """Central arrangement in R^n keyed by (m+1)-subsets (1-based, lex).

    Made by build.  source is the normal system it was built from;
    geometric verifiers use it to reconstruct the affine picture behind a
    constant vector b.  quotient holds each wall cut to its first n - m
    coordinates and scaled by a positive factor to coprime integers, the
    rows quotient_rows returns.  int_rows, the whole walls scaled the
    same way, normals and index are made from the minor table of source
    the first time they are read.
    """

    __slots__ = ("n", "m", "subsets", "quotient", "source", "_normals",
                 "_int_rows", "_index")

    def __init__(self, source, subsets, quotient):
        self.n = source.n
        self.m = source.m
        self.subsets = tuple(subsets)
        self.quotient = tuple(quotient)
        self.source = source
        self._normals = self._int_rows = self._index = None

    @property
    def normals(self):
        """The walls as exact Fraction vectors, one per subset."""
        if self._normals is None:
            self._normals = _fraction_normals(self.source, self.subsets)
        return self._normals

    @property
    def int_rows(self):
        """The walls as primitive integer rows in R^n, one per subset."""
        if self._int_rows is None:
            self._int_rows = _int_walls(self.source, self.subsets)
        return self._int_rows

    @property
    def index(self):
        """Position of each subset in subsets."""
        if self._index is None:
            self._index = {s: i for i, s in enumerate(self.subsets)}
        return self._index

    def normal_of(self, subset):
        return self.normals[self.index[tuple(sorted(subset))]]

    def __repr__(self):
        return "DiscriminantalArrangement(n=%d, m=%d, %d hyperplanes)" % (
            self.n, self.m, len(self.subsets))


def _walls(ns, subsets):
    """Per subset S, the signed minors its wall's coefficients are made of.

    Yields (S, [(i, c)]): for each index i of S, c is (-1)^(m+1+k) times
    ns.minors[S - i], the minor of the scaled rows of S without i, for
    the position k of i in S (1-based).  The sign at the last index of S
    is +, and it alternates from there.
    """
    minors = ns.minors
    for S in subsets:
        mask = 0
        for i in S:
            mask |= 1 << (i - 1)
        coeffs = []
        plus = True
        for i in reversed(S):
            c = minors[mask ^ 1 << (i - 1)]
            coeffs.append((i, c if plus else -c))
            plus = not plus
        yield S, coeffs


def _fraction_normals(ns, subsets):
    """The Fraction normals of the walls of ns, as build defines them."""
    n, scales = ns.n, ns.scales
    zero = Fraction(0)
    normals = []
    for S, coeffs in _walls(ns, subsets):
        whole = prod(scales[i - 1] for i in S)
        vec = [zero] * n
        for i, c in coeffs:
            vec[i - 1] = Fraction(c, whole // scales[i - 1])
        normals.append(tuple(vec))
    return tuple(normals)


def _int_walls(ns, subsets):
    """The primitive integer rows of the walls of ns in R^n.

    The coefficient of row i is a minor over the product of its rows'
    scales; times the product of all the scales of S, which is
    positive, it is the minor times d_i, so the wall's primitive integer
    row is those integers over their gcd.
    """
    n, scales = ns.n, ns.scales
    rows = []
    for S, coeffs in _walls(ns, subsets):
        ints = [0] * n
        for i, c in coeffs:
            ints[i - 1] = c * scales[i - 1]
        g = gcd(*ints)
        rows.append(tuple([x // g for x in ints]) if g > 1 else tuple(ints))
    return tuple(rows)


def build(ns):
    """All C(n, m+1) concurrency hyperplanes of a normal system.

    The coefficient of b_{i_k} in the hyperplane of S = {i_1 < ... <
    i_{m+1}} is (-1)^(m+1+k) times the maximal minor of the coefficient
    rows of S with row i_k deleted.  Signs are kept raw: rescaling would
    break bit-exact comparison with hand-computed equation lists.

    The minors come from the system's table (NormalSystem.minors), each
    the minor of the rows scaled to integers by the lcm d_i of their
    denominators: the coefficient is that minor over the product of its
    rows' scales, and the wall times the product of the scales of S,
    which is positive, has the integer coefficients minor times d_{i_k}.
    build makes only the quotient rows: for each wall the coefficients
    of its indices i <= n - m, which lead S, over their gcd.  That is
    the primitive row of the whole wall cut and made primitive again, as
    quotient_rows defines it, since a common factor of the whole row
    divides its cut.  No determinant and no Fraction is computed; the
    whole integer rows and the Fraction normals wait until read.
    """
    n, m, scales, minors = ns.n, ns.m, ns.scales, ns.minors
    k = n - m
    bit = [0] + [1 << i for i in range(n)]  # bit[i] for 1-based row i
    subsets = list(combinations(range(1, n + 1), m + 1))
    rows = []
    for S in subsets:
        mask = sum([bit[i] for i in S])
        row = [0] * k
        plus = not m % 2  # the sign at S[0]; + at S[m], alternating
        for i in S:
            if i > k:
                break
            c = minors[mask ^ bit[i]] * scales[i - 1]
            row[i - 1] = c if plus else -c
            plus = not plus
        g = gcd(*row)
        rows.append(tuple([x // g for x in row]) if g > 1 else tuple(row))
    return DiscriminantalArrangement(ns, subsets, rows)


def quotient_rows(da):
    """The walls cut to the first n - m coordinates, where they keep rank.

    Returns, as a new list, the primitive integer rows of the walls
    restricted to coordinates 1 .. n - m and made primitive again, which
    build makes, with no rank computed: the walls span ker(A^T) for the
    n x m matrix A of the normal system, and a vector of that space
    which vanishes there is zero, because the last m rows of A are
    independent.  So the restriction is one-to-one on the row space,
    and every linear dependence, flat and sign is kept.
    """
    return list(da.quotient)


def da_to_dict(da):
    return {
        "n": da.n,
        "m": da.m,
        "hyperplanes": [
            {"subset": list(s), "normal": [rational_str(a) for a in v]}
            for s, v in zip(da.subsets, da.normals)
        ],
    }
