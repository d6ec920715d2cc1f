"""Discriminantal arrangement of a normal system.

For every (m+1)-subset S of the n lines there is one hyperplane through the
origin of R^n: the locus of constant vectors b for which the lines indexed
by S pass through a common point.  Its normal comes from expanding the
(m+1) x (m+1) concurrency determinant along the b-column, so it is
supported exactly on S.  The C(n, m+1) normals, in lexicographic subset
order, fix the sign conventions used by every census downstream.

Every coefficient of a wall is a signed m x m minor of the normal system
(_leading_plus fixes the signs), so everything here reads the system's one
table of minors (NormalSystem.minors) and computes no determinant.  build
makes only the subsets.  Three readers make what they need from the table:
_wall_values, the one integer kernel behind every cone read (classify,
catalog checks and the affine readings), gives f_T(b) up to a positive
factor for every wall T; the quotient rows, the walls cut to their first
n - m coordinates, where every linear dependence is kept, are made when
first read, for the deletion recursion, the cone composition and the
freeness search; and the Fraction normals when first read, for
serialization and the oracles.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, prod

from .exact_linalg import rational_str


class DiscriminantalArrangement:
    """Central arrangement in R^n keyed by (m+1)-subsets (1-based, lex).

    Made by build.  source is the normal system it was built from; its
    minor table holds every wall.  quotient, normals and index are made
    from it the first time they are read.
    """

    __slots__ = ("n", "m", "subsets", "source", "_quotient", "_normals",
                 "_index")

    def __init__(self, source, subsets):
        self.n = source.n
        self.m = source.m
        self.subsets = tuple(subsets)
        self.source = source
        self._quotient = self._normals = self._index = None

    @property
    def quotient(self):
        """Each wall cut to its first n - m coordinates and scaled by a
        positive factor to coprime integers (quotient_rows)."""
        if self._quotient is None:
            self._quotient = _quotient(self.source, self.subsets)
        return self._quotient

    @property
    def normals(self):
        """The walls as exact Fraction vectors, one per subset."""
        if self._normals is None:
            self._normals = _fraction_normals(self.source, self.subsets)
        return self._normals

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


def _leading_plus(m):
    """Whether the wall of an (m+1)-subset S takes its minor at S[0]
    with +.  The signs are + at the last index of S and alternate, so
    every maker and reader of a wall starts with this one and flips it
    at each index."""
    return not m % 2


def _wall_values(ns, B):
    """f_T(b) times a positive factor for every wall T, in lex order.

    B is b scaled to integers by a positive factor.  The coefficient of
    b_i in f_T is a signed minor of the scaled rows of T without i
    (ns.minors) over the product of their scales d_k; times the product
    of all the scales of T, f_T(b) is the sum of those signed minors
    times d_i B_i.  So each value is m + 1 integer multiply-adds, and an
    entry of b that is zero adds nothing and is skipped.
    """
    minors = ns.minors
    # (bit of row i, d_i B_i) per row, so a wall is m + 1 such pairs
    terms = [(1 << i, d * x) for i, (d, x) in enumerate(zip(ns.scales, B))]
    lead = _leading_plus(ns.m)
    vals = []
    for T in combinations(terms, ns.m + 1):
        mask = 0
        for bit, _ in T:
            mask |= bit
        v = 0
        plus = lead
        for bit, x in T:
            if x:
                c = minors[mask ^ bit] * x
                if plus:
                    v += c
                else:
                    v -= c
            plus = not plus
        vals.append(v)
    return vals


def _fraction_normals(ns, subsets):
    """The Fraction normals of the walls of ns, as build defines them:
    the coefficient of b_i is its signed minor over the product of the
    scales of the other rows of S."""
    n, scales, minors = ns.n, ns.scales, ns.minors
    lead = _leading_plus(ns.m)
    zero = Fraction(0)
    normals = []
    for S in subsets:
        mask = sum([1 << (i - 1) for i in S])
        whole = prod([scales[i - 1] for i in S])
        vec = [zero] * n
        plus = lead
        for i in S:
            c = minors[mask ^ 1 << (i - 1)]
            vec[i - 1] = Fraction(c if plus else -c, whole // scales[i - 1])
            plus = not plus
        normals.append(tuple(vec))
    return tuple(normals)


def _quotient(ns, subsets):
    """The quotient rows of the walls of ns: times the product of the
    scales of S, the wall of S has the integer coefficients signed minor
    times d_i, and its quotient row is those of the indices i <= n - m
    over their gcd (a common factor of the whole row divides its cut)."""
    k = ns.n - ns.m
    scales, minors = ns.scales, ns.minors
    bit = [0] + [1 << i for i in range(ns.n)]  # bit[i] for 1-based row i
    lead = _leading_plus(ns.m)
    rows = []
    for S in subsets:
        mask = sum([bit[i] for i in S])
        row = [0] * k
        plus = lead
        for i in S:
            if i > k:
                break
            c = minors[mask ^ bit[i]] * scales[i - 1]
            row[i - 1] = c if plus else -c
            plus = not plus
        g = gcd(*row)
        rows.append(tuple([x // g for x in row]) if g > 1 else tuple(row))
    return tuple(rows)


def build(ns):
    """All C(n, m+1) concurrency hyperplanes of a normal system.

    The coefficient of b_{i_k} in the hyperplane of S = {i_1 < ... <
    i_{m+1}} is (-1)^(m+1+k) times the maximal minor of the coefficient
    rows of S with row i_k deleted.  Signs are kept raw: rescaling would
    break bit-exact comparison with hand-computed equation lists.  build
    makes only the subsets; the walls are read off the system's minor
    table when needed.
    """
    return DiscriminantalArrangement(
        ns, combinations(range(1, ns.n + 1), ns.m + 1))


def quotient_rows(da):
    """The walls cut to the first n - m coordinates, where they keep rank.

    Returns, as a new list, the primitive integer rows of the walls
    restricted to coordinates 1 .. n - m and made primitive again, with
    no rank computed: the walls span ker(A^T) for the n x m matrix A of
    the normal system, and a vector of that space which vanishes there
    is zero, because the last m rows of A are independent.  So the
    restriction is one-to-one on the row space, and every linear
    dependence, flat and sign is kept.
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
