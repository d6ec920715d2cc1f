"""Reference derivations that only the tests use.

Each is a slow, direct computation that a production engine is checked
against; none of them is part of the library.
"""

from fractions import Fraction

from arrcensus.errors import BadShape, BadSubsetSize
from arrcensus.exact_linalg import dot, feasible_strict, rank


def matvec(mat, x):
    return tuple(dot(row, x) for row in mat)


def find_interior_point(mat, signs):
    """Exact x with sign(row_i . x) = signs_i for all i, or None.

    signs entries are '+'/'-' (or +1/-1).  Deterministic for fixed input.
    """
    if len(signs) != len(mat):
        raise BadShape("one sign per row required",
                       rows=len(mat), signs=len(signs))
    folded = []
    for row, s in zip(mat, signs):
        if s in ("+", 1):
            folded.append(tuple(Fraction(a) for a in row))
        elif s in ("-", -1):
            folded.append(tuple(-Fraction(a) for a in row))
        else:
            raise BadShape("signs must be '+' or '-'", got=repr(s))
    return feasible_strict(folded)


def common_intersection_dim(da):
    """Dimension of the intersection of all hyperplanes; always >= m."""
    return da.n - rank(da.normals)


def stack_normals(da, D):
    """Normal rows of the members of D, in the order given."""
    rows = []
    for S in D:
        s = tuple(sorted(S))
        if len(s) != da.m + 1 or s not in da.index:
            raise BadSubsetSize("members must be (m+1)-subsets of {1..n}",
                                member=list(S), m=da.m, n=da.n)
        rows.append(da.normals[da.index[s]])
    return rows


def subset_rank(da, D):
    """Rank of the stacked normals of the members of D (0 for empty D)."""
    rows = stack_normals(da, D)
    if not rows:
        return 0
    return rank(rows)
