"""Discriminantal arrangement of a normal system.

For every (m+1)-subset S of the n lines there is one hyperplane through the
origin of R^n: the locus of constant vectors b for which the lines indexed
by S pass through a common point.  Its normal comes from expanding the
(m+1) x (m+1) concurrency determinant along the b-column, so it is
supported exactly on S.  The C(n, m+1) normals, in lexicographic subset
order, fix the sign conventions used by every census downstream.
"""

from fractions import Fraction
from itertools import combinations
from math import prod

from .errors import BadArtifact
from .exact_linalg import (_int_row, determinant, parse_rational,
                           rational_str)


class DiscriminantalArrangement:
    """Central arrangement in R^n keyed by (m+1)-subsets (1-based, lex).

    source keeps the normal system the arrangement was built from (None for
    deserialized arrangements); geometric verifiers use it to reconstruct
    the affine picture behind a constant vector b.
    """

    __slots__ = ("n", "m", "subsets", "normals", "index", "source")

    def __init__(self, n, m, subsets, normals, source=None):
        self.n = int(n)
        self.m = int(m)
        self.subsets = tuple(tuple(s) for s in subsets)
        self.normals = tuple(tuple(v) for v in normals)
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
    """
    n, m = ns.n, ns.m
    subsets = list(combinations(range(1, n + 1), m + 1))
    # each row scaled to integers once; a minor is the integer minor over
    # the product of its rows' scales
    scaled = [_int_row(row) for row in ns.rows]
    normals = []
    for S in subsets:
        vec = [Fraction(0)] * n
        for k, i in enumerate(S, start=1):
            minor = [scaled[j - 1][0] for j in S if j != i]
            scale = prod(scaled[j - 1][1] for j in S if j != i)
            sign = -1 if (m + 1 + k) % 2 else 1
            vec[i - 1] = sign * determinant(minor) / scale
        normals.append(tuple(vec))
    return DiscriminantalArrangement(n, m, subsets, normals, source=ns)


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
