"""Concurrency combinatorics of (m+1)-subset collections.

A collection D of (m+1)-subsets of {1..n} records which groups of lines
are forced to meet in a point.  One dependency can force another, and
the closure of D adds every forced subset.  A closed collection is
described by its maximal concurrency sets: a family {S_1..S_p} of index
sets with |S_i| >= m+1 such that every subfamily I with |I| >= 2 obeys

    |union of the S_i in I| > m + sum over I of (|S_i| - m)

(Bayer and Brandt's conjecture, proved by Athanasiadis 1999).  The
collection is every (m+1)-subset of some S_i, and its combinatorial
rank is the sum of |S_i| - m.

Internally a family is a sorted tuple of n-bit index masks, and every
query runs on it; collections are expanded to (m+1)-subsets only at the
API boundary.  The closure adds one set t at a time: while some
subfamily I breaks the inequality together with t, t and I are replaced
by their union.  That step is memoized in one process-wide dict: it is
pure combinatorics of (m, family, t), independent of n and of any
normal system.
"""

from itertools import combinations
from math import comb, gcd
from operator import mul

from .discriminantal import build, quotient_rows
from .errors import BadShape, BadSubsetSize, NotClosed, TooLarge

MAX_UNIVERSE = 36  # largest C(n, m+1) the enumeration strategies accept

_step_memo = {}  # (m, family, index set) -> closed family


class SubsetCollection:
    """Immutable family of (m+1)-subsets of {1..n} (tuples, 1-based)."""

    __slots__ = ("n", "m", "members")

    def __init__(self, n, m, members):
        self.n = int(n)
        self.m = int(m)
        canon = set()
        for s in members:
            t = tuple(sorted(int(i) for i in s))
            if len(t) != self.m + 1 or len(set(t)) != len(t) \
                    or t[0] < 1 or t[-1] > self.n:
                raise BadSubsetSize(
                    "members must be (m+1)-subsets of {1..n}",
                    member=list(s), m=self.m, n=self.n)
            canon.add(t)
        self.members = frozenset(canon)

    @property
    def sorted_members(self):
        return sorted(self.members)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.sorted_members)

    def __contains__(self, s):
        return tuple(sorted(s)) in self.members

    def __eq__(self, other):
        return (isinstance(other, SubsetCollection)
                and (self.n, self.m) == (other.n, other.m)
                and self.members == other.members)

    def __hash__(self):
        return hash((self.n, self.m, self.members))

    def __repr__(self):
        inner = ",".join("".join(map(str, s)) for s in self.sorted_members)
        return "SubsetCollection(n=%d, m=%d, {%s})" % (self.n, self.m, inner)


def full_collection(n, m):
    """E: every (m+1)-subset of {1..n}."""
    return SubsetCollection(n, m, combinations(range(1, n + 1), m + 1))


def collection_to_dict(col):
    return {"n": col.n, "m": col.m,
            "members": [list(s) for s in col.sorted_members]}


def collection_from_dict(data):
    return SubsetCollection(data["n"], data["m"], data["members"])


# ---------------------------------------------------------------- engine

def _universe(n, m):
    """Lex-ordered (m+1)-subsets and their index bitmasks."""
    subsets = tuple(combinations(range(1, n + 1), m + 1))
    return subsets, tuple(_mask(s) for s in subsets)


def _mask(idx):
    return sum(1 << (i - 1) for i in idx)


def _indices(mask):
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def _rank(m, family):
    return sum(map(int.bit_count, family)) - m * len(family)


def _violation(m, t, rest):
    """Smallest subfamily I of rest breaking the inequality with t, and
    the union of t and I; None when t may join rest as a new member."""
    size = t.bit_count()
    for r in range(1, len(rest) + 1):
        for grp in combinations(rest, r):
            u = t
            for s in grp:
                u |= s
            if u.bit_count() <= size + _rank(m, grp):
                return grp, u
    return None


def _step(m, family, t):
    """Closed family of a closed family plus one index set t (a mask)."""
    for s in family:
        if t & ~s == 0:
            return family
    key = (m, family, t)
    out = _step_memo.get(key)
    if out is None:
        rest = family
        hit = _violation(m, t, rest)
        while hit is not None:
            grp, t = hit
            rest = tuple(s for s in rest if s not in grp)
            hit = _violation(m, t, rest)
        out = _step_memo[key] = tuple(sorted(rest + (t,)))
    return out


def _family(col):
    """Maximal concurrency sets of the closure of col, as sorted masks."""
    family = ()
    for s in col.sorted_members:
        family = _step(col.m, family, _mask(s))
    return family


def _collection(n, m, family):
    """Every (m+1)-subset inside a member of family."""
    return SubsetCollection(n, m, (c for s in family
                                   for c in combinations(_indices(s), m + 1)))


def _families(n, m):
    """Every closed family over {1..n}, the empty one first.

    A depth-first walk over the index sets of size >= m+1 in mask order;
    only those sets are listed, never all 2^n masks, so a shape with m
    close to n stays small.  A family grows only by later sets, so each
    is met once.  A candidate c is checked only against the subfamilies
    that contain it; subs holds (union, rank) of every nonempty
    subfamily of the current family.
    """
    cands = sorted((_mask(c), k - m) for k in range(m + 1, n + 1)
                   for c in combinations(range(1, n + 1), k))
    out = []

    def walk(start, family, subs):
        out.append(family)
        for i in range(start, len(cands)):
            c, rc = cands[i]
            if all((u | c).bit_count() > m + r + rc for u, r in subs):
                walk(i + 1, family + (c,),
                     subs + [(c, rc)] + [(u | c, r + rc) for u, r in subs])

    walk(0, (), [])
    return out


# ---------------------------------------------------------------- API

def concurrency_closure(col):
    """Smallest superset of col stable under the forcing criterion."""
    _check_universe(col.n, col.m)
    return _collection(col.n, col.m, _family(col))


def is_closed(col):
    return _collection(col.n, col.m, _family(col)) == col


def concurrency_orders(col):
    """Maximal concurrency sets of a closed collection, with their orders.

    Returns [(index_tuple, order)] sorted; order = cardinality >= m+1.
    """
    _check_universe(col.n, col.m)
    family = _family(col)
    missing = len(_collection(col.n, col.m, family)) - len(col)
    if missing:
        raise NotClosed("collection is not concurrency closed",
                        missing=missing)
    return sorted((idx, len(idx)) for idx in map(_indices, family))


def base_collection(col):
    """Canonical minimal generating collection of a closed collection.

    Per maximal concurrency set {j_1 < ... < j_k}: the k - m subsets
    {j_1, ..., j_m, j_l} for l = m+1 .. k.
    """
    orders = concurrency_orders(col)  # NotClosed raised here
    members = []
    for idx, k in orders:
        head = idx[:col.m]
        for l in range(col.m, k):
            members.append(head + (idx[l],))
    return SubsetCollection(col.n, col.m, members)


def combinatorial_rank(col):
    """Sum of (order - m) over concurrency sets of the closure."""
    _check_universe(col.n, col.m)
    return _rank(col.m, _family(col))


def _check_universe(n, m):
    if m < 1:
        # with m = 0 every index set is a concurrency set: 2^n of them
        raise BadShape("concurrency needs m >= 1", n=n, m=m)
    if n <= m:
        raise BadShape("need more hyperplanes than dimensions", n=n, m=m)
    size = comb(n, m + 1)
    if size > MAX_UNIVERSE:
        raise TooLarge("too many (m+1)-subsets for enumeration",
                       n=n, m=m, subsets=size, limit=MAX_UNIVERSE)


def enumerate_closed_collections(n, m):
    """Every nonempty concurrency closed collection, each exactly once.

    One per nonempty closed family of _families.  Yields in (cardinality,
    lex) order; the empty collection is excluded.
    """
    _check_universe(n, m)
    cols = [_collection(n, m, f) for f in _families(n, m) if f]
    cols.sort(key=lambda col: (len(col), col.sorted_members))
    yield from cols


class FreeVerdict:
    """Outcome of the concurrency-freeness decision."""

    __slots__ = ("free", "witness")

    def __init__(self, free, witness=None):
        self.free = bool(free)
        self.witness = witness

    def __bool__(self):
        return self.free

    def __repr__(self):
        if self.free:
            return "FreeVerdict(free)"
        return "FreeVerdict(witness=%r)" % (self.witness,)


def is_concurrency_free(ns):
    """Decide whether combinatorics and geometry agree for ns.

    A minimal generating collection B (one with |B| = combinatorial rank
    of its closure) asserts that its concurrency conditions are
    independent; the system is free when the corresponding normals in the
    discriminantal arrangement are linearly independent for every such B.
    The search runs breadth-first by cardinality, so a returned witness
    has minimal size (lex-first among those).

    The search runs in n - m coordinates, on the walls' integer rows cut
    to their first n - m entries by quotient_rows, which changes no
    linear dependence.

    A node with k - 1 independent rows carries an annihilator basis:
    n - m - k + 1 independent integer vectors orthogonal to its rows, so
    a row lies in their span exactly when it is orthogonal to every one
    of them (the root, with no rows, carries the unit vectors).  A child
    row r is checked as it is made: it is dependent exactly when every
    dot product d_i = z_i . r is zero.  A kept child pivots on one z_j
    with d_j != 0 and keeps d_j z_i - d_i z_j for every i != j, made
    primitive.  At the last level, k = n - m, the annihilator is one
    vector h, so a child costs one dot product; the closure step and the
    rank check run only for the children with h . r = 0, and the level
    keeps nothing but its dependent tuples.
    """
    n, m = ns.n, ns.m
    _check_universe(n, m)
    subsets, imasks = _universe(n, m)
    kmax = n - m
    _, rows = quotient_rows(build(ns))

    def non_free(bad):
        witness = min(tuple(subsets[p] for p in t) for t in bad)
        return FreeVerdict(False, SubsetCollection(n, m, witness))

    # nodes carry (member positions, closed family of those members,
    # annihilator basis of the member rows); the root is the empty
    # collection, whose rows span nothing
    level = [((), (), tuple(tuple(int(i == j) for i in range(kmax))
                            for j in range(kmax)))]
    for k in range(1, kmax):
        bad = []
        nxt = []
        for tup, family, zs in level:
            for q in range(tup[-1] + 1 if tup else 0, len(subsets)):
                # a subset inside the closure returns the family: rank k-1
                grown = _step(m, family, imasks[q])
                if _rank(m, grown) != k:
                    continue
                r = rows[q]
                ds = [sum(map(mul, z, r)) for z in zs]
                j = next((i for i, d in enumerate(ds) if d), None)
                if j is None:
                    bad.append(tup + (q,))
                elif not bad:
                    nxt.append((tup + (q,), grown, _pivot(zs, ds, j)))
        if bad:
            return non_free(bad)
        level = nxt
    bad = []
    for tup, family, (h,) in level:
        zero = [q for q in range(tup[-1] + 1 if tup else 0, len(subsets))
                if not sum(map(mul, h, rows[q]))]
        bad += [tup + (q,) for q in zero
                if _rank(m, _step(m, family, imasks[q])) == kmax]
    return non_free(bad) if bad else FreeVerdict(True)


def _pivot(zs, ds, j):
    """Annihilator basis of the rows behind zs plus one row r, given the
    dot products ds of r with zs and a pivot j with ds[j] != 0."""
    zj, dj = zs[j], ds[j]
    out = []
    for i, (z, d) in enumerate(zip(zs, ds)):
        if i != j:
            if d:
                v = [dj * x - d * y for x, y in zip(z, zj)]
                g = gcd(*v)
                z = tuple([x // g for x in v])
            out.append(z)
    return tuple(out)
