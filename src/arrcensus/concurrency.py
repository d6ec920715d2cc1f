"""Concurrency combinatorics of (m+1)-subset collections.

A collection D of (m+1)-subsets of {1..n} records which groups of lines
are forced to meet in a point.  One dependency can force another: if a
family {S_1..S_r} inside D covers only m + r indices while every
sub-family J covers at least m + |J|, then every (m+1)-subset of the
covered index set is forced too.  The closure operator below iterates
that criterion to a fixpoint.

Internally a collection is a Python int with one bit per (m+1)-subset in
lexicographic order, and index sets are n-bit ints, so the hot loops are
pure bit arithmetic.  Closures are memoized globally: they are pure
combinatorics of (n, m, members), independent of any normal system.
"""

from functools import lru_cache
from itertools import combinations
from math import comb

from .discriminantal import build
from .errors import BadSubsetSize, NotClosed, TooLarge
from .exact_linalg import echelon_insert, echelon_residual, primitive_int_rows

MAX_UNIVERSE = 36  # largest C(n, m+1) the enumeration strategies accept

_closure_memo = {}
_max_productive_rounds = {}


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

@lru_cache(maxsize=None)
def _universe(n, m):
    """Lex-ordered subsets, their index bitmasks, and the position map."""
    subsets = tuple(combinations(range(1, n + 1), m + 1))
    imasks = tuple(sum(1 << (i - 1) for i in s) for s in subsets)
    pos = {s: p for p, s in enumerate(subsets)}
    return subsets, imasks, pos


@lru_cache(maxsize=None)
def _subsets_within(n, m, union_mask):
    """Bitmask over E of all (m+1)-subsets inside a given index set."""
    _, imasks, _ = _universe(n, m)
    out = 0
    for p, im in enumerate(imasks):
        if im & ~union_mask == 0:
            out |= 1 << p
    return out


def _bits(x):
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def _to_int(col):
    _, _, pos = _universe(col.n, col.m)
    out = 0
    for s in col.members:
        out |= 1 << pos[s]
    return out


def _from_int(n, m, dint):
    subsets, _, _ = _universe(n, m)
    return SubsetCollection(n, m, (subsets[p] for p in _bits(dint)))


def _spread_ok(chosen, m):
    # intermediate sub-family coverage: |union(J)| >= m + |J| for every
    # nonempty J; singletons and the full family hold by construction
    t = len(chosen)
    for r in range(2, t):
        for grp in combinations(chosen, r):
            u = 0
            for g in grp:
                u |= g
            if u.bit_count() < m + r:
                return False
    return True


def _close_engine(n, m, start_int, dirty0):
    """Fixpoint of the forcing criterion from start_int.

    dirty0: masks whose spreads are not yet explored (None = all).  Each
    round only examines spreads touching a dirty member: spreads among
    settled members were exhausted in earlier rounds.
    """
    _, imasks, _ = _universe(n, m)
    full_e = (1 << len(imasks)) - 1
    kmax = n - m
    members = start_int
    dirty = dirty0
    rounds = 0
    while members != full_e:
        mlist = [imasks[p] for p in _bits(members)]
        unions = set()
        if dirty is None:
            anchors = [None]
        else:
            anchors = dirty

        for a in anchors:
            others = mlist if a is None else [x for x in mlist if x != a]

            def rec(start, chosen, union, t):
                if t:
                    delta = union.bit_count() - m - t
                    if delta < 0 or delta > kmax - t:
                        return
                    if delta == 0 and t >= 2 and _spread_ok(chosen, m):
                        unions.add(union)
                if t == kmax:
                    return
                for i in range(start, len(others)):
                    rec(i + 1, chosen + (others[i],),
                        union | others[i], t + 1)

            if a is None:
                rec(0, (), 0, 0)
            else:
                rec(0, (a,), a, 1)

        add = 0
        for u in unions:
            add |= _subsets_within(n, m, u)
        new_bits = add & ~members
        if not new_bits:
            break
        members |= add
        dirty = [imasks[p] for p in _bits(new_bits)]
        rounds += 1
    return members, rounds


def _record_rounds(n, m, rounds):
    prev = _max_productive_rounds.get((n, m), 0)
    if rounds > prev:
        _max_productive_rounds[(n, m)] = rounds


def _closure_int(n, m, dint):
    key = (n, m, dint)
    hit = _closure_memo.get(key)
    if hit is not None:
        return hit
    members, rounds = _close_engine(n, m, dint, None)
    _closure_memo[key] = members
    _closure_memo[(n, m, members)] = members
    _record_rounds(n, m, rounds)
    return members


def _closure_step(n, m, closed_int, p):
    """Closure of (a closed collection) + one subset; spreads anchored."""
    dint = closed_int | (1 << p)
    key = (n, m, dint)
    hit = _closure_memo.get(key)
    if hit is not None:
        return hit
    _, imasks, _ = _universe(n, m)
    members, rounds = _close_engine(n, m, dint, [imasks[p]])
    _closure_memo[key] = members
    _closure_memo[(n, m, members)] = members
    _record_rounds(n, m, rounds)
    return members


def max_productive_rounds(n, m):
    """Most fixpoint rounds any closure computed so far has needed."""
    return _max_productive_rounds.get((n, m), 0)


@lru_cache(maxsize=None)
def _clique_candidates(n, m):
    """(index_mask, subset_mask) for every C of size >= m+1, by size."""
    out = []
    for k in range(m + 1, n + 1):
        for c in combinations(range(1, n + 1), k):
            cmask = sum(1 << (i - 1) for i in c)
            out.append((cmask, _subsets_within(n, m, cmask)))
    return tuple(out)


@lru_cache(maxsize=None)
def _orders_int(n, m, dint):
    """Maximal index sets all of whose (m+1)-subsets lie in dint."""
    hits = [cmask for cmask, emask in _clique_candidates(n, m)
            if emask and emask & ~dint == 0]
    maximal = [c for c in hits
               if not any(o != c and c & ~o == 0 for o in hits)]
    return tuple(sorted(maximal))


def _rank_of_closed(n, m, closed_int):
    return sum(c.bit_count() - m for c in _orders_int(n, m, closed_int))


def _rank_int(n, m, dint):
    return _rank_of_closed(n, m, _closure_int(n, m, dint))


# ---------------------------------------------------------------- API

def concurrency_closure(col):
    """Smallest superset of col stable under the forcing criterion."""
    _check_universe(col.n, col.m)
    return _from_int(col.n, col.m, _closure_int(col.n, col.m, _to_int(col)))


def is_closed(col):
    dint = _to_int(col)
    return _closure_int(col.n, col.m, dint) == dint


def concurrency_orders(col):
    """Maximal concurrency sets of a closed collection, with their orders.

    Returns [(index_tuple, order)] sorted; order = cardinality >= m+1.
    """
    _check_universe(col.n, col.m)
    dint = _to_int(col)
    if _closure_int(col.n, col.m, dint) != dint:
        raise NotClosed("collection is not concurrency closed",
                        missing=len(_from_int(
                            col.n, col.m,
                            _closure_int(col.n, col.m, dint))) - len(col))
    out = []
    for cmask in _orders_int(col.n, col.m, dint):
        idx = tuple(p + 1 for p in _bits(cmask))
        out.append((idx, len(idx)))
    return sorted(out)


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
    return _rank_int(col.n, col.m, _to_int(col))


def _check_universe(n, m):
    size = comb(n, m + 1)
    if size > MAX_UNIVERSE:
        raise TooLarge("too many (m+1)-subsets for enumeration",
                       n=n, m=m, subsets=size, limit=MAX_UNIVERSE)
    return size


def enumerate_closed_collections(n, m):
    """Every nonempty concurrency closed collection, each exactly once.

    Lattice crawl: close the singletons, then repeatedly close
    (closed C) + (one more subset) until no new collection appears.
    Yields in (cardinality, lex) order; the empty collection is excluded.
    """
    _check_universe(n, m)
    for dint in _closed_ints(n, m):
        yield _from_int(n, m, dint)


@lru_cache(maxsize=None)
def _closed_ints(n, m):
    size = comb(n, m + 1)
    seen = set()
    frontier = set()
    for p in range(size):
        c = _closure_int(n, m, 1 << p)
        if c not in seen:
            seen.add(c)
            frontier.add(c)
    while frontier:
        nxt = set()
        for d in frontier:
            rest = ~d & ((1 << size) - 1)
            for p in _bits(rest):
                c = _closure_step(n, m, d, p)
                if c not in seen:
                    seen.add(c)
                    nxt.add(c)
        frontier = nxt
    subsets, _, _ = _universe(n, m)

    def sort_key(dint):
        mem = sorted(subsets[p] for p in _bits(dint))
        return (len(mem), mem)

    return tuple(sorted(seen, key=sort_key))


def all_closures_brute(n, m):
    """Oracle: distinct closures of every subset of E (exponential)."""
    size = _check_universe(n, m)
    if size > 22:
        raise TooLarge("brute enumeration needs C(n, m+1) <= 22",
                       n=n, m=m, subsets=size, limit=22)
    seen = {_closure_int(n, m, d) for d in range(1, 1 << size)}
    subsets, _, _ = _universe(n, m)

    def sort_key(dint):
        mem = sorted(subsets[p] for p in _bits(dint))
        return (len(mem), mem)

    return [_from_int(n, m, d) for d in sorted(seen, key=sort_key)]


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

    Rank is tracked incrementally on the integer echelon kernel: the
    normals become primitive integer rows once, and a node carries the
    echelon basis of its parent's rows, which passed the level before and
    so are independent.  The node is dependent exactly when its last row
    leaves no residual against that basis.  The last level, k = n - m,
    is only checked: it builds no children and keeps no bases.
    """
    n, m = ns.n, ns.m
    _check_universe(n, m)
    subsets, _, _ = _universe(n, m)
    rows = primitive_int_rows(build(ns).normals)
    kmax = n - m

    # nodes carry (member positions, closure of those members, echelon
    # basis of every member row but the last)
    level = [((p,), _closure_int(n, m, 1 << p), ())
             for p in range(len(subsets))]
    k = 1
    while level:
        bad = []
        grown_bases = []
        for tup, _, basis in level:
            res = echelon_residual(basis, rows[tup[-1]])
            if res is None:
                bad.append(tup)
            elif k < kmax and not bad:
                grown_bases.append(echelon_insert(basis, res))
        if bad:
            witness = min(tuple(subsets[p] for p in t) for t in bad)
            return FreeVerdict(False,
                               SubsetCollection(n, m, witness))
        if k == kmax:
            break
        nxt = []
        for (tup, closed, _), basis in zip(level, grown_bases):
            for q in range(tup[-1] + 1, len(subsets)):
                if closed & (1 << q):
                    continue  # inside the closure: rank cannot grow
                grown = _closure_step(n, m, closed, q)
                if _rank_of_closed(n, m, grown) == k + 1:
                    nxt.append((tup + (q,), grown, basis))
        level = nxt
        k += 1
    return FreeVerdict(True)
