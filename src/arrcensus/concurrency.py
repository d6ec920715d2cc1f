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
by their union; that step is a pure function of (m, family, t).

The closed families are the flats of the combinatorial matroid on the
walls, and they depend on the shape (n, m) alone.  One table per shape
(_lattice, in a bounded cache) holds them rank by rank, each with a
parent one rank lower and the wall that closes the parent to it; the
combinatorial charpoly, the enumeration and the freeness decision all
read it.  Freeness reads that table once per normal system, with one set
of integer annihilator vectors per family up to corank 3, tested against
every wall at once by products with the rows packed into big integers
(the packed kernel of exact_linalg).  A product is linear in its vector,
so each family of corank 2 gets its two products by packed combinations
of its parent's three, with no vector made.  The system is free exactly
when every pivot up to corank 2 is full and no corank-1 family, a
hyperplane of the matroid, has a wall outside it orthogonal to its
normal; one packed combination of its parent's two products gives each
such test.  Only a system that fails it is searched for the least and
lex-first witness, rank by rank downward from corank 2 on the products
and vectors already made (is_concurrency_free has the argument in full).
"""

from functools import lru_cache
from itertools import combinations
from math import comb

from .discriminantal import build, quotient_rows
from .errors import (BadArtifact, BadShape, BadSubsetSize, NotClosed,
                     TooLarge)
from .exact_linalg import _pack, _pivot, _slot_width, _units, _zero_slots

MAX_UNIVERSE = 36  # largest C(n, m+1) the enumeration strategies accept


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
    """SubsetCollection from {"n": int, "m": int, "members": [[int, ...]]}.

    A wrong layout, or an "n", "m" or member entry that is not a JSON
    integer ("4", 4.5 or true), raises BadArtifact; a member that is not an
    (m+1)-subset of {1..n} raises BadSubsetSize, as in SubsetCollection.
    """
    need = 'collection needs integer "n" and "m" and integer "members" lists'
    try:
        n, m, members = data["n"], data["m"], data["members"]
    except (KeyError, TypeError):
        raise BadArtifact(need) from None
    if not (type(n) is int and type(m) is int and isinstance(members, list)
            and all(isinstance(s, list) and all(type(i) is int for i in s)
                    for s in members)):
        raise BadArtifact(need)
    return SubsetCollection(n, m, members)


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
    """Closed family of a closed family plus one index set t (a mask);
    family itself when t lies inside one of its members."""
    for s in family:
        if t & ~s == 0:
            return family
    rest = family
    hit = _violation(m, t, rest)
    while hit is not None:
        grp, t = hit
        rest = tuple(s for s in rest if s not in grp)
        hit = _violation(m, t, rest)
    return tuple(sorted(rest + (t,)))


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


@lru_cache(maxsize=16)
def _lattice(n, m):
    """The closed families of shape (n, m), by rank 0 .. n - m.

    Entry (family, walls, parent, q) of rank k: the family; the mask of
    the wall positions (_universe) inside its members; the index in rank
    k - 1 of its parent; and the position q of the wall that closes the
    parent to the family.  The parent of X drops the largest index of
    X's last member S, and S itself when |S| = m + 1; q is the m smallest
    indices of S with the dropped one.  Dropping one index lowers the
    left side of each inequality of a subfamily with S by at most one and
    its right side by exactly one, so the parent is closed; closing it
    with q merges q back into S and gives X.  The root is
    ((), 0, None, None).  One walk of _families, cached per shape;
    (m + 1, m) passes the universe guard for every m, so the cache is
    bounded.
    """
    _, imasks = _universe(n, m)
    position = {w: q for q, w in enumerate(imasks)}
    inside = {}  # member mask -> mask of the wall positions inside it
    by_rank = [[] for _ in range(n - m + 1)]
    for family in _families(n, m):
        by_rank[_rank(m, family)].append(family)
    lattice = [(((), 0, None, None),)]
    for k in range(1, n - m + 1):
        index = {family: i for i, family in enumerate(by_rank[k - 1])}
        level = []
        for family in by_rank[k]:
            walls = 0
            for s in family:
                if s not in inside:
                    inside[s] = sum(1 << q for q, w in enumerate(imasks)
                                    if w & ~s == 0)
                walls |= inside[s]
            *rest, s = family
            top = 1 << s.bit_length() - 1
            if s.bit_count() > m + 1:
                rest = sorted(rest + [s ^ top])
            high = s  # s without its m smallest indices
            for _ in range(m):
                high &= high - 1
            level.append((family, walls, index[tuple(rest)],
                          position[s ^ high | top]))
        lattice.append(tuple(level))
    return tuple(lattice)


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

    One per nonempty closed family of _lattice.  Yields in (cardinality,
    lex) order; the empty collection is excluded.
    """
    _check_universe(n, m)
    cols = [_collection(n, m, family) for level in _lattice(n, m)[1:]
            for family, _, _, _ in level]
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
    A witness B has the least size there is, and is lex-first among those.

    The search runs in kmax = n - m coordinates, on the walls' integer
    rows cut to their first kmax entries by quotient_rows, which changes
    no linear dependence.  Write r_g(D) for the linear rank of the rows
    of a set D of walls and r_c(D) for the rank of D's closure, the sum
    of |S_i| - m over its maximal concurrency sets S_i; the c-flats are
    the closed families of _lattice, and a g-flat is a set of walls that
    holds every wall in its span.  A family F of rank k carries kmax - k
    integer annihilator vectors, made from its parent's by one pivot on
    the row of the wall that closes the parent to F (the root, the empty
    family, carries the unit vectors); a pair (F, q) fails when the wall
    q outside F is orthogonal to every vector of F.  With kmax <= 2 the
    system is free: there is one wall, or the walls are single (m+1)-sets
    S, whose normals have support exactly S (every m-minor of the system
    is nonzero), so no two are parallel.

    The families are pivoted by _pivot rank by rank up to corank 3, rank
    kmax - 3, with no other test (_pivot_levels).  The rows are packed
    once per system at W' = 4W - 4 bits a slot, for W = _slot_width(rows,
    kmax - 2), and each family of corank 3 gets the three packed products
    P1, P2, P3 of its vectors z1, z2, z3 (_products).  A product is
    linear in its vector, so the pivots of corank 2 make no vector
    (_corank_two): for a family F closed from such a parent by wall q,
    d_j = z_j . r_q is read from slot q of P_j, the first nonzero d_p is
    the pivot, and d_p P_j - d_j P_p, for the other two j, are the
    products of F's two vectors d_p z_j - d_j z_p; when all three d_j are
    zero the pivot comes back short.  No gcd is taken, so these vectors
    are F's up to nonzero factors, which change no zero mask.  A short
    pivot at any rank puts a row in its parent's span, and the system is
    not free.  A family H of corank 1 closed from a corank-2 family by
    wall q has the normal d2 v1 - d1 v2, up to a nonzero factor, where
    v1, v2 are the corank-2 vectors and d_i is read from slot q of the
    i-th product; so d2 P1 - d1 P2 gives the mask of the walls orthogonal
    to that normal by one packed combination (_corank_one).  The system
    is free when no pivot came back short and each such mask holds
    exactly |H| walls.  This is exact because:

    (1) r_g(D) <= r_c(D) for every set D of walls of a validated system:
        the concurrency conditions of the S_i cut out a subspace of
        codimension at most that sum inside the intersection of the
        walls of D.  So when the k walls on F's path from the root are
        linearly independent, which no short pivot on the way means,
        every wall of F lies in their span: the vectors of F annihilate
        exactly span(F), their zero mask holds every wall of F, and a
        failing q lies in span(F).
    (2) The free verdict is right.  If every pivot is full and every
        corank-1 family H passes, H's mask holds H's walls by (1) and no
        other, so the walls in span(H) are H's own: H is a g-flat.  A
        c-flat F below the top is the intersection of the corank-1
        families above it, so for a wall q outside F some H above F
        misses q, and q is not in span(H), which holds span(F): every
        c-flat is a g-flat.  A maximal chain of c-flats is then a
        strictly increasing chain of g-flats from rank 0 to rank at most
        kmax, so the linear rank of each c-flat is its combinatorial
        rank, and a wall outside the closure of a combinatorially
        independent set T keeps T + wall linearly independent: every
        c-independent set is linearly independent.  Conversely, in a
        free system every pivot is full, and for q outside H the
        c-independent set of H's path walls and q has rank kmax, so q
        is not orthogonal to H's normal.
    (3) A witness of the least size k + 1 is a combinatorially independent
        set T with dependent rows.  Every wall t of T lies in the span of
        T - t, so (cl(T - t), t) fails at rank k and T is a c-basis of
        cl(T - t) + t; conversely every c-basis of F + q of a failing
        pair (F, q) puts k + 1 walls in the k-dimensional span(F).  The
        witnesses are these c-bases, and the lex-first c-basis of a set
        is the greedy one: its walls in position order, each kept when
        _step grows the family.  The argument of (2), run on the c-flats
        of rank k in place of the corank-1 ones, shows that when the
        pivots up to rank k are full and no pair of rank k fails, no
        pair of a lower rank fails either; and a short pivot at rank k
        makes its parent's pair fail at rank k - 1.  So the failing ranks
        run from the least one up, and _least_failing_pairs finds it from
        what is already made: rank kmax - 2 first, on the masks of the
        two products of each family, then, only if that fails, the ranks
        below it, downward until one passes, with one _zero_slots
        product per vector.
    (4) No slot carries into its neighbour.  A vector z of F, made
        primitive by _pivot, is the primitive multiple of the cofactor
        vector of F's k path rows on their pivot columns and one column
        more, so z . r_q is a (k + 1)-minor of the rows divided by a
        positive integer.  Hadamard's inequality bounds that minor by the
        product of the k + 1 largest row norms, and _slot_width(rows,
        k + 1) makes that product less than 2^(W - 2).  A corank-3 family
        has k + 1 = kmax - 2, so with W = _slot_width(rows, kmax - 2) the
        d_j and the dots of its vectors are below 2^(W - 2) in size, and
        so are those of every vector of a lower rank, since no rounded-up
        norm of a nonzero row is below 1.  Each slot of
        d_p P_j - d_j P_p is then below 2^(2W - 3), and each slot of the
        corank-1 combination d2 P1 - d1 P2, whose d_i are slots of the
        corank-2 products, below 2^(4W - 5).  A W'-bit slot holds a value
        v offset by 2^(W' - 1) with no carry when |v| < 2^(W' - 1), so
        W' = 4W - 4 holds them all.
    """
    n, m = ns.n, ns.m
    _check_universe(n, m)
    kmax = n - m
    if kmax <= 2:
        return FreeVerdict(True)  # one wall, or no two walls parallel
    rows = quotient_rows(build(ns))
    lattice = _lattice(n, m)
    pack = _pack(rows, 4 * _slot_width(rows, kmax - 2) - 4)
    levels = _pivot_levels(rows, lattice, kmax)
    prods = failures = None
    if len(levels) == kmax - 2:
        prods = _corank_two(lattice[kmax - 2], levels[-1], pack)
        if prods is not None:
            failures = _corank_one(lattice[kmax - 1], prods, pack)
            if not failures:
                return FreeVerdict(True)
    subsets, imasks = _universe(n, m)
    witness = min(_greedy_basis(m, subsets, imasks, walls) for walls in
                  _least_failing_pairs(lattice, levels, prods, failures,
                                       pack))
    return FreeVerdict(False, SubsetCollection(n, m, witness))


def _pivot_levels(rows, lattice, kmax):
    """The annihilator vectors of each family, rank by rank from the root
    up to rank kmax - 3; the ranks stop before the first one where a
    pivot comes back short."""
    levels = [[_units(kmax)]]
    for k in range(1, kmax - 2):
        zss = [_pivot(levels[-1][parent], rows[q])
               for _, _, parent, q in lattice[k]]
        if sum(map(len, zss)) != len(zss) * (kmax - k):
            break
        levels.append(zss)
    return levels


def _products(zs, pack):
    """The packed product of each vector of zs: slot q holds z . r_q, with
    no offset."""
    cols = pack[1]
    out = []
    for z in zs:
        p = 0
        for x, c in zip(z, cols):
            if x:
                p += x * c
        out.append(p)
    return out


def _corank_two(level, zss, pack):
    """The two products of each family of corank 2, each as a pair (v, p)
    of the product v and its offset form p = v + 2^(W' - 1) in each slot;
    None when a pivot comes back short.

    level is rank kmax - 2 of _lattice and zss the three vectors of each
    family of rank kmax - 3.  For a family closed from (z1, z2, z3) by
    wall q, d_j = z_j . r_q is read from slot q of P_j, the first nonzero
    d_p is the pivot, and each other j gives d_p P_j - d_j P_p, in
    _pivot's order.
    """
    width, _, high, _ = pack
    mask = (1 << width) - 1
    half = high & mask
    parents = []
    for zs in zss:
        vs = _products(zs, pack)
        parents.append((vs, [v + high for v in vs]))
    out = []
    for _, _, parent, q in level:
        (v1, v2, v3), (p1, p2, p3) = parents[parent]
        shift = width * q
        d1 = (p1 >> shift & mask) - half
        d2 = (p2 >> shift & mask) - half
        d3 = (p3 >> shift & mask) - half
        if d1:
            dp, vp, rest = d1, v1, ((d2, v2), (d3, v3))
        elif d2:
            dp, vp, rest = d2, v2, ((d1, v1), (d3, v3))
        elif d3:
            dp, vp, rest = d3, v3, ((d1, v1), (d2, v2))
        else:
            return None
        pair = []
        for d, v in rest:
            v = dp * v - d * vp
            pair.append((v, v + high))
        out.append(pair)
    return out


def _corank_one(children, prods, pack):
    """The failing families of corank 1, as (walls, zero mask) pairs.

    children is rank kmax - 1 of _lattice and prods what _corank_two
    gives rank kmax - 2.  For a child of ((v1, p1), (v2, p2)) closed by
    wall q, d_i is read from slot q of p_i, and d2 v1 - d1 v2 is the
    product of the child's normal, offset and turned into its zero mask
    as _zero_slots does.  A child passes when the mask holds as many
    walls as the child; when both d_i are zero the mask holds every wall.
    """
    width, _, high, low = pack
    mask = (1 << width) - 1
    half = high & mask
    slots = low.bit_count()
    failures = []
    for _, walls, parent, q in children:
        (v1, p1), (v2, p2) = prods[parent]
        shift = width * q
        d1 = (p1 >> shift & mask) - half
        d2 = (p2 >> shift & mask) - half
        nonzero = (d2 * v1 - d1 * v2 + high | high) - low & high
        if nonzero.bit_count() + walls.bit_count() != slots:
            failures.append((walls, high ^ nonzero))
    return failures


def _least_failing_pairs(lattice, levels, prods, failures, pack):
    """Each failing pair (F, q) of the least failing rank, as the mask of
    F's walls with q's bit.  levels holds the vectors of ranks 0 .. t;
    prods and failures are those of _corank_two and _corank_one when t =
    kmax - 3, and None when the pivots of rank t + 1 came back short, so
    rank t fails.
    The failing ranks run from the least one up, so the ranks are read
    downward from the highest failing one until one passes.
    """
    width, cols, high, low = pack

    def pairs(masks):
        bad = set()
        for walls, zero in masks:
            if zero.bit_count() != walls.bit_count():
                while zero:
                    bit = zero & -zero
                    zero ^= bit
                    q = bit.bit_length() // width - 1
                    if not walls >> q & 1:
                        bad.add(walls | 1 << q)
        return bad

    def zero_masks(level, zss):
        for (_, walls, _, _), zs in zip(level, zss):
            zero = high
            for z in zs:
                zero &= _zero_slots(z, cols, high, low)
                if zero.bit_count() == walls.bit_count():
                    break
            yield walls, zero

    bad = set()  # when prods is None, the last rank of levels sets it
    if prods is not None:
        bad = pairs((walls, high & ~((p1 | high) - low)
                     & ~((p2 | high) - low))
                    for (_, walls, _, _), ((_, p1), (_, p2))
                    in zip(lattice[len(levels)], prods))
        if not bad:
            return pairs(failures)
    for level, zss in reversed(list(zip(lattice, levels))):
        lower = pairs(zero_masks(level, zss))
        if not lower:
            break
        bad = lower
    return bad


def _greedy_basis(m, subsets, imasks, walls):
    """Lex-first combinatorial basis of the walls in a position mask."""
    family, basis = (), []
    for q in range(walls.bit_length()):
        if walls >> q & 1:
            grown = _step(m, family, imasks[q])
            if grown is not family:
                family = grown
                basis.append(subsets[q])
    return tuple(basis)
