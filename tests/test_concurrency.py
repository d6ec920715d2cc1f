"""Tests for concurrency closure, orders, ranks, and the freeness check.

Golden values come from hand-checkable small cases.  The family engine is
cross-checked against the forcing-criterion fixpoint below, on every
collection of the small shapes and on seeded samples of the larger ones,
and the enumeration against the distinct fixpoint closures of every
subset of E where that is feasible.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import ceil, comb, gcd, prod, sqrt
from operator import mul

import pytest

from arrcensus import concurrency, exact_linalg, gallery
from arrcensus.charpoly import combinatorial_charpoly
from arrcensus.concurrency import (
    FreeVerdict,
    SubsetCollection,
    _collection,
    _corank_one,
    _corank_two,
    _lattice,
    _pivot_levels,
    _products,
    _rank,
    _step,
    _universe,
    base_collection,
    collection_from_dict,
    collection_to_dict,
    combinatorial_rank,
    concurrency_closure,
    concurrency_orders,
    enumerate_closed_collections,
    full_collection,
    is_closed,
    is_concurrency_free,
)
from arrcensus.discriminantal import build, quotient_rows
from arrcensus.errors import BadShape, BadSubsetSize, NotClosed, TooLarge
from arrcensus.exact_linalg import (_pack, _pivot, _slot_width, _units,
                                    _zero_slots, integer_primitive,
                                    nullspace_basis, rank)
from arrcensus.normal_system import (first_dependent_subset,
                                     random_normal_system, validate)

import oracles
from oracles import subset_rank, tuple_bfs_free

D1 = SubsetCollection(6, 2, [(1, 2, 6), (1, 3, 5), (2, 3, 4)])
D2 = SubsetCollection(6, 2, [(1, 2, 6), (1, 3, 5), (2, 3, 4), (4, 5, 6)])


def random_collection(rng, n, m, k):
    pool = list(combinations(range(1, n + 1), m + 1))
    return SubsetCollection(n, m, rng.sample(pool, min(k, len(pool))))


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


def fixpoint_closure(col):
    """The forcing criterion iterated to a fixpoint, on index bitmasks.

    A family {S_1..S_r} of members covering only m + r indices, while
    every sub-family J covers at least m + |J|, forces every (m+1)-subset
    of the covered set.  After the first round only spreads touching a
    newly added member are explored: the others were exhausted before.
    """
    n, m = col.n, col.m
    pool = list(combinations(range(1, n + 1), m + 1))
    imasks = [sum(1 << (i - 1) for i in s) for s in pool]
    members = {pool.index(s) for s in col.members}
    kmax = n - m
    dirty = None
    while len(members) < len(pool):
        mlist = [imasks[p] for p in sorted(members)]
        unions = set()
        for a in [None] if dirty is None else dirty:
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
        new = {p for p, im in enumerate(imasks) if p not in members
               and any(im & ~u == 0 for u in unions)}
        if not new:
            break
        members |= new
        dirty = [imasks[p] for p in new]
    return SubsetCollection(n, m, (pool[p] for p in members))


def every_collection(n, m):
    pool = list(combinations(range(1, n + 1), m + 1))
    for mask in range(1 << len(pool)):
        yield SubsetCollection(
            n, m, (s for p, s in enumerate(pool) if mask >> p & 1))


def all_closures_brute(n, m):
    """Distinct fixpoint closures of every nonempty subset of E
    (exponential)."""
    size = comb(n, m + 1)
    if size > 22:
        raise TooLarge("brute enumeration needs C(n, m+1) <= 22",
                       n=n, m=m, subsets=size, limit=22)
    seen = {fixpoint_closure(col) for col in every_collection(n, m) if col}
    return sorted(seen, key=lambda c: (len(c), c.sorted_members))


def test_three_altitude_feet_collection_is_closed():
    assert is_closed(D1)
    assert concurrency_closure(D1) == D1


def test_adding_fourth_triple_closes_to_everything():
    assert not is_closed(D2)
    assert concurrency_closure(D2) == full_collection(6, 2)


def test_closure_of_empty_is_empty():
    empty = SubsetCollection(6, 2, [])
    assert concurrency_closure(empty) == empty


def test_two_overlapping_triples_close_to_quadruple():
    col = SubsetCollection(4, 2, [(1, 2, 3), (1, 2, 4)])
    assert concurrency_closure(col) == full_collection(4, 2)


def test_orders_golden():
    assert concurrency_orders(D1) == [((1, 2, 6), 3), ((1, 3, 5), 3),
                                      ((2, 3, 4), 3)]
    assert concurrency_orders(full_collection(6, 2)) == [
        ((1, 2, 3, 4, 5, 6), 6)]
    single = SubsetCollection(5, 2, [(2, 4, 5)])
    assert concurrency_orders(single) == [((2, 4, 5), 3)]


def test_orders_requires_closed_input():
    with pytest.raises(NotClosed):
        concurrency_orders(D2)
    with pytest.raises(NotClosed):
        base_collection(D2)


def test_base_collection_golden():
    assert base_collection(full_collection(4, 2)) == SubsetCollection(
        4, 2, [(1, 2, 3), (1, 2, 4)])
    assert base_collection(D1) == D1
    single = SubsetCollection(5, 2, [(1, 3, 4)])
    assert base_collection(single) == single


def test_base_collection_generates_the_same_closure():
    rng = random.Random(91)
    for _ in range(40):
        col = concurrency_closure(random_collection(rng, 5, 2, 3))
        base = base_collection(col)
        assert concurrency_closure(base) == col
        assert len(base) == combinatorial_rank(col)


def test_combinatorial_rank_golden():
    assert combinatorial_rank(SubsetCollection(6, 2, [])) == 0
    assert combinatorial_rank(D2) == 4
    pair = SubsetCollection(5, 2, [(1, 2, 3), (1, 4, 5)])
    assert combinatorial_rank(pair) == 2


def test_closure_is_a_closure_operator():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.choice([4, 5, 6])
        m = 2 if n < 6 else rng.choice([2, 3])
        a = random_collection(rng, n, m, rng.randint(0, 4))
        extra = random_collection(rng, n, m, rng.randint(0, 3))
        b = SubsetCollection(n, m, set(a.members) | set(extra.members))
        ca, cb = concurrency_closure(a), concurrency_closure(b)
        assert a.members <= ca.members  # extensive
        assert ca.members <= cb.members  # monotone
        assert concurrency_closure(ca) == ca  # idempotent


def test_enumeration_matches_paper_small_cases():
    c32 = list(enumerate_closed_collections(3, 2))
    assert c32 == [full_collection(3, 2)]

    c42 = list(enumerate_closed_collections(4, 2))
    assert len(c42) == 5
    singles = [c for c in c42 if len(c) == 1]
    assert len(singles) == 4 and full_collection(4, 2) in c42


def test_enumeration_five_lines_family_structure():
    cols = list(enumerate_closed_collections(5, 2))
    assert len(cols) == 31
    by_size = {}
    for c in cols:
        by_size.setdefault(len(c), []).append(c)
    assert sorted(by_size) == [1, 2, 4, 10]
    assert len(by_size[1]) == 10
    # pairs: two triples sharing exactly one index, covering all 5
    assert len(by_size[2]) == 15
    for c in by_size[2]:
        s, t = c.sorted_members
        assert len(set(s) & set(t)) == 1
        assert set(s) | set(t) == set(range(1, 6))
    # quadruples: all four triples inside a 4-subset
    assert len(by_size[4]) == 5
    for c in by_size[4]:
        union = set().union(*c.members)
        assert len(union) == 4
        assert set(c.members) == set(combinations(sorted(union), 3))
    assert by_size[10] == [full_collection(5, 2)]


def test_enumeration_agrees_with_brute_closure_oracle():
    for n, m in [(4, 2), (5, 2), (4, 3)]:
        crawl = list(enumerate_closed_collections(n, m))
        brute = all_closures_brute(n, m)
        assert crawl == brute


def test_six_line_collections_sampled_against_crawl():
    crawl = set(enumerate_closed_collections(6, 2))
    assert len(crawl) == 322
    rng = random.Random(33)
    for _ in range(60):
        col = random_collection(rng, 6, 2, rng.randint(1, 6))
        assert concurrency_closure(col) in crawl


@pytest.mark.parametrize("n,m", [
    (n, m) for n in range(2, 11) for m in range(1, n)
    if comb(n, m + 1) <= 10])
def test_closure_matches_fixpoint_oracle_on_every_collection(n, m):
    for col in every_collection(n, m):
        assert concurrency_closure(col) == fixpoint_closure(col), col


@pytest.mark.parametrize("n,m", [(6, 2), (6, 3), (7, 3), (7, 4), (7, 2)])
def test_closure_matches_fixpoint_oracle_on_seeded_samples(n, m):
    rng = random.Random(n * 10 + m)
    for _ in range(100):
        col = random_collection(rng, n, m, rng.randint(1, 7))
        assert concurrency_closure(col) == fixpoint_closure(col), col


def test_closed_collection_counts_at_seven_lines():
    assert len(list(enumerate_closed_collections(7, 3))) == 2129
    assert len(list(enumerate_closed_collections(7, 2))) == 6049


def test_enumeration_with_m_close_to_n_is_immediate():
    # one (m+1)-subset in all, so one closed collection, found without
    # walking the 2^40 index masks
    assert list(enumerate_closed_collections(40, 39)) == \
        [full_collection(40, 39)]


def test_enumeration_too_large_guard():
    with pytest.raises(TooLarge):
        list(enumerate_closed_collections(10, 2))
    with pytest.raises(TooLarge):
        all_closures_brute(7, 2)


def test_every_entry_point_rejects_m_zero():
    col = SubsetCollection(12, 0, [(1,), (2,)])
    for call in (concurrency_closure, concurrency_orders, base_collection,
                 combinatorial_rank):
        with pytest.raises(BadShape):
            call(col)
    with pytest.raises(BadShape):
        list(enumerate_closed_collections(12, 0))
    with pytest.raises(BadShape):
        combinatorial_charpoly(12, 0)


@pytest.mark.parametrize("n,m", [(5, 7), (3, 3), (0, 2)])
def test_every_entry_point_rejects_n_at_most_m(n, m):
    # C(n, m+1) = 0 passes the universe guard; the shape is refused first
    for call in (lambda: concurrency_closure(SubsetCollection(n, m, [])),
                 lambda: list(enumerate_closed_collections(n, m)),
                 lambda: combinatorial_charpoly(n, m)):
        with pytest.raises(BadShape,
                           match="need more hyperplanes than dimensions"):
            call()


def test_minimal_generating_sets_have_equal_cardinality():
    # over every closed collection for n <= 5: all inclusion-minimal
    # generating subsets share one size, the combinatorial rank
    for n, m in [(4, 2), (5, 2)]:
        for col in enumerate_closed_collections(n, m):
            members = col.sorted_members
            target = col.members
            rank = combinatorial_rank(col)
            minimal_sizes = set()
            for k in range(1, len(members) + 1):
                for sub in combinations(members, k):
                    subcol = SubsetCollection(n, m, sub)
                    if concurrency_closure(subcol).members == target:
                        smaller = any(
                            concurrency_closure(SubsetCollection(
                                n, m, drop)).members == target
                            for drop in combinations(sub, k - 1))
                        if not smaller:
                            minimal_sizes.add(k)
            assert minimal_sizes == {rank}, (col, minimal_sizes, rank)


def test_independence_is_hereditary_small_cases():
    # dropping a member of a rank-|B| collection keeps rank = size;
    # is_concurrency_free relies on it: every wall set it certifies as
    # linearly independent is reached through independent subsets
    for n, m in [(4, 2), (5, 2), (4, 3)]:
        pool = list(combinations(range(1, n + 1), m + 1))
        for k in range(2, n - m + 1):
            for sub in combinations(pool, k):
                col = SubsetCollection(n, m, sub)
                if combinatorial_rank(col) != k:
                    continue
                for drop in combinations(sub, k - 1):
                    assert combinatorial_rank(
                        SubsetCollection(n, m, drop)) == k - 1


GALLERY_WITNESSES = {
    "six_lines_perpendicular_pairs": [(1, 2, 3), (1, 5, 6), (2, 4, 6),
                                      (3, 4, 5)],
    "six_lines_mixed_slopes": [(1, 2, 3), (1, 5, 6), (2, 4, 6), (3, 4, 5)],
    "six_lines_distinct_slopes": [(1, 2, 3), (1, 4, 5), (2, 4, 6),
                                  (3, 5, 6)],
    "six_planes_chain": [(1, 2, 3, 4), (1, 2, 5, 6), (3, 4, 5, 6)],
    "six_planes_curve": [(1, 2, 3, 4), (1, 2, 5, 6), (3, 4, 5, 6)],
}
FREE_GALLERY = ("three_lines", "four_lines", "five_lines", "six_lines_free",
                "six_planes_free")


def test_freeness_verdicts_for_gallery_systems():
    for name, witness in GALLERY_WITNESSES.items():
        ns = getattr(gallery, name)()
        v = is_concurrency_free(ns)
        assert not v.free
        assert v.witness == SubsetCollection(ns.n, ns.m, witness), name
    for name in FREE_GALLERY:
        assert is_concurrency_free(getattr(gallery, name)()).free, name


def test_witness_is_a_certificate_of_non_freeness():
    # witness B: |B| concurrency conditions are combinatorially
    # independent yet their normals are linearly dependent
    for ns in [gallery.six_lines_perpendicular_pairs(),
               gallery.six_lines_mixed_slopes(),
               gallery.six_lines_distinct_slopes(),
               gallery.six_planes_chain(),
               gallery.six_planes_curve()]:
        v = is_concurrency_free(ns)
        assert not v.free
        B = v.witness
        assert combinatorial_rank(B) == len(B)
        da = build(ns)
        assert subset_rank(da, B.sorted_members) < len(B)


def test_small_planar_systems_always_free():
    for seed in range(20):
        for n in (4, 5):
            ns = random_normal_system(n, 2, seed=seed, bound=9)
            assert is_concurrency_free(ns).free


def test_six_line_degeneracy_appears_at_small_bounds():
    # random (6,2) draws are usually free, but degeneracy exists in the
    # wild at tight entry bounds; both verdicts frozen as regressions
    for seed in range(10):
        ns = random_normal_system(6, 2, seed=seed, bound=50)
        assert is_concurrency_free(ns).free
    v = is_concurrency_free(random_normal_system(6, 2, seed=94, bound=9))
    assert not v.free
    assert v.witness == SubsetCollection(
        6, 2, [(1, 2, 3), (1, 5, 6), (2, 4, 6), (3, 4, 5)])


def rank_bfs_oracle(ns):
    """The freeness search with one exact rank of the stacked normals per
    node, written on the public closure API; (free, witness)."""
    n, m = ns.n, ns.m
    da = build(ns)
    pool = list(combinations(range(1, n + 1), m + 1))
    level = [(s,) for s in pool]
    for k in range(1, n - m + 1):
        bad = [t for t in level if subset_rank(da, t) < k]
        if bad:
            return False, SubsetCollection(n, m, min(bad))
        nxt = []
        for t in level:
            closed = concurrency_closure(SubsetCollection(n, m, t))
            for s in pool[pool.index(t[-1]) + 1:]:
                if s not in closed and combinatorial_rank(
                        SubsetCollection(n, m, t + (s,))) == k + 1:
                    nxt.append(t + (s,))
        level = nxt
    return True, None


@pytest.mark.parametrize("n,m", [(5, 2), (6, 2), (6, 3), (7, 4), (6, 4),
                                 (7, 5)])
def test_freeness_matches_rank_oracle_on_seeded_systems(n, m):
    non_free = 0
    for bound, seeds in ((2, 4), (3, 2), (9, 2)):
        for seed in range(seeds):
            ns = random_normal_system(n, m, seed=seed, bound=bound)
            v = is_concurrency_free(ns)
            assert (v.free, v.witness) == rank_bfs_oracle(ns), (bound, seed)
            non_free += not v.free
    # with m = n - 2 two distinct walls have distinct supports, so their
    # normals are never parallel and every system is free
    if (n, m) not in ((5, 2), (6, 4), (7, 5)):
        assert non_free  # bound 2 gives non-free verdicts to compare


BFS_SHAPES = [(5, 2), (6, 2), (6, 3), (7, 4), (6, 4), (7, 5), (8, 5)]


def test_freeness_matches_tuple_bfs_oracle():
    # the closed-family crawl against the search over independent tuples
    # of walls: gallery systems, seeded shapes at five bounds (the large
    # ones make wide slots in the packed rows), and seeded (7,2) and
    # (7,3) systems whose witnesses are smaller than n - m
    systems = [getattr(gallery, name)()
               for name in FREE_GALLERY + tuple(GALLERY_WITNESSES)]
    for n, m in BFS_SHAPES:
        systems += [random_normal_system(n, m, seed=seed, bound=bound)
                    for bound in (2, 3, 9, 1000, 10**6) for seed in range(2)]
    systems += [random_normal_system(7, 2, seed=seed, bound=3)
                for seed in range(2)]
    systems += [random_normal_system(7, 3, seed=seed, bound=2)
                for seed in (2, 3)]
    small = 0
    for ns in systems:
        v = is_concurrency_free(ns)
        assert (v.free, v.witness) == tuple_bfs_free(ns), ns
        small += not v.free and len(v.witness) < ns.n - ns.m
    assert small >= 4


def crawl_vectors(monkeypatch):
    """Patch _pivot to record every annihilator vector it reads or makes;
    returns the list it fills."""
    seen = []
    pivot = concurrency._pivot

    def recording(zs, r):
        out = pivot(zs, r)
        seen.extend(zs + out)
        return out

    monkeypatch.setattr(concurrency, "_pivot", recording)
    return seen


def assert_slots_hold_every_dot(seen, ns):
    # every dot of a crawl vector with a wall fits its slot with room to
    # spare, the bound that keeps one slot from carrying into the next
    seen.clear()
    is_concurrency_free(ns)
    rows = quotient_rows(build(ns))
    kmax = ns.n - ns.m
    units = [tuple(int(i == j) for i in range(kmax)) for j in range(kmax)]
    vectors = set(seen + units)
    # the bound rests on each vector being primitive
    assert all(gcd(*z) == 1 for z in vectors), ns
    top = max(abs(sum(map(mul, z, r))) for z in vectors for r in rows)
    assert top < 1 << _slot_width(rows) - 2, ns


def test_slot_width_is_the_least_that_holds_the_norm_product():
    # W - 2 is the bit length of the product of the k largest row norms,
    # each rounded up, for rows of length k
    rng = random.Random(3)
    assert _slot_width([(1, 1), (1, 0)]) == 4  # 2 * 1 < 2^2
    assert _slot_width([(3, 4), (0, 5), (1, 0)]) == 7  # 5 * 5 < 2^5
    for _ in range(200):
        k = rng.randint(1, 5)
        rows = [tuple(rng.randint(-30, 30) for _ in range(k))
                for _ in range(rng.randint(k, 12))]
        rows = [r for r in rows if any(r)]  # quotient rows are nonzero
        norms = sorted((ceil(sqrt(sum(x * x for x in r))) for r in rows),
                       reverse=True)
        top = prod(norms[:k])
        width = _slot_width(rows)
        assert 1 << width - 3 <= top < 1 << width - 2, rows
        for j in range(1, k + 1):  # the j largest norms alone
            width = _slot_width(rows, j)
            assert 1 << width - 3 <= prod(norms[:j]) < 1 << width - 2, rows


@pytest.mark.parametrize("n,m", BFS_SHAPES + [(7, 2), (7, 3)])
def test_packed_slots_hold_every_dot(monkeypatch, n, m):
    seen = crawl_vectors(monkeypatch)
    for bound in (2, 9, 1000, 10**6):
        assert_slots_hold_every_dot(
            seen, random_normal_system(n, m, seed=1, bound=bound))


def test_packed_slots_hold_every_dot_on_rational_systems(monkeypatch):
    seen = crawl_vectors(monkeypatch)
    for n, m in [(5, 2), (6, 2), (6, 3), (7, 4)]:
        for ns in ([rational_draw(n, m, seed, num)
                    for num, seeds in ((2, 2), (9, 1))
                    for seed in range(seeds)]
                   + [scaled_draw(n, m, seed, 2) for seed in range(4)]):
            assert_slots_hold_every_dot(seen, ns)


class CountedProduct(int):
    """A packed product that counts the multiplications it enters, under
    the key of its kind."""

    tally = None
    key = None

    def __rmul__(self, other):
        self.tally[self.key] += 1
        return int(self) * other


class ParentProduct(CountedProduct):
    key = "corank_two_muls"  # a product of a corank-3 vector


class CorankTwoProduct(CountedProduct):
    key = "corank_one_muls"  # a product _corank_two makes


def count_crawl_work(monkeypatch, ns):
    """Run is_concurrency_free on ns with its packed-kernel work counted:
    pivots, the scalar dots they take, products of corank-3 vectors, the
    multiplications of those products in the corank-2 combinations and
    of the corank-2 products in the corank-1 ones, _zero_slots calls and
    every mul outside the pivots; returns (verdict, counts)."""
    counts = dict.fromkeys(["pivots", "pivot_dots", "products",
                            "corank_two_muls", "corank_one_muls",
                            "zero_slots", "muls"], 0)
    CountedProduct.tally = counts
    pivot, products = concurrency._pivot, concurrency._products
    corank_two, zero_slots = concurrency._corank_two, concurrency._zero_slots

    def counting_pivot(zs, r):
        counts["pivots"] += 1
        counts["pivot_dots"] += len(zs) * len(r)
        return pivot(zs, r)

    def counting_products(zs, pack):
        counts["products"] += len(zs)
        return [ParentProduct(p) for p in products(zs, pack)]

    def counting_corank_two(*args):
        out = corank_two(*args)
        return out and [[(CorankTwoProduct(v), p) for v, p in pair]
                        for pair in out]

    def counting_zero_slots(*args):
        counts["zero_slots"] += 1
        return zero_slots(*args)

    def counting_mul(a, b):
        counts["muls"] += 1
        return a * b

    monkeypatch.setattr(concurrency, "_pivot", counting_pivot)
    monkeypatch.setattr(concurrency, "_products", counting_products)
    monkeypatch.setattr(concurrency, "_corank_two", counting_corank_two)
    monkeypatch.setattr(concurrency, "_zero_slots", counting_zero_slots)
    # _pivot's dots are in exact_linalg; concurrency itself takes none
    monkeypatch.setattr(exact_linalg, "mul", counting_mul)
    monkeypatch.setattr(concurrency, "mul", counting_mul, raising=False)
    return is_concurrency_free(ns), counts


def test_packed_crawl_work_counts(monkeypatch):
    # six_lines_free is free: one pivot per family of rank 1 .. kmax - 3,
    # three packed products per family of corank 3, one combination (two
    # multiplications of its products) per vector of corank 2 and per
    # family of corank 1, no zero-slot mask of a single vector and no
    # scalar dot outside the pivots
    verdict, counts = count_crawl_work(monkeypatch, gallery.six_lines_free())
    assert verdict.free
    lattice = _lattice(6, 2)
    assert counts["pivots"] == 20 == sum(map(len, lattice[1:-3]))
    assert counts["products"] == 60 == 3 * len(lattice[1])
    assert counts["corank_two_muls"] == 2 * 230 == 2 * 2 * len(lattice[2])
    assert counts["corank_one_muls"] == 2 * 186 == 2 * len(lattice[3])
    assert counts["zero_slots"] == 0
    assert counts["muls"] == counts["pivot_dots"] > 0


@pytest.mark.parametrize("name", sorted(GALLERY_WITNESSES))
def test_non_free_verdicts_pivot_no_rank_twice(monkeypatch, name):
    # the witness search reads what the corank-1 pass made: the pass's
    # pivots, of ranks 1 .. kmax - 3, and products and nothing more,
    # fewer pivots than a crawl that pivots every rank up to the least
    # failing one
    ns = getattr(gallery, name)()
    verdict, counts = count_crawl_work(monkeypatch, ns)
    assert not verdict.free
    lattice = _lattice(ns.n, ns.m)
    least = len(verdict.witness) - 1
    assert counts["pivots"] == sum(map(len, lattice[1:-3])) \
        < sum(map(len, lattice[1:least + 1]))
    assert counts["products"] == 3 * len(lattice[-4])
    assert counts["corank_two_muls"] == 2 * 2 * len(lattice[-3])


def packed_width(rows):
    """The slot width is_concurrency_free packs rows at, n - m >= 3."""
    return 4 * _slot_width(rows, len(rows[0]) - 2) - 4


def corank_two_products(rows, lattice):
    """The vectors of ranks 0 .. kmax - 3, the corank-2 products (None
    after a short pivot) and the pack of is_concurrency_free, run by
    itself on the quotient rows of a system with kmax = n - m >= 3."""
    kmax = len(rows[0])
    pack = _pack(rows, packed_width(rows))
    levels = _pivot_levels(rows, lattice, kmax)
    prods = None
    if len(levels) == kmax - 2:
        prods = _corank_two(lattice[kmax - 2], levels[-1], pack)
    return levels, prods, pack


def corank_two_vectors(rows, lattice, levels):
    """The two vectors behind the products _corank_two gives each family
    of corank 2, made from the vectors z_j of its parent: for the first
    d_p = z_p . r_q that is not zero, d_p z_j - d_j z_p for each other j;
    None where every d_j is zero."""
    kmax = len(rows[0])
    out = []
    for _, _, parent, q in lattice[kmax - 2]:
        zs = levels[kmax - 3][parent]
        ds = [sum(map(mul, z, rows[q])) for z in zs]
        p = next((j for j, d in enumerate(ds) if d), None)
        if p is None:
            out.append(None)
            continue
        vs = []
        for j, (z, d) in enumerate(zip(zs, ds)):
            if j != p:
                vs.append(tuple(ds[p] * x - d * y for x, y in zip(z, zs[p])))
        out.append(vs)
    return out


def corank_one_failures(ns):
    """The corank-1 pass of is_concurrency_free run by itself on ns: its
    (walls, zero mask) failures and the slot width.  No pivot below
    corank 1 comes back short on the systems it is run on.  With n - m =
    2, where the verdict is free with no pass, the pass is run on the
    products of the root's unit vectors, at the usual width: each slot
    of d2 P1 - d1 P2 is then a 2-minor of the rows."""
    kmax = ns.n - ns.m
    if kmax == 2:
        rows = quotient_rows(build(ns))
        pack = _pack(rows)
        high = pack[2]
        prods = [[(v, v + high) for v in _products(_units(2), pack)]]
    else:
        _, prods, pack = corank_two_products(quotient_rows(build(ns)),
                                             _lattice(ns.n, ns.m))
        assert prods is not None, ns
    return _corank_one(_lattice(ns.n, ns.m)[kmax - 1], prods, pack), pack[0]


def exact_corank_one_failures(ns, width):
    """The corank-1 families whose walls hold fewer than every wall in
    their span, from one exact nullspace per family, with the mask of the
    walls orthogonal to it at the given slot width."""
    rows = quotient_rows(build(ns))
    failures = []
    for _, walls, _, _ in _lattice(ns.n, ns.m)[ns.n - ns.m - 1]:
        normals = [list(map(int, integer_primitive(z))) for z in
                   nullspace_basis([r for q, r in enumerate(rows)
                                    if walls >> q & 1])]
        span = [q for q, r in enumerate(rows)
                if all(sum(map(mul, z, r)) == 0 for z in normals)]
        if len(span) != walls.bit_count():
            failures.append((walls, sum(1 << width * q + width - 1
                                        for q in span)))
    return failures


def freeness_sweep():
    """The systems of the seeded, rational and gallery sweeps above, with
    the seeded (7,2) and (7,3) ones whose witnesses are smaller than
    n - m."""
    systems = [getattr(gallery, name)() for name in GALLERY_WITNESSES]
    for n, m in [(5, 2), (6, 2), (6, 3), (7, 4), (6, 4), (7, 5)]:
        # bound 1 gives no valid system with m = 2
        for bound in (2, 3) if m == 2 else (1, 2, 3):
            systems += [random_normal_system(n, m, seed=seed, bound=bound)
                        for seed in range(4)]
    for n, m in [(5, 2), (6, 2), (6, 3), (7, 4)]:
        systems += [rational_draw(n, m, seed, num)
                    for num, seeds in ((2, 2), (9, 1))
                    for seed in range(seeds)]
        systems += [scaled_draw(n, m, seed, 2) for seed in range(4)]
    systems += [random_normal_system(7, 2, seed=seed, bound=3)
                for seed in range(2)]
    systems += [random_normal_system(7, 3, seed=seed, bound=2)
                for seed in (2, 3)]
    return systems


def test_corank_one_pass_fails_on_every_non_free_system():
    # the converse of the free verdict, on the pass alone: it fails some
    # family of each non-free system of the sweeps and none of a free
    # one, and it fails exactly the families whose walls miss a wall of
    # their span, with that span's mask
    non_free = 0
    for ns in freeness_sweep():
        free, _ = tuple_bfs_free(ns)
        failures, width = corank_one_failures(ns)
        if free:
            assert failures == [], ns
        else:
            assert failures == exact_corank_one_failures(ns, width) != [], ns
            non_free += 1
    assert non_free >= 30


def test_corank_two_products_match_pivot():
    # each family of corank 2 gets the products of its two vectors from
    # its parent's three products, with no vector made: every slot holds
    # the exact value d_p (z_j . r) - d_j (z_p . r), the offset form adds
    # 2^(W' - 1) to each slot, and each product has the zero mask of the
    # matching vector of _pivot.  No system the universe guard admits
    # has a short pivot there
    systems = freeness_sweep() + [
        random_normal_system(n, m, seed=1, bound=10**6)
        for n, m in BFS_SHAPES + [(7, 3)]]
    for ns in systems:
        kmax = ns.n - ns.m
        if kmax <= 2:
            continue
        rows = quotient_rows(build(ns))
        lattice = _lattice(ns.n, ns.m)
        levels, prods, (width, cols, high, low) = corank_two_products(
            rows, lattice)
        assert len(levels) == kmax - 2, ns
        vss = corank_two_vectors(rows, lattice, levels)
        assert prods is not None and None not in vss, ns
        half, mask = high >> width * (len(rows) - 1), (1 << width) - 1
        for (_, _, parent, q), vs, pair in zip(lattice[kmax - 2], vss,
                                                prods):
            zs = _pivot(levels[-1][parent], rows[q])
            assert len(pair) == len(zs) == 2, ns
            for v, (packed, offset), z in zip(vs, pair, zs):
                assert offset - packed == high
                assert [(offset >> width * i & mask) - half
                        for i in range(len(rows))] \
                    == [sum(map(mul, v, r)) for r in rows], ns
                assert high & ~((offset | high) - low) \
                    == _zero_slots(z, cols, high, low), ns


def test_two_coordinate_systems_are_free_with_no_pass(monkeypatch):
    # with n - m <= 2 the walls are single (m+1)-sets of distinct
    # supports, so no two are parallel: the verdict is free before the
    # walls are built, and the search over independent tuples agrees
    systems = [random_normal_system(n, m, seed=seed, bound=bound)
               for n, m in [(4, 2), (5, 3), (6, 4), (7, 5), (8, 6), (5, 4)]
               for bound in (1, 2, 3, 9) for seed in range(3)]
    for ns in systems:
        assert tuple_bfs_free(ns) == (True, None), ns

    def no_build(ns):
        raise AssertionError("walls built for n - m <= 2")

    monkeypatch.setattr(concurrency, "build", no_build)
    for ns in systems:
        assert is_concurrency_free(ns).free


def test_witness_search_on_rows_of_lower_rank(monkeypatch):
    # no system the universe guard admits has a short pivot below corank
    # 1 or a failing rank below kmax - 2, so here the quotient rows are
    # mapped through an integer matrix of rank r < kmax.  The linear rank
    # of a set of walls can only drop, so r_g <= r_c still holds, and a
    # rank no higher than r fails.  The cases take every way to the
    # search: a _pivot that comes back short, a packed pivot of corank 2
    # that does, and a corank-1 pass that fails with rank kmax - 2
    # failing too.  Verdict and witness match the search over
    # independent tuples on the same rows
    rng = random.Random(5)
    cases = [(gallery.six_lines_free(), r) for r in (1, 2, 3)]
    cases += [(random_normal_system(7, 2, seed=1, bound=9), r)
              for r in (2, 3)]
    cases += [(random_normal_system(7, 4, seed=1, bound=9), 1)]
    short = packed = low = 0
    for ns, r in cases:
        kmax = ns.n - ns.m
        a = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(kmax)]
        b = [[rng.randint(-3, 3) for _ in range(kmax)] for _ in range(r)]
        mat = [[sum(map(mul, row, col)) for col in zip(*b)]
               for row in a]  # kmax x kmax, rank at most r

        def lowered(da, mat=mat):
            rows = [tuple(sum(map(mul, row, col)) for col in zip(*mat))
                    for row in quotient_rows(da)]
            assert all(map(any, rows))  # the slot width needs them
            return rows

        monkeypatch.setattr(concurrency, "quotient_rows", lowered)
        monkeypatch.setattr(oracles, "quotient_rows", lowered)
        rows = lowered(build(ns))
        assert rank(rows) == r, (ns, r)
        levels, prods, _ = corank_two_products(rows, _lattice(ns.n, ns.m))
        v = is_concurrency_free(ns)
        assert (v.free, v.witness) == tuple_bfs_free(ns), (ns, r)
        assert len(v.witness) <= r + 1
        short += len(levels) < kmax - 2
        packed += len(levels) == kmax - 2 and prods is None
        low += prods is not None and len(v.witness) < kmax
    assert short >= 2 and packed >= 2 and low >= 2


def combinations_fit_wide_slots(monkeypatch, ns):
    # the rows are packed once, at W' = 4W - 4 bits a slot for W the
    # slot width of the kmax - 2 largest row norms, and not at all when
    # kmax <= 2.  Every dot of a corank-3 vector is below 2^(W - 2),
    # every exact corank-2 value d_p (z_j . r) - d_j (z_p . r), computed
    # here from the pivoted vectors themselves, below 2^(2W - 3), and
    # every corank-1 value d2 (v1 . r) - d1 (v2 . r) of those vectors
    # below 2^(4W - 5) = 2^(W' - 1), so the slots hold them
    widths = []
    pack = concurrency._pack

    def recording(rows, width=None):
        widths.append(width)
        return pack(rows, width)

    monkeypatch.setattr(concurrency, "_pack", recording)
    is_concurrency_free(ns)
    kmax = ns.n - ns.m
    if kmax <= 2:
        assert widths == [], ns
        return
    rows = quotient_rows(build(ns))
    w = _slot_width(rows, kmax - 2)
    (wide,) = widths
    assert wide == packed_width(rows) == 4 * w - 4
    lattice = _lattice(ns.n, ns.m)
    levels = _pivot_levels(rows, lattice, kmax)
    assert len(levels) == kmax - 2
    three = max(abs(sum(map(mul, z, r))) for zs in levels[-1] for z in zs
                for r in rows)
    vss = corank_two_vectors(rows, lattice, levels)
    assert None not in vss
    two = max(abs(sum(map(mul, v, r))) for vs in vss for v in vs
              for r in rows)
    one = 0
    for _, _, parent, q in lattice[kmax - 1]:
        v1, v2 = vss[parent]
        d1, d2 = (sum(map(mul, v, rows[q])) for v in (v1, v2))
        one = max(one, max(abs(d2 * sum(map(mul, v1, r))
                               - d1 * sum(map(mul, v2, r))) for r in rows))
    assert three < 1 << w - 2, ns
    assert two < 1 << 2 * w - 3, ns
    assert one < 1 << 4 * w - 5 == 1 << wide - 1, ns


@pytest.mark.parametrize("n,m", BFS_SHAPES)
def test_corank_one_combinations_fit_wide_slots(monkeypatch, n, m):
    for bound in (2, 9, 1000, 10**6):
        combinations_fit_wide_slots(
            monkeypatch, random_normal_system(n, m, seed=1, bound=bound))


def test_corank_one_combinations_fit_wide_slots_on_rational_systems(
        monkeypatch):
    for n, m in [(5, 2), (6, 2), (6, 3), (7, 4)]:
        for ns in ([rational_draw(n, m, seed, num)
                    for num, seeds in ((2, 2), (9, 1))
                    for seed in range(seeds)]
                   + [scaled_draw(n, m, seed, 2) for seed in range(4)]):
            combinations_fit_wide_slots(monkeypatch, ns)


LATTICE_COUNTS = {(6, 2): [20, 115, 186], (7, 3): [35, 406, 1687],
                  (7, 2): [35, 420, 2051, 3542]}


def test_lattice_counts_by_rank():
    for (n, m), counts in LATTICE_COUNTS.items():
        lattice = _lattice(n, m)
        assert len(lattice) == n - m + 1
        assert [len(level) for level in lattice] == [1] + counts + [1]


def test_lattice_matches_a_step_crawl():
    # every family reached from the empty one by closure steps, rank by
    # rank, is in the table at its rank, and nothing else is
    for n, m in [(5, 2), (6, 2), (6, 3)]:
        _, imasks = _universe(n, m)
        lattice = _lattice(n, m)
        level = {()}
        for k, entries in enumerate(lattice):
            assert {e[0] for e in entries} == level, (n, m, k)
            level = {_step(m, f, t) for f in level for t in imasks} - level


def test_lattice_parents_close_to_their_entries():
    for n, m in [(5, 2), (6, 2), (6, 3), (7, 3), (7, 4)]:
        subsets, imasks = _universe(n, m)
        lattice = _lattice(n, m)
        assert lattice[0] == (((), 0, None, None),)
        for k in range(1, len(lattice)):
            for family, walls, parent, q in lattice[k]:
                assert _rank(m, family) == k
                base = lattice[k - 1][parent][0]
                assert _step(m, base, imasks[q]) == family
                inside = _collection(n, m, family).members
                assert walls == sum(1 << p for p, s in enumerate(subsets)
                                    if s in inside)


def rational_draw(n, m, seed, num):
    # entries p/q with |p| <= num and q up to 4
    rng = random.Random(seed)
    while True:
        rows = [[Fraction(rng.randint(-num, num), rng.randint(1, 4))
                 for _ in range(m)] for _ in range(n)]
        if first_dependent_subset(rows, m) is None:
            return validate(rows, m)


def scaled_draw(n, m, seed, bound):
    # a seeded integer system with each row divided by its own q up to 4;
    # small bounds keep the concurrencies that make verdicts non-free
    rng = random.Random(seed)
    ns = random_normal_system(n, m, seed=seed, bound=bound)
    qs = [rng.randint(1, 4) for _ in ns.rows]
    return validate([[a / q for a in row] for row, q in zip(ns.rows, qs)], m)


@pytest.mark.parametrize("n,m", [(5, 2), (6, 2), (6, 3), (7, 4)])
def test_freeness_matches_rank_oracle_on_rational_systems(n, m):
    non_free = 0
    draws = ([rational_draw(n, m, seed, num)
              for num, seeds in ((2, 2), (9, 1)) for seed in range(seeds)]
             + [scaled_draw(n, m, seed, 2) for seed in range(4)])
    for i, ns in enumerate(draws):
        assert any(a.denominator > 1 for row in ns.rows for a in row)
        v = is_concurrency_free(ns)
        assert (v.free, v.witness) == rank_bfs_oracle(ns), i
        non_free += not v.free
    if (n, m) != (5, 2):
        assert non_free


def test_truncated_normals_keep_their_ranks():
    # the freeness search keeps the first n - m entries of each normal;
    # no subset of the normals loses rank by it
    rng = random.Random(7)
    systems = [getattr(gallery, name)()
               for name in FREE_GALLERY + tuple(GALLERY_WITNESSES)]
    systems += [rational_draw(n, m, seed, 9)
                for seed, (n, m) in enumerate([(5, 2), (6, 2), (6, 3),
                                               (7, 3), (7, 4), (6, 4)])]
    for ns in systems:
        normals = build(ns).normals
        cut = ns.n - ns.m
        for _ in range(40):
            sub = rng.sample(normals, rng.randint(1, min(len(normals),
                                                         cut + 1)))
            assert rank([r[:cut] for r in sub]) == rank(sub), ns


def test_free_verdict_repr_and_bool():
    assert bool(FreeVerdict(True))
    assert not bool(FreeVerdict(False, D1))
    assert "witness" in repr(FreeVerdict(False, D1))


def test_closure_one_pass_observation():
    col = concurrency_closure(D2)
    assert concurrency_closure(col) == col


def test_collection_validation_and_json():
    with pytest.raises(BadSubsetSize):
        SubsetCollection(5, 2, [(1, 2)])
    with pytest.raises(BadSubsetSize):
        SubsetCollection(5, 2, [(1, 2, 7)])
    with pytest.raises(BadSubsetSize):
        SubsetCollection(5, 2, [(1, 2, 2)])
    d = collection_to_dict(D1)
    assert d == {"n": 6, "m": 2,
                 "members": [[1, 2, 6], [1, 3, 5], [2, 3, 4]]}
    assert collection_from_dict(d) == D1


def test_members_deduplicated_and_order_free():
    a = SubsetCollection(5, 2, [(3, 2, 1), (1, 2, 3), (2, 4, 5)])
    b = SubsetCollection(5, 2, [(1, 2, 3), (2, 4, 5)])
    assert a == b and len(a) == 2
