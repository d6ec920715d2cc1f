"""Affine readings of generic arrangements: vertex orders and genericity
against their Fraction and discriminantal oracles, the trivial
isomorphism oracle, region censuses against the regions enumerated
around every vertex, the closed formulas and the LP cell walk, triangle
signatures, special points, and wall-crossing
swaps.  The sign engine (regions, censuses, triangles, isomorphism and
genericity read off the sign vector of b) is checked against the vertex
table it replaced.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from types import SimpleNamespace

import pytest

from arrcensus import affine_geometry, chambers, exact_linalg, gallery
from arrcensus.affine_geometry import (are_isomorphic_trivial,
                                       genericity_witness, region_census,
                                       simplex_signature, special_point,
                                       swap_check, vertex_orders)
from arrcensus.chambers import (ChamberCatalog, Classified, OnWall,
                                _wall_is_facet, adjacency, antipodal_classes,
                                classify_b, enumerate_chambers, shared_wall)
from arrcensus.discriminantal import build, quotient_rows
from arrcensus.errors import (ArrangementError, NotAdjacent, NotGeneric,
                              NotInCatalog, UnsupportedDimension, WrongShape)
from arrcensus.normal_system import (Arrangement, arrangement_from_b,
                                     random_normal_system, validate)

import oracles
from golden_data import FIVE_LINE_CLASS_SIGNATURES
from oracles import (MAX_REGIONS, _regions, _unbounded, census_by_regions,
                     census_by_vertex_table, genericity_witness_da,
                     iso_by_vertex_orders, regions_by_vertex_table,
                     regions_lp, sides_by_wall_lookup,
                     signature_by_vertex_table, triangles_lp,
                     unbounded_by_directions, vertex_orders_fraction,
                     vertex_table)

GALLERY = ["three_lines", "four_lines", "five_lines",
           "six_lines_perpendicular_pairs", "six_lines_mixed_slopes",
           "six_lines_distinct_slopes", "six_lines_free",
           "six_planes_chain", "six_planes_curve", "six_planes_free"]


@lru_cache(maxsize=None)
def catalog(name):
    return enumerate_chambers(build(getattr(gallery, name)()))


@lru_cache(maxsize=None)
def class_reps(name):
    ns = getattr(gallery, name)()
    return ns, [plus for plus, _ in antipodal_classes(catalog(name))]


def expected_census(n, m):
    total = sum(comb(n, i) for i in range(m + 1))
    bounded = comb(n - 1, m)
    return {"total": total, "bounded": bounded,
            "unbounded": total - bounded}


def test_vertex_orders_structure():
    ns, reps = class_reps("four_lines")
    arr = Arrangement(ns, reps[0].witness)
    table = vertex_orders(arr)
    assert sorted(table) == [(1,), (2,), (3,), (4,)]
    for (i,), line in table.items():
        assert len(line.order) == 3  # n - (m-1) vertices per line
        assert all(i in v and len(v) == 2 for v in line.order)
        assert list(line.params) == sorted(line.params)
        assert len(set(line.params)) == 3
        lead = next(x for x in line.direction if x != 0)
        assert lead > 0 and all(x.denominator == 1 for x in line.direction)


def test_vertex_orders_translation_invariance():
    ns, reps = class_reps("four_lines")
    arr = Arrangement(ns, reps[1].witness)
    shift = (Fraction(3), Fraction(-7, 2))
    moved = Arrangement(ns, [bi + sum(a * v for a, v in zip(row, shift))
                             for row, bi in zip(ns.rows, arr.b)])
    t1 = vertex_orders(arr)
    t2 = vertex_orders(moved)
    for A in t1:
        assert t1[A].order == t2[A].order


def test_not_generic_rejected():
    ns = gallery.four_lines()
    with pytest.raises(NotGeneric) as exc:
        vertex_orders(Arrangement(ns, (0, 0, 0, 0)))
    assert exc.value.payload["subset"] == [1, 2, 3]
    assert genericity_witness(Arrangement(ns, (0, 0, 0, 0))) == (1, 2, 3)


def test_iso_oracle_reflexive_and_antipodal():
    ns, reps = class_reps("four_lines")
    for c in reps:
        arr = Arrangement(ns, c.witness)
        neg = Arrangement(ns, tuple(-x for x in c.witness))
        assert are_isomorphic_trivial(arr, arr)
        assert are_isomorphic_trivial(arr, neg)


def test_iso_oracle_separates_classes():
    ns, reps = class_reps("four_lines")
    for a in reps:
        for b in reps:
            iso = are_isomorphic_trivial(Arrangement(ns, a.witness),
                                         Arrangement(ns, b.witness))
            assert iso == (a.class_id == b.class_id)


def test_iso_oracle_is_equivalence_on_full_catalog():
    ns = gallery.four_lines()
    cat = catalog("four_lines")
    arrs = [Arrangement(ns, c.witness) for c in cat]
    rel = [[are_isomorphic_trivial(a, b) for b in arrs] for a in arrs]
    k = len(arrs)
    for i in range(k):
        assert rel[i][i]
        for j in range(k):
            assert rel[i][j] == rel[j][i]
            for l in range(k):
                if rel[i][j] and rel[j][l]:
                    assert rel[i][l]


@pytest.mark.parametrize("name,count", [("four_lines", 64),
                                        ("five_lines", 3844)])
def test_iso_equals_vertex_order_oracle_on_every_catalog_pair(monkeypatch,
                                                              name, count):
    # s(b1) = +-s(b2) against the line-by-line comparison of the vertex
    # orders, on every ordered pair of chambers; the oracle's orders are
    # memoised per witness
    orders = {}

    def memo(arr, compute=oracles.orders_by_vertex_table):
        if arr.b not in orders:
            orders[arr.b] = compute(arr)
        return orders[arr.b]

    monkeypatch.setattr(oracles, "orders_by_vertex_table", memo)
    ns = getattr(gallery, name)()
    arrs = [Arrangement(ns, c.witness) for c in catalog(name)]
    verdicts = [are_isomorphic_trivial(a1, a2) for a1 in arrs for a2 in arrs]
    assert verdicts == [iso_by_vertex_orders(a1, a2)
                        for a1 in arrs for a2 in arrs]
    assert len(verdicts) == count and len(set(verdicts)) == 2


def test_iso_oracle_shape_mismatch():
    ns4, reps4 = class_reps("four_lines")
    ns5, reps5 = class_reps("five_lines")
    with pytest.raises(WrongShape):
        are_isomorphic_trivial(Arrangement(ns4, reps4[0].witness),
                               Arrangement(ns5, reps5[0].witness))


def test_census_matches_formulas():
    for name in ["three_lines", "four_lines", "five_lines",
                 "six_lines_free", "six_planes_free"]:
        ns, reps = class_reps(name)
        got = region_census(Arrangement(ns, reps[0].witness))
        assert got == expected_census(ns.n, ns.m), name


def test_census_golden_values():
    ns, reps = class_reps("four_lines")
    assert region_census(Arrangement(ns, reps[0].witness)) == {
        "total": 11, "bounded": 3, "unbounded": 8}
    ns5, reps5 = class_reps("five_lines")
    assert region_census(Arrangement(ns5, reps5[0].witness)) == {
        "total": 16, "bounded": 6, "unbounded": 10}
    ns3, reps3 = class_reps("three_lines")
    assert region_census(Arrangement(ns3, reps3[0].witness)) == {
        "total": 7, "bounded": 1, "unbounded": 6}


def test_census_is_class_independent():
    ns, reps = class_reps("four_lines")
    got = {str(region_census(Arrangement(ns, c.witness))) for c in reps}
    assert len(got) == 1


def seeded_class_reps():
    # one witness per class of seeded (5,2), (6,2), (6,3) and (7,4)
    # systems, bound 9, seeds 1-3
    for n, m in [(5, 2), (6, 2), (6, 3), (7, 4)]:
        for seed in range(1, 4):
            ns = random_normal_system(n, m, seed=seed, bound=9)
            cat = enumerate_chambers(build(ns))
            yield ns, [plus for plus, _ in antipodal_classes(cat)]


def test_census_closed_form_equals_enumeration_on_every_class():
    # Zaslavsky's count, read from (n, m) once b is generic, equals the
    # regions enumerated around every vertex, at the witness of every
    # class of the gallery and of the seeded systems
    cases = [class_reps(name) for name in GALLERY] + list(seeded_class_reps())
    arrs = [Arrangement(ns, c.witness) for ns, reps in cases for c in reps]
    want = [census_by_regions(arr) for arr in arrs]
    assert [region_census(arr) for arr in arrs] == want
    assert {(arr.system.n, arr.system.m): census
            for arr, census in zip(arrs, want)} == {
        (n, m): expected_census(n, m)
        for n, m in {(arr.system.n, arr.system.m) for arr in arrs}}


def test_census_on_a_wall_raises_the_enumerated_error():
    # b from a tiny range lands on walls; the error and its payload are
    # those of the enumeration (the lex-first concurrent subset)
    rng = random.Random(3)
    walls = 0
    for n, m in [(5, 2), (6, 2), (6, 3), (7, 4)]:
        ns = random_normal_system(n, m, seed=1, bound=9)
        for _ in range(30):
            arr = Arrangement(ns, [rng.randint(-1, 1) for _ in range(n)])
            try:
                want = census_by_regions(arr)
            except NotGeneric as err:
                with pytest.raises(NotGeneric) as exc:
                    region_census(arr)
                assert exc.value.as_dict() == err.as_dict()
                walls += 1
            else:
                assert region_census(arr) == want
    assert 10 < walls < 120  # both branches are taken


def test_four_line_signatures():
    ns, reps = class_reps("four_lines")
    by_special = {}
    for c in reps:
        arr = Arrangement(ns, c.witness)
        sig = simplex_signature(arr)
        assert len(sig) == 2  # two triangles in any generic four-line arr
        by_special[special_point(arr)] = sig
    assert by_special[(1, 2)] == {(1, 2, 3), (1, 2, 4)}
    assert set(by_special) == {(1, 2), (2, 3), (3, 4), (1, 4)}


def test_five_line_signatures_match_golden_list():
    ns, reps = class_reps("five_lines")
    sigs = {frozenset(simplex_signature(Arrangement(ns, c.witness)))
            for c in reps}
    assert len(sigs) == 31
    assert sigs == FIVE_LINE_CLASS_SIGNATURES


def test_signature_equals_vertex_table_oracle_on_seeded_classes():
    # every class witness of seeded (6,2) systems, and its antipode, which
    # mirrors the picture through the origin and keeps every triangle
    classes = 0
    for seed in range(1, 4):
        ns = random_normal_system(6, 2, seed=seed, bound=9)
        for plus, _ in antipodal_classes(enumerate_chambers(build(ns))):
            arr = Arrangement(ns, plus.witness)
            sig = simplex_signature(arr)
            assert sig == signature_by_vertex_table(arr)
            assert simplex_signature(
                Arrangement(ns, tuple(-x for x in plus.witness))) == sig
            classes += 1
    assert classes == 1338


@pytest.mark.parametrize("n,m", [(5, 2), (8, 2), (13, 2), (6, 3), (9, 3)])
def test_sides_equal_the_wall_lookup_oracle(n, m):
    # the one pass over the walls of sign -1 gives the side masks that a
    # lookup of each wall by its mask gives, on seeded systems at random
    # b of both signs, and the vertex table agrees with both
    rng = random.Random(n * 10 + m)
    for seed in range(1, 4):
        ns = random_normal_system(n, m, seed=seed, bound=9)
        for _ in range(3):
            arr = Arrangement(ns, [rng.randint(-10 ** 6, 10 ** 6)
                                   for _ in range(n)])
            want = sides_by_wall_lookup(arr)
            assert list(affine_geometry._sides(arr).items()) == \
                list(want.items())
            assert want == {S: side for S, (_, side)
                            in vertex_table(arr).items()}


def test_signature_rejects_non_planar():
    ns, reps = class_reps("six_planes_free")
    with pytest.raises(UnsupportedDimension):
        simplex_signature(Arrangement(ns, reps[0].witness))


def test_special_point_shape_and_symmetry():
    ns5, reps5 = class_reps("five_lines")
    with pytest.raises(WrongShape):
        special_point(Arrangement(ns5, reps5[0].witness))
    ns, reps = class_reps("four_lines")
    for c in reps:
        p = special_point(Arrangement(ns, c.witness))
        q = special_point(Arrangement(ns, tuple(-x for x in c.witness)))
        assert p == q
        assert p in {(1, 2), (2, 3), (3, 4), (1, 4)}


@pytest.mark.parametrize("middles", [
    {1: 2, 2: 3, 3: 4, 4: 1},  # no mutual pair
    {1: 2, 2: 1, 3: 4, 4: 3},  # two mutual pairs
])
def test_special_point_not_unique_is_domain_error(monkeypatch, middles):
    # special_point rests on a theorem about generic four-line pictures;
    # a vertex order table that breaks it must raise, also under -O
    ns, reps = class_reps("four_lines")
    table = {}
    for i, j in middles.items():
        others = sorted(set(range(1, 5)) - {i, j})
        order = ((i, others[0]), tuple(sorted((i, j))), (i, others[1]))
        table[(i,)] = SimpleNamespace(order=order)
    monkeypatch.setattr("arrcensus.affine_geometry.vertex_orders",
                        lambda arr: table)
    with pytest.raises(NotGeneric):
        special_point(Arrangement(ns, reps[0].witness))


def test_special_point_random_sweep():
    ns, _ = class_reps("four_lines")
    da = build(ns)
    import random
    rng = random.Random(7)
    seen = set()
    hits = 0
    while hits < 60:
        b = tuple(Fraction(rng.randint(-30, 30)) for _ in range(4))
        arr = Arrangement(ns, b)
        if genericity_witness(arr) is not None:
            continue
        hits += 1
        seen.add(special_point(arr))
    assert seen <= {(1, 2), (2, 3), (3, 4), (1, 4)}
    assert not seen & {(1, 3), (2, 4)}


def test_swap_on_every_four_line_edge():
    cat = catalog("four_lines")
    da = cat.da
    adj = adjacency(cat)
    edges = {tuple(sorted((a, b))) for a, nbrs in adj.items() for b in nbrs}
    assert edges
    for a, b in sorted(edges):
        rep = swap_check(da, cat, a, b)
        assert rep["ok"], (a, b, rep)
        assert len(rep["swapped"]) == 3  # the three singletons inside S
        assert len(rep["unchanged"]) == 1
        assert not rep["failures"]
        back = swap_check(da, cat, b, a)
        assert back["ok"] and back["wall"] == rep["wall"]


def test_swap_sample_five_line_edge():
    cat = catalog("five_lines")
    adj = adjacency(cat)
    a = cat[0].signs
    b = adj[a][0]
    rep = swap_check(cat.da, cat, a, b)
    assert rep["ok"]
    assert len(rep["swapped"]) == 3  # the three singletons inside S
    assert len(rep["unchanged"]) == 2


def test_swap_rejects_non_adjacent():
    cat = catalog("four_lines")
    da = cat.da
    a = cat[0].signs
    with pytest.raises(NotAdjacent):
        swap_check(da, cat, a, a)
    adj = adjacency(cat)
    far = next(s for s in adj
               if sum(x != y for x, y in zip(a, s)) > 1)
    with pytest.raises(NotAdjacent):
        swap_check(da, cat, a, far)


def test_vertex_orders_on_random_planes():
    # m = 3: lines are cut by pairs of planes; orders still well formed
    ns = random_normal_system(5, 3, seed=4, bound=9)
    cat = enumerate_chambers(build(ns))
    arr = Arrangement(ns, cat[0].witness)
    table = vertex_orders(arr)
    assert len(table) == comb(5, 2)
    for A, line in table.items():
        assert len(line.order) == 3  # n - (m-1)
        assert all(set(A) < set(v) for v in line.order)


def check_against_lp(arr):
    # the regions, boundedness, census and triangles read off the sign
    # vector of b equal those of the LP cell walk
    lp = regions_lp(arr)
    unbounded = _unbounded(arr.system)
    got = {r: r not in unbounded for r in _regions(arr)}
    assert got == {sum(1 << i for i, s in enumerate(signs) if s > 0): b
                   for signs, b in lp.items()}
    bounded = sum(lp.values())
    assert region_census(arr) == {"total": len(lp), "bounded": bounded,
                                  "unbounded": len(lp) - bounded}
    if arr.system.m == 2:
        assert simplex_signature(arr) == triangles_lp(arr, lp)


@pytest.mark.parametrize("name", GALLERY)
def test_regions_match_lp_oracle_on_gallery_classes(name):
    # every class representative; every eighth one of the six-line
    # systems, whose 442-446 classes would take the LP walk about 40 s
    ns, reps = class_reps(name)
    step = 8 if name.startswith("six_lines") else 1
    for c in reps[::step]:
        check_against_lp(Arrangement(ns, c.witness))


@pytest.mark.parametrize("n,m", [(4, 2), (5, 2), (6, 2), (5, 3), (6, 3),
                                 (5, 4), (6, 4)])
def test_regions_match_lp_oracle_on_seeded_systems(n, m):
    rng = random.Random(100 * n + m)
    checked = 0
    for seed in range(1, 4):
        ns = random_normal_system(n, m, seed=seed, bound=9)
        while checked < 2 * seed:
            arr = Arrangement(ns, [Fraction(rng.randint(-20, 20),
                                            rng.randint(1, 6))
                                   for _ in range(n)])
            if genericity_witness(arr) is None:
                check_against_lp(arr)
                checked += 1


def test_not_generic_names_the_lex_first_subset():
    # b drawn from a tiny range hits concurrent (m+1)-subsets, often more
    # than one; the expected subset is the discriminantal oracle's
    rng = random.Random(11)
    seen = set()
    for n, m in [(4, 2), (5, 2), (6, 2), (5, 3), (6, 3)]:
        ns = random_normal_system(n, m, seed=n + m, bound=3)
        for _ in range(40):
            arr = Arrangement(ns, [rng.randint(-1, 1) for _ in range(n)])
            witness = genericity_witness_da(arr)
            assert genericity_witness(arr) == witness
            if witness is None:
                continue
            calls = [region_census, vertex_orders] + (
                [simplex_signature] if m == 2 else [])
            for call in calls:
                with pytest.raises(NotGeneric) as exc:
                    call(arr)
                assert exc.value.payload["subset"] == list(witness)
            seen.add(witness)
    assert len(seen) > 10


def rational_systems():
    # seeded systems with every row divided by its own small integer
    rng = random.Random(5)
    out = []
    for n, m in [(5, 2), (6, 3), (6, 4)]:
        rows = random_normal_system(n, m, seed=3, bound=5).rows
        out.append(validate([[Fraction(a, rng.randint(2, 7)) for a in row]
                             for row in rows], m))
    assert all(any(a.denominator > 1 for row in ns.rows for a in row)
               for ns in out)
    return out


def assert_orders_match_oracle(arr):
    got = vertex_orders(arr)
    want = vertex_orders_fraction(arr)
    assert list(got) == list(want)
    for A, line in want.items():
        assert got[A] == line, (A, got[A], line)


@pytest.mark.parametrize("name", GALLERY)
def test_vertex_orders_match_fraction_oracle_on_gallery_classes(name):
    ns, reps = class_reps(name)
    for c in reps:
        assert_orders_match_oracle(Arrangement(ns, c.witness))


@pytest.mark.parametrize("n,m", [(5, 2), (6, 2), (5, 3), (6, 3), (6, 4),
                                 (7, 3)])
def test_vertex_orders_match_fraction_oracle_on_seeded_systems(n, m):
    rng = random.Random(10 * n + m)
    for seed in range(1, 4):
        ns = random_normal_system(n, m, seed=seed, bound=9)
        checked = 0
        while checked < 5:
            arr = Arrangement(ns, [Fraction(rng.randint(-20, 20),
                                            rng.randint(1, 6))
                                   for _ in range(n)])
            if genericity_witness_da(arr) is None:
                assert_orders_match_oracle(arr)
                checked += 1


def test_vertex_orders_match_fraction_oracle_on_rational_rows():
    rng = random.Random(6)
    for ns in rational_systems():
        checked = 0
        while checked < 10:
            arr = Arrangement(ns, [Fraction(rng.randint(-20, 20),
                                            rng.randint(1, 6))
                                   for _ in range(ns.n)])
            if genericity_witness_da(arr) is None:
                assert_orders_match_oracle(arr)
                checked += 1


def test_genericity_witness_matches_discriminantal_oracle():
    # b in {-1, 0, 1}^n is often on one or more walls
    rng = random.Random(12)
    systems = [random_normal_system(n, m, seed=2, bound=4)
               for n, m in [(4, 2), (5, 2), (6, 2), (5, 3), (6, 3), (6, 4),
                            (7, 3)]] + rational_systems()
    hits = 0
    for ns in systems:
        for _ in range(30):
            arr = Arrangement(ns, [rng.randint(-1, 1) for _ in range(ns.n)])
            want = genericity_witness_da(arr)
            assert genericity_witness(arr) == want
            hits += want is not None
    assert 20 < hits < 30 * len(systems)


def test_affine_reads_do_no_fraction_linear_algebra(monkeypatch):
    # every affine reading comes from integer signs and minors, and the
    # vertex orders from the integer vertex table; rref is what
    # solve_particular and nullspace_basis run on
    cat = catalog("four_lines")
    ns = cat.da.source
    a, b = next((a, nbrs[0]) for a, nbrs in adjacency(cat).items())
    arr = Arrangement(ns, cat.find(a).witness)
    other = Arrangement(ns, cat.find(b).witness)

    def no_rref(mat):
        raise AssertionError("Fraction elimination in an affine read")

    monkeypatch.setattr("arrcensus.exact_linalg.rref", no_rref)
    assert vertex_orders(arr)
    assert genericity_witness(arr) is None
    assert not are_isomorphic_trivial(arr, other)
    assert region_census(arr)["total"] == 11
    assert len(simplex_signature(arr)) == 2
    assert special_point(arr)
    assert swap_check(cat.da, cat, a, b)["ok"]


def test_region_census_answers_seeded_16_6_past_the_oracle_limit():
    # the census reads the count off the shape after its one pass over
    # the walls, so no region limit applies to it: seeded (16,6) has
    # 11440 walls and more regions than the enumeration oracle makes
    big = random_normal_system(16, 6, seed=1, bound=9)
    b = [3 ** i % 1009 + 7 * i * i for i in range(16)]
    assert region_census(arrangement_from_b(big, b)) == {
        "total": 14893, "bounded": 5005, "unbounded": 9888}
    assert 14893 > MAX_REGIONS


def test_swap_wall_equals_shared_wall_on_every_edge(monkeypatch):
    # swap_check reads the wall off the signs; shared_wall asks one facet
    # LP (taken here on the reduced rows computed once, as shared_wall
    # does per call); vertex orders are memoised per witness
    orders = {}

    def memo(arr, compute=vertex_orders):
        if arr.b not in orders:
            orders[arr.b] = compute(arr)
        return orders[arr.b]

    monkeypatch.setattr(affine_geometry, "vertex_orders", memo)
    for name in ["five_lines", "six_lines_free"]:
        cat = catalog(name)
        da = cat.da
        reduced = quotient_rows(da)
        edges = {tuple(sorted((a, b)))
                 for a, nbrs in adjacency(cat).items() for b in nbrs}
        for a, b in sorted(edges):
            i = next(k for k, (x, y) in enumerate(zip(a, b)) if x != y)
            assert _wall_is_facet(reduced, a, i), (name, a, b)
            assert swap_check(da, cat, a, b)["wall"] == da.subsets[i]
        a, b = min(edges)
        assert da.subsets[shared_wall(da, a, b)] == \
            swap_check(da, cat, a, b)["wall"]


def test_swap_reads_catalog_edges_without_lp(monkeypatch):
    cat = catalog("four_lines")
    a, b = next((a, nbrs[0]) for a, nbrs in adjacency(cat).items())
    want = swap_check(cat.da, cat, a, b)

    def no_lp(*args):
        raise AssertionError("facet LP for a catalog edge")

    monkeypatch.setattr(chambers, "feasible_strict", no_lp)
    monkeypatch.setattr(exact_linalg, "feasible_strict", no_lp)
    assert swap_check(cat.da, cat, a, b) == want


def test_swap_outside_catalog_keeps_the_lp_path():
    cat = catalog("four_lines")
    a, b = next((a, nbrs[0]) for a, nbrs in adjacency(cat).items())
    part = ChamberCatalog(cat.da, [c for c in cat if c.signs != b])
    with pytest.raises(NotInCatalog):
        swap_check(cat.da, part, a, b)
    far = next(c.signs for c in part
               if sum(x != y for x, y in zip(a, c.signs)) > 1)
    with pytest.raises(NotAdjacent):
        swap_check(cat.da, part, a, far)


def assert_signs_match_vertex_table(arr, others=()):
    # regions, censuses, triangles and iso verdicts read off the sign
    # vector equal those of the vertex table; a b on a wall raises the
    # same NotGeneric subset from every reader
    m = arr.system.m
    table = vertex_table(arr)
    if isinstance(table, tuple):
        assert genericity_witness(arr) == table
        calls = [region_census, lambda a: are_isomorphic_trivial(a, a)]
        if m == 2:
            calls.append(simplex_signature)
        for call in calls:
            with pytest.raises(NotGeneric) as exc:
                call(arr)
            assert exc.value.payload == {"subset": list(table)}
        return
    assert genericity_witness(arr) is None
    assert _regions(arr) == regions_by_vertex_table(arr)
    assert region_census(arr) == census_by_vertex_table(arr)
    if m == 2:
        assert simplex_signature(arr) == signature_by_vertex_table(arr)
    for other in others:
        if not isinstance(vertex_table(other), tuple):
            assert are_isomorphic_trivial(arr, other) == \
                iso_by_vertex_orders(arr, other)


@pytest.mark.parametrize("name", GALLERY)
def test_sign_engine_matches_vertex_table_on_gallery_witnesses(name):
    # every class witness, against its antipode, a translate of it, the
    # next class and one class further on
    ns = getattr(gallery, name)()
    assert _unbounded(ns) == unbounded_by_directions(ns)
    pairs = antipodal_classes(catalog(name))
    k = len(pairs)
    shift = [(-1) ** i * (i + 1) for i in range(ns.m)]
    for i, (plus, minus) in enumerate(pairs):
        arr = Arrangement(ns, plus.witness)
        assert are_isomorphic_trivial(arr, Arrangement(ns, minus.witness))
        moved = [bi + sum(a * x for a, x in zip(row, shift))
                 for row, bi in zip(ns.rows, arr.b)]
        assert_signs_match_vertex_table(arr, [
            Arrangement(ns, moved),
            Arrangement(ns, pairs[(i + 1) % k][0].witness),
            Arrangement(ns, pairs[(7 * i + 3) % k][1].witness)])


def random_bs(rng, ns, count):
    # rational b, b in {-1, 0, 1}^n, which is often on a wall, and b on
    # the wall of a random (m+1)-subset T: the hyperplanes of T through x
    n, m = ns.n, ns.m
    for _ in range(count):
        yield [Fraction(rng.randint(-20, 20), rng.randint(1, 6))
               for _ in range(n)]
        yield [rng.randint(-1, 1) for _ in range(n)]
        x = [rng.randint(-5, 5) for _ in range(m)]
        T = rng.sample(range(n), m + 1)
        yield [sum(a * y for a, y in zip(ns.rows[i], x)) if i in T
               else rng.randint(-20, 20) for i in range(n)]


@pytest.mark.parametrize("n,m", [(4, 2), (5, 2), (6, 2), (5, 3), (6, 3),
                                 (7, 3), (5, 4), (6, 4), (7, 4)])
def test_sign_engine_matches_vertex_table_on_seeded_systems(n, m):
    rng = random.Random(1000 * n + m)
    walls = 0
    for seed in (1, 2, 3):
        ns = random_normal_system(n, m, seed=seed, bound=9)
        assert _unbounded(ns) == unbounded_by_directions(ns)
        bs = [Arrangement(ns, b) for b in random_bs(rng, ns, 6)]
        for i, arr in enumerate(bs):
            assert_signs_match_vertex_table(arr, bs[i + 1:i + 4])
            walls += genericity_witness(arr) is not None
    assert walls


def test_sign_engine_matches_vertex_table_on_rational_rows():
    rng = random.Random(8)
    for ns in rational_systems():
        assert _unbounded(ns) == unbounded_by_directions(ns)
        bs = [Arrangement(ns, b) for b in random_bs(rng, ns, 8)]
        for i, arr in enumerate(bs):
            assert_signs_match_vertex_table(arr, bs[i + 1:i + 4])


def test_iso_checks_b1_before_b2():
    ns = gallery.five_lines()
    rng = random.Random(4)
    on_wall = {}
    while len(on_wall) < 2:
        arr = Arrangement(ns, [rng.randint(-2, 2) for _ in range(5)])
        witness = genericity_witness(arr)
        if witness is not None:
            on_wall.setdefault(witness, arr)
    (w1, a1), (w2, a2) = sorted(on_wall.items())
    generic = Arrangement(ns, class_reps("five_lines")[1][0].witness)
    for left, right, want in [(a1, a2, w1), (a2, a1, w2),
                              (generic, a2, w2), (a1, generic, w1)]:
        with pytest.raises(NotGeneric) as exc:
            are_isomorphic_trivial(left, right)
        assert exc.value.payload["subset"] == list(want)


def test_sign_engine_builds_no_vertex_table(monkeypatch):
    # region_census, simplex_signature, are_isomorphic_trivial and
    # genericity_witness read the sign vector and the minor table only
    ns, reps = class_reps("five_lines")
    arrs = [Arrangement(ns, c.witness) for c in reps[:3]]
    want = [(region_census(a), simplex_signature(a), genericity_witness(a),
             are_isomorphic_trivial(a, arrs[0])) for a in arrs]

    def no_table(*args):
        raise AssertionError("vertex table built")

    for name in ("_vertices", "_kernel", "_int_det"):
        monkeypatch.setattr(affine_geometry, name, no_table)
    monkeypatch.setattr(exact_linalg, "_int_det", no_table)
    assert [(region_census(a), simplex_signature(a), genericity_witness(a),
             are_isomorphic_trivial(a, arrs[0])) for a in arrs] == want
    assert genericity_witness(Arrangement(ns, (0,) * 5)) == (1, 2, 3)
    with pytest.raises(AssertionError):
        vertex_orders(arrs[0])


def _answer(f, *args):
    # what f answers, or the error it raises, with its payload
    try:
        got = f(*args)
    except ArrangementError as err:
        return type(err), err.as_dict()
    if isinstance(got, (Classified, OnWall)):
        return tuple(getattr(got, k, None)
                     for k in ("signs", "class_id", "subsets"))
    return got


@pytest.mark.parametrize("name", GALLERY)
def test_integer_b_answers_as_its_fractions_do(name):
    # an all-int b stays ints in its Arrangement, and regions, signature,
    # iso and classify answer for it exactly what they answer for the
    # same b as Fractions, on a wall and off every wall
    ns = getattr(gallery, name)()
    cat = catalog(name)
    bs = [list(cat[i].witness) for i in (0, 1, len(cat) - 1)]
    bs += [[0] * ns.n, [i * i for i in range(ns.n)]]
    da = build(ns)
    pairs = []
    for b in bs:
        fb = [Fraction(x) for x in b]
        ai, af = arrangement_from_b(ns, b), arrangement_from_b(ns, fb)
        assert {type(x) for x in ai.b} == {int}
        assert {type(x) for x in af.b} == {Fraction}
        for f in (region_census, simplex_signature):
            assert _answer(f, ai) == _answer(f, af), (f, b)
        assert _answer(classify_b, da, b, cat) == \
            _answer(classify_b, da, fb, cat)
        pairs.append((ai, af))
    for (a1, f1), (a2, f2) in combinations(pairs, 2):
        assert _answer(are_isomorphic_trivial, a1, a2) == \
            _answer(are_isomorphic_trivial, f1, f2)
