"""Affine readings of generic arrangements: vertex orders, the trivial
isomorphism oracle, region censuses against the closed formulas, triangle
signatures, special points, and wall-crossing swaps.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from types import SimpleNamespace

import pytest

from arrcensus import gallery
from arrcensus.affine_geometry import (are_isomorphic_trivial,
                                       genericity_witness, region_census,
                                       simplex_signature, special_point,
                                       swap_check, vertex_orders)
from arrcensus.chambers import adjacency, antipodal_classes, enumerate_chambers
from arrcensus.discriminantal import build
from arrcensus.errors import (NotAdjacent, NotGeneric, UnsupportedDimension,
                              WrongShape)
from arrcensus.normal_system import Arrangement, random_normal_system

from golden_data import FIVE_LINE_CLASS_SIGNATURES


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
