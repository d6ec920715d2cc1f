"""Chamber catalogs: golden counts, a brute-force sign-vector oracle,
antipodal pairing, classification, adjacency, and JSON round trips.
"""

import hashlib
import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from arrcensus import gallery
from arrcensus.chambers import (Chamber, ChamberCatalog, Classified, OnWall,
                                _wall_is_facet, adjacency, antipodal_classes,
                                catalog_from_dict, catalog_to_dict,
                                classify_b, enumerate_chambers,
                                opposite_signs, shared_wall, sign_cells,
                                verify_catalog)
from arrcensus.charpoly import poset_charpoly, zaslavsky_regions
from arrcensus.discriminantal import build
from arrcensus.errors import (LengthMismatch, NotInCatalog, TooLarge,
                              UnpairedChamber)
from arrcensus.exact_linalg import (dot, feasible_strict,
                                    lex_independent_columns, rank)
from arrcensus.normal_system import random_normal_system

from oracles import sign_cells_fraction

# SHA-256 of json.dumps(catalog_to_dict(...), sort_keys=True): any change
# of a witness, an order or a class id shows here
CATALOG_SHA256 = {
    "five_lines":
        "ba6af0057a1f739aaf5c014217e4b3cb3935661bcdbb10bc8a439a9354546237",
    "six_planes_free":
        "5edf4260b9a7e6e91fb19f431c5f41ccab1d5f901b9572fcdb1bad580b47a458",
}


@lru_cache(maxsize=None)
def catalog(name):
    return enumerate_chambers(build(getattr(gallery, name)()))


def reduced_normals(da):
    r = rank(da.normals)
    cols = lex_independent_columns(da.normals, r)
    return [tuple(Fraction(row[j]) for j in cols) for row in da.normals]


def brute_sign_set(da):
    # independent oracle: one feasibility run per candidate sign pattern
    reduced = reduced_normals(da)
    out = set()
    for bits in range(1 << len(reduced)):
        folded = []
        text = []
        for i, row in enumerate(reduced):
            if bits >> i & 1:
                folded.append(tuple(-x for x in row))
                text.append("-")
            else:
                folded.append(row)
                text.append("+")
        if feasible_strict(tuple(folded)) is not None:
            out.add("".join(text))
    return out


def test_golden_chamber_counts():
    assert len(catalog("four_lines")) == 8
    assert catalog("four_lines").class_count == 4
    assert len(catalog("five_lines")) == 62
    assert catalog("five_lines").class_count == 31
    assert len(catalog("six_lines_perpendicular_pairs")) == 884


def test_sign_sets_match_brute_oracle():
    for name in ["four_lines", "five_lines"]:
        da = build(getattr(gallery, name)())
        assert {c.signs for c in catalog(name)} == brute_sign_set(da)


def test_counts_match_zaslavsky():
    for name in ["four_lines", "five_lines", "six_planes_chain"]:
        da = build(getattr(gallery, name)())
        expected = zaslavsky_regions(poset_charpoly(da))
        assert len(catalog(name)) == expected


def test_every_witness_reproduces_its_signs():
    for name in ["four_lines", "five_lines", "six_planes_chain"]:
        da = build(getattr(gallery, name)())
        for c in catalog(name):
            got = classify_b(da, c.witness)
            assert isinstance(got, Classified)
            assert got.signs == c.signs


def test_antipodal_pairing():
    cat = catalog("five_lines")
    pairs = antipodal_classes(cat)
    assert len(pairs) == 31
    for k, (plus, minus) in enumerate(pairs):
        assert plus.signs.startswith("+")
        assert minus.signs == opposite_signs(plus.signs)
        assert plus.class_id == minus.class_id == k
    ids = sorted(c.class_id for c in cat)
    assert ids == sorted(list(range(31)) * 2)


def test_unpaired_chamber_detected():
    cat = catalog("four_lines")
    broken = ChamberCatalog(cat.da, [c for c in cat
                                     if c.signs != "----"])
    with pytest.raises(UnpairedChamber):
        antipodal_classes(broken)


def test_classify_origin_is_on_every_wall():
    da = build(gallery.four_lines())
    res = classify_b(da, (0, 0, 0, 0))
    assert isinstance(res, OnWall)
    assert res.subsets == da.subsets


def test_classify_on_single_wall_names_it():
    da = build(gallery.four_lines())
    # normal of {1,2,3} is supported there; kill exactly that functional
    target = da.normal_of((1, 2, 3))
    b = [Fraction(1), Fraction(17), Fraction(0), Fraction(0)]
    b[1] = -(target[0] * b[0]) / target[1]
    res = classify_b(da, b)
    assert isinstance(res, OnWall)
    assert (1, 2, 3) in res.subsets


def test_classify_b_and_minus_b_share_a_class():
    da = build(gallery.six_lines_perpendicular_pairs())
    cat = catalog("six_lines_perpendicular_pairs")
    res = classify_b(da, gallery.B_PERPENDICULAR, cat)
    neg = classify_b(da, tuple(-x for x in gallery.B_PERPENDICULAR), cat)
    assert isinstance(res, Classified)
    assert "0" not in res.signs and len(res.signs) == 20
    assert res.class_id == neg.class_id
    assert res.signs == opposite_signs(neg.signs)


def test_classify_rejects_wrong_length():
    da = build(gallery.four_lines())
    with pytest.raises(LengthMismatch):
        classify_b(da, (1, 2, 3))


def test_classify_against_incomplete_catalog():
    da = build(gallery.four_lines())
    cat = catalog("four_lines")
    data = catalog_to_dict(cat)
    keep = [e for e in data["chambers"] if e["signs"].startswith("+")]
    half = catalog_from_dict(da, {**data, "chambers": keep})
    minus = next(c for c in cat if c.signs.startswith("-"))
    with pytest.raises(NotInCatalog):
        classify_b(da, minus.witness, half)


def test_four_line_adjacency_is_an_eight_cycle():
    cat = catalog("four_lines")
    adj = adjacency(cat)
    assert all(len(v) == 2 for v in adj.values())
    start = cat[0].signs
    seen = {start}
    prev, cur = None, start
    while True:
        step = next(s for s in adj[cur] if s != prev)
        prev, cur = cur, step
        if cur == start:
            break
        seen.add(cur)
    assert len(seen) == 8


def test_adjacency_structure_five_lines():
    cat = catalog("five_lines")
    adj = adjacency(cat)
    for signs, nbrs in adj.items():
        assert len(nbrs) >= 1
        for t in nbrs:
            assert sum(a != b for a, b in zip(signs, t)) == 1
            assert signs in adj[t]
            # invariant under global negation
            assert opposite_signs(t) in adj[opposite_signs(signs)]


def test_shared_wall():
    cat = catalog("four_lines")
    adj = adjacency(cat)
    da = cat.da
    a = cat[0].signs
    b = adj[a][0]
    i = shared_wall(da, a, b)
    assert i is not None and a[i] != b[i]
    assert shared_wall(da, a, a) is None
    far = next(s for s in adj if sum(x != y for x, y in zip(a, s)) > 1)
    assert shared_wall(da, a, far) is None


def test_too_large_guard():
    da = build(gallery.five_lines())
    with pytest.raises(TooLarge):
        enumerate_chambers(da, max_chambers=10)
    with pytest.raises(TooLarge):
        enumerate_chambers(da, max_chambers=61)
    assert len(enumerate_chambers(da, max_chambers=62)) == 62


def test_half_enumeration_matches_full_sign_cells():
    da = build(gallery.five_lines())
    r = rank(da.normals)
    cols = lex_independent_columns(da.normals, r)
    reduced = [tuple(Fraction(row[j]) for j in cols) for row in da.normals]
    full = sign_cells(reduced, r)
    text = {"".join("+" if s > 0 else "-" for s in signs)
            for signs, _ in full}
    assert text == {c.signs for c in catalog("five_lines")}
    for signs, w in full:
        for s, row in zip(signs, reduced):
            assert dot(row, w) * s > 0


def test_sign_cells_with_base_constraints():
    cells = sign_cells([(1, 0)], 2, base_rows=[(0, 1)])
    assert sorted(signs for signs, _ in cells) == [(-1,), (1,)]
    for signs, (x, y) in cells:
        assert y > 0 and x * signs[0] > 0
    assert sign_cells([(1, 0)], 2, base_rows=[(0, 1), (0, -1)]) == []


def test_chamber_keeps_fraction_witness_entries():
    half = Fraction(1, 2)
    c = Chamber("+-", [half, 3])
    assert c.witness == (half, Fraction(3)) and c.witness[0] is half
    assert type(c.witness[1]) is Fraction


def test_catalog_json_round_trip():
    cat = catalog("five_lines")
    data = catalog_to_dict(cat)
    assert data["count"] == 62 and data["classes"] == 31
    back = catalog_from_dict(cat.da, data)
    assert len(back) == len(cat)
    for a, b in zip(back, cat):
        assert a.signs == b.signs
        assert a.witness == b.witness
        assert a.class_id == b.class_id


def test_catalog_from_dict_rejects_shape_mismatch():
    cat = catalog("four_lines")
    data = catalog_to_dict(cat)
    da5 = build(gallery.five_lines())
    with pytest.raises(NotInCatalog):
        catalog_from_dict(da5, data)


def test_verify_catalog_ok_and_detects_tampering():
    da = build(gallery.five_lines())
    cat = catalog("five_lines")
    report = verify_catalog(da, cat)
    assert report["ok"]
    assert report["count"] == report["zaslavsky"] == 62
    assert report["classes"] == 31

    tampered = ChamberCatalog(da, [
        Chamber(c.signs, tuple(-x for x in c.witness)
                if c.signs == cat[0].signs else c.witness, c.class_id)
        for c in cat])
    bad = verify_catalog(da, tampered)
    assert not bad["witnesses_ok"] and not bad["ok"]

    shuffled = ChamberCatalog(da, [
        Chamber(c.signs, c.witness, 0) for c in cat])
    bad = verify_catalog(da, shuffled)
    assert not bad["pairing_ok"] and not bad["ok"]


def test_enumeration_is_deterministic():
    da = build(gallery.five_lines())
    a = enumerate_chambers(da)
    b = enumerate_chambers(da)
    assert [c.signs for c in a] == [c.signs for c in b]
    assert [c.witness for c in a] == [c.witness for c in b]
    assert [c.class_id for c in a] == [c.class_id for c in b]


@pytest.mark.parametrize("name", ["three_lines", "four_lines", "five_lines",
                                  "six_planes_chain", "six_planes_curve",
                                  "six_planes_free"])
def test_sign_cells_match_fraction_oracle(name):
    # the integer walk gives the signs and witnesses, in order, of the same
    # walk done in Fractions on the full-tableau simplex
    reduced = reduced_normals(build(getattr(gallery, name)()))
    dim = len(reduced[0])
    got = sign_cells(reduced, dim, half=True)
    assert got == sign_cells_fraction(reduced, dim, half=True)
    assert all(isinstance(x, Fraction) for _, w in got for x in w)


def test_sign_cells_match_fraction_oracle_on_rational_rows():
    # rows with denominators: an unbounded step across a wall is one unit
    # of the unscaled row, not of the integer row the walk carries
    rng = random.Random(17)
    for _ in range(40):
        dim = rng.randint(2, 3)
        rows = [tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                      for _ in range(dim)) for _ in range(rng.randint(2, 5))]
        if any(not any(r) for r in rows):
            continue
        assert sign_cells(rows, dim) == sign_cells_fraction(rows, dim)


@pytest.mark.parametrize("n,m", [(5, 2), (6, 3)])
def test_affine_cells_match_fraction_oracle(n, m):
    # affine cells: homogenized rows (a, -b) over the base row t > 0, with
    # rational b, as region_census walks them
    rng = random.Random(n * 10 + m)
    ns = random_normal_system(n, m, seed=rng.randrange(100), bound=9)
    base = [(0,) * m + (1,)]
    for _ in range(3):
        b = [Fraction(rng.randint(-40, 40), rng.randint(1, 3))
             for _ in range(n)]
        rows = [tuple(a) + (-bi,) for a, bi in zip(ns.rows, b)]
        got = sign_cells(rows, m + 1, base_rows=base)
        assert got == sign_cells_fraction(rows, m + 1, base_rows=base)


@pytest.mark.parametrize("name", sorted(CATALOG_SHA256))
def test_catalog_json_digest_is_pinned(name):
    data = catalog_to_dict(catalog(name))
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode())
    assert digest.hexdigest() == CATALOG_SHA256[name]


@pytest.mark.parametrize("name", ["four_lines", "five_lines",
                                  "six_planes_free"])
def test_adjacency_matches_facet_lp_oracle(name):
    # one LP per Hamming-distance-one pair: is the wall a common facet?
    cat = catalog(name)
    reduced = reduced_normals(cat.da)
    expected = {c.signs: [] for c in cat}
    for a in expected:
        for b in expected:
            diff = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
            if len(diff) == 1 and _wall_is_facet(reduced, a, diff[0]):
                expected[a].append(b)
    assert adjacency(cat) == {k: tuple(sorted(v))
                              for k, v in expected.items()}
