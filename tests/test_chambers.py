"""Chamber catalogs: golden counts, a brute-force sign-vector oracle,
antipodal pairing, classification, adjacency, and JSON round trips.
"""

import ast
import hashlib
import io
import json
import math
import os
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrcensus import chambers, exact_linalg, gallery
from arrcensus.chambers import (Chamber, ChamberCatalog, Classified, OnWall,
                                _integer_texts, _wall_is_facet, adjacency,
                                antipodal_classes, catalog_from_dict,
                                catalog_text, catalog_to_dict, classify_b,
                                enumerate_chambers, opposite_signs,
                                shared_wall, sign_cells, verify_catalog)
from arrcensus.charpoly import (CharPolynomial, poset_charpoly,
                                whitney_charpoly, zaslavsky_regions)
from arrcensus.concurrency import is_concurrency_free
from arrcensus.discriminantal import build, quotient_rows
from arrcensus.errors import (ArrangementError, BadArtifact, BadRational,
                              CountMismatch, LengthMismatch, NotInCatalog,
                              TooLarge, UnpairedChamber)
from arrcensus.exact_linalg import (feasible_strict,
                                    lex_independent_columns, rank)
from arrcensus.normal_system import NormalSystem, random_normal_system

from oracles import (catalog_by_entry, dot, integer_texts_by_regex,
                     primitive_int_rows, sign_cells_fraction, walk_catalog,
                     wall_is_facet_by_nullspace)
from test_concurrency import rational_draw, scaled_draw

GALLERY = ["three_lines", "four_lines", "five_lines",
           "six_lines_perpendicular_pairs", "six_lines_mixed_slopes",
           "six_lines_distinct_slopes", "six_lines_free",
           "six_planes_chain", "six_planes_curve", "six_planes_free"]

# SHA-256 of json.dumps(catalog_to_dict(...), sort_keys=True): any change
# of a witness, an order or a class id shows here.  These pin the
# insertion walk (oracles.walk_catalog) ...
CATALOG_SHA256 = {
    "five_lines":
        "ba6af0057a1f739aaf5c014217e4b3cb3935661bcdbb10bc8a439a9354546237",
    "six_planes_free":
        "5edf4260b9a7e6e91fb19f431c5f41ccab1d5f901b9572fcdb1bad580b47a458",
}
# ... and these the cocircuit engine, enumerate_chambers
COCIRCUIT_SHA256 = {
    "five_lines":
        "cc0644242a2e000896b67f1b29b2bf1b24c430dcb29295e592abfd770be1f571",
    "six_planes_free":
        "27544c200baa95c9a0f3ad65ea1f1559fdb81437fe7a7617699fdda3d5bcf477",
}


def seeded_systems():
    """Seeded (5,2), (6,2) and (6,3) systems by label: integer, rational,
    and bound-2 draws with rational rows, which at (6,2) and (6,3) keep
    the concurrencies of a non-free system."""
    out = {}
    for n, m, seed in [(5, 2, 1), (6, 2, 0), (6, 3, 3)]:
        shape = "%d-%d-" % (n, m)
        out[shape + "int"] = random_normal_system(n, m, seed=n + m, bound=9)
        out[shape + "rational"] = rational_draw(n, m, n * m, 9)
        out[shape + "scaled"] = scaled_draw(n, m, seed, 2)
    return out


SEEDED = seeded_systems()


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


def test_classify_refuses_a_catalog_of_another_system():
    # the seeded (5,2) system shares 6 of its 62 sign vectors with
    # five_lines, and 2 of those carry other class ids there; each lookup
    # is refused, since the witness found has other signs under da
    da = build(random_normal_system(5, 2, seed=1, bound=9))
    own = enumerate_chambers(da)
    foreign = catalog("five_lines")
    shared = [c for c in own if foreign.find(c.signs) is not None]
    assert len(shared) == 6
    assert sum(foreign.find(c.signs).class_id != c.class_id
               for c in shared) == 2
    for c in shared:
        assert classify_b(da, c.witness, own).class_id == c.class_id
        with pytest.raises(NotInCatalog) as err:
            classify_b(da, c.witness, foreign)
        assert err.value.payload == {"signs": c.signs}
        assert "does not belong" in str(err.value)


SCALED_SYSTEMS = [getattr(gallery, name)() for name in GALLERY] + [
    random_normal_system(n, m, seed=seed, bound=9)
    for seed, (n, m) in enumerate(((5, 2), (6, 3), (7, 4)))]


@st.composite
def rescaled_rows(draw):
    """(system, b, row index i, factor): the factor is a nonzero integer
    up to 10^9 or a rational with numerator and denominator up to 10^6,
    of either sign."""
    ns = draw(st.sampled_from(SCALED_SYSTEMS))
    b = draw(st.lists(st.builds(Fraction, st.integers(-30, 30),
                                st.integers(1, 6)),
                      min_size=ns.n, max_size=ns.n))
    i = draw(st.integers(0, ns.n - 1))
    size = draw(st.one_of(
        st.integers(1, 10 ** 9),
        st.builds(Fraction, st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))))
    return ns, b, i, size if draw(st.booleans()) else -size


@settings(max_examples=200, deadline=None)
@given(case=rescaled_rows())
def test_scaling_a_row_and_its_constant_keeps_the_sign_vector(case):
    # row i and b_i times the same factor give the same affine hyperplane;
    # every wall value through row i is scaled by the factor, so the sign
    # vector stays, and a negative factor flips exactly the walls T ∋ i
    ns, b, i, factor = case
    rows = [list(row) for row in ns.rows]
    rows[i] = [factor * a for a in rows[i]]
    scaled_b = list(b)
    scaled_b[i] = factor * b[i]
    da = build(ns)
    want = classify_b(da, b)
    got = classify_b(build(NormalSystem(rows, ns.m)), scaled_b)
    if isinstance(want, OnWall):
        assert isinstance(got, OnWall) and got.subsets == want.subsets
        return
    flips = [factor < 0 and i + 1 in T for T in da.subsets]
    assert got.signs == "".join(opposite_signs(s) if f else s
                                for s, f in zip(want.signs, flips))


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


def test_wall_is_facet_matches_the_nullspace_oracle():
    # the facet LP on the integer annihilator basis of the wall gives the
    # verdict of the Fraction nullspace basis, for every sign pattern of
    # random rows: most patterns are no cone, so both verdicts occur
    assert not _wall_is_facet([(1, 0), (0, 1), (1, 1)], "++-", 2)
    assert _wall_is_facet([(1, 0), (0, 1), (1, 1)], "+--", 2)
    rng = random.Random(43)
    verdicts = set()
    for _ in range(60):
        d = rng.randint(1, 3)
        rows = [tuple(rng.choice([rng.randint(-3, 3),
                                  Fraction(rng.randint(-3, 3), 2)])
                      for _ in range(d)) for _ in range(rng.randint(1, 4))]
        for bits in range(1 << len(rows)):
            signs = "".join("+" if bits >> j & 1 else "-"
                            for j in range(len(rows)))
            i = rng.randrange(len(rows))
            got = _wall_is_facet(rows, signs, i)
            assert got == wall_is_facet_by_nullspace(rows, signs, i)
            verdicts.add(got)
    assert verdicts == {True, False}


LP_LAYER = {"feasible_strict", "sign_cells", "shared_wall",
            "nullspace_basis", "rref"}


def library_names():
    """{module file: every name it uses, imports or defines}."""
    src = os.path.dirname(chambers.__file__)
    out = {}
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.alias, ast.FunctionDef,
                                   ast.ClassDef)):
                used.add(node.name)
        out[name] = used
    return out


def test_no_library_module_outside_chambers_reaches_the_lp_layer():
    # the LP layer and the Fraction rref path are defined in exact_linalg
    # and chambers and kept for the tests; no other library module names
    # them, so no production path can run them
    for name, used in library_names().items():
        if name not in ("chambers.py", "exact_linalg.py"):
            assert not used & LP_LAYER, (name, sorted(used & LP_LAYER))


# names no library module may use, but for the files that define them
ONE_ENGINE = [
    ({"rank", "lex_independent_columns"}, {"exact_linalg.py"}),
    ({"poset_charpoly"}, {"charpoly.py"}),
    ({"da_from_dict", "arrangement_to_dict", "arrangement_from_dict"},
     set()),
    ({"echelon_residual", "echelon_insert", "_cocircuit"}, set()),
    ({"rational", "nullspace_basis", "rref"}, {"exact_linalg.py"}),
    # one way into the integers: _int_row and exact_linalg's grammar
    ({"dot", "_INTEGER", "primitive_int_rows", "_int_rows"}, set()),
]


def test_only_build_makes_arrangements_and_only_whitney_runs():
    # build is the one way to an arrangement, so nothing in the library
    # cuts columns by rank, reads arrangement files, runs the poset
    # cross-check or reaches the Fraction algebra of exact_linalg
    for name, used in library_names().items():
        for names, exempt in ONE_ENGINE:
            if name not in exempt:
                assert not used & names, (name, sorted(used & names))


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
    assert type(c.witness[1]) is int


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


def test_catalog_from_dict_rejects_bool_and_float_witnesses():
    cat = catalog("four_lines")
    for bad in [True, 0.5]:
        data = json.loads(json.dumps(catalog_to_dict(cat)))
        data["chambers"][1]["witness"][2] = bad
        with pytest.raises(BadRational) as err:
            catalog_from_dict(cat.da, data)
        assert err.value.payload == {"got": str(bad), "chamber": 2,
                                     "position": 3}


def test_catalog_from_dict_reads_a_witness_whole_or_by_entry():
    # integer strings are read as ints; a catalog with any other entry is
    # read entry by entry, and its first bad entry is named
    cat = catalog("four_lines")
    for witness, want in [(["-0", "007", "1", "-2"], (0, 7, 1, -2)),
                          (["1/2", "3", "-4", "5"],
                           (Fraction(1, 2), 3, -4, 5))]:
        data = json.loads(json.dumps(catalog_to_dict(cat)))
        data["chambers"][1]["witness"] = witness
        got = catalog_from_dict(cat.da, data)[1].witness
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]
    for witness, position, bad in [(["1,2", "3", "4"], 1, "1,2"),
                                   (["1", "2", "3,", "4"], 3, "3,")]:
        data = json.loads(json.dumps(catalog_to_dict(cat)))
        data["chambers"][1]["witness"] = witness
        with pytest.raises(BadRational) as err:
            catalog_from_dict(cat.da, data)
        assert err.value.payload == {"got": bad, "chamber": 2,
                                     "position": position}


# entries the one-pass check leaves to the per-entry read: rationals,
# forms int() reads but a catalog may not hold, and non-strings
_ODD_ENTRIES = ["1/2", "+3", " 4", "1_0", "\u0661", "1,2", "", "-", "007",
                "-0", 5, None, True, 2.5, [1]]


@st.composite
def damaged_gallery_catalogs(draw):
    """A gallery catalog as JSON data, with up to three faults."""
    name = draw(st.sampled_from(["four_lines", "five_lines",
                                 "six_planes_free"]))
    doc = json.loads(json.dumps(catalog_to_dict(catalog(name))))
    for _ in range(draw(st.integers(0, 3))):
        entries = doc["chambers"]
        if not entries:
            break
        fault = draw(st.sampled_from(["entry", "comma", "string", "length",
                                      "class", "duplicate", "shuffle",
                                      "empty"]))
        entry = entries[draw(st.integers(0, len(entries) - 1))]
        witness = entry["witness"]
        if fault == "entry" and isinstance(witness, list) and witness:
            i = draw(st.integers(0, len(witness) - 1))
            witness[i] = draw(st.sampled_from(_ODD_ENTRIES))
        elif fault == "comma" and isinstance(witness, list):
            # n - 1 entries, one of them "1,2": the commas add up to n - 1
            witness[-2:] = ["1,2"]
        elif fault == "string" and isinstance(witness, list):
            entry["witness"] = ",".join(map(str, witness))
        elif fault == "length" and isinstance(witness, list):
            if draw(st.booleans()):
                witness.append("0")
            else:
                witness.pop()
        elif fault == "class":
            entry["class"] = draw(st.sampled_from([True, 2.5, None, "1"]))
        elif fault == "duplicate":
            entry["signs"] = draw(st.sampled_from(entries))["signs"]
        elif fault == "shuffle":
            doc["chambers"] = draw(st.permutations(entries))
        elif fault == "empty":
            doc["chambers"] = []
    return name, doc


def _load_outcome(load, da, doc):
    # every chamber in order, with its witness values and their types, or
    # the error class and payload
    try:
        cat = load(da, doc)
    except ArrangementError as err:
        return type(err), err.as_dict()
    return cat.class_count, [(c.signs, c.witness, list(map(type, c.witness)),
                              c.class_id) for c in cat]


@settings(max_examples=300, deadline=None)
@given(case=damaged_gallery_catalogs())
def test_catalog_from_dict_matches_the_per_entry_oracle(case):
    name, doc = case
    da = catalog(name).da
    assert _load_outcome(catalog_from_dict, da, doc) == \
        _load_outcome(catalog_by_entry, da, doc)


def json_dump_text(data):
    # the catalog file as json.dump writes it
    fh = io.StringIO()
    json.dump(data, fh, sort_keys=True, indent=1)
    return fh.getvalue() + "\n"


def test_catalog_text_equals_json_dump():
    # the gallery catalogs, the seeded sweep, an empty catalog, and one
    # loaded with rational witnesses
    cats = [catalog(name) for name in GALLERY]
    cats += [enumerate_chambers(build(ns)) for ns in SEEDED.values()]
    cats.append(ChamberCatalog(cats[0].da, []))
    doc = catalog_to_dict(catalog("five_lines"))
    for k, e in enumerate(doc["chambers"]):
        e["witness"] = [x + "/%d" % (k % 3 + 2) if k % 2 else x
                        for x in e["witness"]]
    loaded = catalog_from_dict(cats[2].da, doc)
    assert {type(x) for c in loaded for x in c.witness} == {int, Fraction}
    cats.append(loaded)
    for cat in cats:
        data = catalog_to_dict(cat)
        assert catalog_text(data) == json_dump_text(data)
    assert json_dump_text(catalog_to_dict(cats[-2])).count("[]") == 1


def test_catalog_text_escapes_as_json_does():
    # strings that json escapes, and class ids that are not ints
    data = {"n": 2, "m": 1, "count": 3, "classes": True, "chambers": [
        {"signs": "+\u00e9\"\\\n", "witness": ["\u0661", "\t"],
         "class": None},
        {"signs": "", "witness": ["1/2", ""], "class": 2.5},
        {"signs": "-", "witness": ["1", "\ud83d"], "class": -3}]}
    assert catalog_text(data) == json_dump_text(data)


# entries the one-pass check must take or refuse as the regex does
_CHECK_ENTRIES = ["", "-", "--1", "1-", "+1", "-0", "01", " 1", "\u0661",
                  "1_0", "1/2", "1,2", ",", "-,1", "0", "-7", "12", "1\n",
                  "\u00b2", "\uff11", "1-2", "-1-"]


@st.composite
def witness_tables(draw):
    """(n, witnesses) of plain-integer entries with a few odd ones."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(-10 ** 6, 10 ** 6).map(str),
                      st.sampled_from(_CHECK_ENTRIES),
                      st.text(st.sampled_from("0-9,+ /_\u0661"),
                              max_size=3))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=1, max_size=4))
    return n, rows


@settings(max_examples=500, deadline=None)
@given(case=witness_tables())
def test_integer_check_accepts_what_the_regex_accepts(case):
    n, witnesses = case
    signs = ["+" * n] * len(witnesses)
    classes = list(range(len(witnesses)))
    assert _integer_texts(n, signs, witnesses, classes) == \
        integer_texts_by_regex(n, signs, witnesses, classes)


@pytest.mark.parametrize("entry", _CHECK_ENTRIES)
def test_integer_check_on_each_odd_entry(entry):
    # the check takes the entry, alone or among plain integers at each
    # place of a witness, as the regex does; a catalog it refuses is read
    # entry by entry: the first bad entry is named, and a rational one is
    # read as a Fraction
    for witness in ([entry], [entry, "1", "2"], ["1", entry, "-2"],
                    ["1", "-2", entry]):
        n = len(witness)
        assert _integer_texts(n, ["+"], [witness], [0]) == \
            integer_texts_by_regex(n, ["+"], [witness], [0])
    cat = catalog("four_lines")
    doc = json.loads(json.dumps(catalog_to_dict(cat)))
    doc["chambers"][1]["witness"][2] = entry
    got = _load_outcome(catalog_from_dict, cat.da, doc)
    assert got == _load_outcome(catalog_by_entry, cat.da, doc)
    entries = doc["chambers"]
    if integer_texts_by_regex(4, [e["signs"] for e in entries],
                              [e["witness"] for e in entries],
                              [e["class"] for e in entries]) is None:
        if got[0] is BadRational:
            assert got[1] == {"type": "BadRational", "got": entry,
                              "chamber": 2, "position": 3,
                              "message": got[1]["message"]}
        else:
            assert type(got[1][1][1][2]) is Fraction


def test_catalog_from_dict_rejects_shape_mismatch():
    cat = catalog("four_lines")
    data = catalog_to_dict(cat)
    da5 = build(gallery.five_lines())
    with pytest.raises(NotInCatalog):
        catalog_from_dict(da5, data)


@pytest.mark.parametrize("key,value", [
    ("n", 4.0), ("m", 2.0), ("n", "4"), ("m", True), ("chambers", ""),
    ("chambers", {}), ("chambers", None)])
def test_catalog_from_dict_needs_integers_and_a_chamber_list(key, value):
    # checked before the shape, so a float n that equals da.n is refused
    # too; the per-entry oracle refuses the same layouts
    cat = catalog("four_lines")
    data = catalog_to_dict(cat)
    data[key] = value
    for load in (catalog_from_dict, catalog_by_entry):
        with pytest.raises(BadArtifact):
            load(cat.da, data)


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


def test_verify_catalog_fails_a_zero_witness():
    # b = 0 lies on every wall, so it witnesses no cone
    da = build(gallery.four_lines())
    cat = catalog("four_lines")
    zeroed = ChamberCatalog(da, [
        Chamber(c.signs, (0,) * da.n if c is cat[0] else c.witness,
                c.class_id) for c in cat])
    bad = verify_catalog(da, zeroed)
    assert not bad["witnesses_ok"] and not bad["ok"]
    assert isinstance(classify_b(da, (0,) * da.n), OnWall)


def test_verify_catalog_on_rational_witnesses():
    # the walk's witnesses are rationals, not integers, and the rows of a
    # rational system are not integers either: both are scaled to integer
    # rows without changing a sign
    da = build(SEEDED["5-2-rational"])
    cat = walk_catalog(da)
    assert any(x.denominator > 1 for c in cat for x in c.witness)
    assert any(x.denominator > 1 for v in da.normals for x in v)
    assert verify_catalog(da, cat)["ok"]
    for c in cat:
        assert classify_b(da, c.witness, cat).class_id == c.class_id


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
    # rational b, as the LP oracle of the region tests walks them
    rng = random.Random(n * 10 + m)
    ns = random_normal_system(n, m, seed=rng.randrange(100), bound=9)
    base = [(0,) * m + (1,)]
    for _ in range(3):
        b = [Fraction(rng.randint(-40, 40), rng.randint(1, 3))
             for _ in range(n)]
        rows = [tuple(a) + (-bi,) for a, bi in zip(ns.rows, b)]
        got = sign_cells(rows, m + 1, base_rows=base)
        assert got == sign_cells_fraction(rows, m + 1, base_rows=base)


def digest(cat):
    data = catalog_to_dict(cat)
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()
                          ).hexdigest()


@pytest.mark.parametrize("name", sorted(CATALOG_SHA256))
def test_catalog_json_digest_is_pinned(name):
    da = build(getattr(gallery, name)())
    assert digest(walk_catalog(da)) == CATALOG_SHA256[name]


@pytest.mark.parametrize("name", sorted(COCIRCUIT_SHA256))
def test_cocircuit_catalog_json_digest_is_pinned(name):
    assert digest(catalog(name)) == COCIRCUIT_SHA256[name]


@pytest.mark.parametrize("name", GALLERY)
def test_cones_match_walk_on_gallery(name):
    # same sign vectors and class ids as the insertion walk
    da = build(getattr(gallery, name)())
    got, want = catalog(name), walk_catalog(da)
    assert [(c.signs, c.class_id) for c in got] == \
        [(c.signs, c.class_id) for c in want]


@pytest.mark.parametrize("label", sorted(SEEDED))
def test_cones_match_walk_on_seeded_systems(label):
    da = build(SEEDED[label])
    got = enumerate_chambers(da)
    assert [c.signs for c in got] == [c.signs for c in walk_catalog(da)]
    assert len(got) == zaslavsky_regions(poset_charpoly(da))


def test_seeded_systems_include_rational_and_non_free_ones():
    assert sum(any(a.denominator > 1 for row in ns.rows for a in row)
               for ns in SEEDED.values()) == 6
    assert sorted(label for label, ns in SEEDED.items()
                  if not is_concurrency_free(ns).free) == ["6-2-scaled",
                                                           "6-3-scaled"]


@pytest.mark.parametrize("name", GALLERY)
def test_witnesses_are_primitive_and_antipodes_negate(name):
    cat = catalog(name)
    for c in cat:
        assert all(x.denominator == 1 for x in c.witness)
        assert math.gcd(*(int(x) for x in c.witness)) == 1
        got = classify_b(cat.da, c.witness)
        assert isinstance(got, Classified) and got.signs == c.signs
        mate = cat.find(opposite_signs(c.signs))
        assert mate.witness == tuple(-x for x in c.witness)


def test_too_large_guard_fires_before_enumeration(monkeypatch):
    def no_cones(rows):
        raise AssertionError("cones made past the guard")

    monkeypatch.setattr(chambers, "_half_cones", no_cones)
    da = build(gallery.five_lines())
    with pytest.raises(TooLarge) as err:
        enumerate_chambers(da, max_chambers=61)
    assert err.value.payload == {"count": 62, "limit": 61}


def test_cone_count_is_certified_by_zaslavsky(monkeypatch):
    # a Zaslavsky number two above the true count is a domain error
    def inflated(da):
        chi = whitney_charpoly(da)
        shift = -2 if chi.degree % 2 else 2
        return CharPolynomial(chi.coefficients[:-1]
                              + (chi.coefficients[-1] + shift,))

    monkeypatch.setattr(chambers, "whitney_charpoly", inflated)
    with pytest.raises(CountMismatch) as err:
        enumerate_chambers(build(gallery.five_lines()))
    assert err.value.payload == {"count": 62, "zaslavsky": 64}


def test_built_arrangement_needs_no_rank(monkeypatch):
    def no_rank(mat):
        raise AssertionError("rank called")

    da = build(gallery.five_lines())
    want = walk_catalog(da)
    monkeypatch.setattr(exact_linalg, "rank", no_rank)
    cat = enumerate_chambers(da)
    assert [c.signs for c in cat] == [c.signs for c in want]
    a = cat[0].signs
    b = adjacency(cat)[a][0]
    assert shared_wall(da, a, b) is not None


def test_truncated_columns_are_the_lex_independent_columns():
    systems = [getattr(gallery, name)() for name in GALLERY]
    systems += list(SEEDED.values())
    systems += [rational_draw(7, 3, 5, 9), rational_draw(7, 4, 6, 2)]
    for ns in systems:
        da = build(ns)
        cols = lex_independent_columns(da.normals, rank(da.normals))
        assert cols == list(range(ns.n - ns.m))
        assert quotient_rows(da) == primitive_int_rows(
            [[row[j] for j in cols] for row in da.normals])


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
