"""Tests for normal system validation, generation, and serialization."""

import random
import re
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrcensus import gallery, normal_system
from arrcensus.errors import (ArrangementError, BadShape, DependentRows,
                              LengthMismatch)
from arrcensus.exact_linalg import determinant, rank
from arrcensus.normal_system import (
    Arrangement,
    NormalSystem,
    arrangement_from_b,
    first_dependent_subset,
    ns_from_dict,
    ns_to_dict,
    random_normal_system,
    validate,
)

from oracles import ns_by_parse_rational

# a plain integer entry "p": ASCII digits after an optional minus sign
PLAIN = re.compile(r"-?[0-9]+").fullmatch

SIX_LINES = [(1, 0), (2, 3), (3, 2), (0, 1), (3, -2), (2, -3)]
SIX_PLANES = [(1, 0, 0), (0, 1, 0), (0, 0, 1),
              (2, 2, 1), (2, 3, 2), (1, 2, 2)]


def test_validate_accepts_six_line_gallery_system():
    ns = validate(SIX_LINES, 2)
    assert ns.n == 6 and ns.m == 2
    assert ns.rows[1] == (2, 3)


def test_validate_accepts_six_plane_gallery_system():
    ns = validate(SIX_PLANES, 3)
    assert ns.n == 6 and ns.m == 3


def test_validate_rejects_proportional_rows():
    with pytest.raises(DependentRows) as exc:
        validate([(1, 0), (2, 0), (0, 1)], 2)
    assert exc.value.payload["subset"] == [1, 2]


def test_validate_reports_lex_first_dependence():
    # rows 2,4 proportional and rows 3,5 proportional; {2,4} sorts first
    rows = [(1, 0), (0, 1), (1, 1), (0, 2), (3, 3)]
    with pytest.raises(DependentRows) as exc:
        validate(rows, 2)
    assert exc.value.payload["subset"] == [2, 4]


def test_validate_zero_row_reported_inside_lex_first_pair():
    # {1,2} sorts before the singleton {2}, so the pair is reported
    with pytest.raises(DependentRows) as exc:
        validate([(1, 0), (0, 0), (0, 1)], 2)
    assert exc.value.payload["subset"] == [1, 2]


def test_validate_shape_errors():
    with pytest.raises(BadShape):
        validate([(1, 0), (0, 1)], 2)  # n <= m
    with pytest.raises(BadShape):
        validate([(1,), (2,), (3,)], 1)  # m <= 1
    with pytest.raises(BadShape):
        validate([(1, 0), (0, 1, 5), (1, 1)], 2)  # ragged row


def test_accepted_system_has_all_maximal_minors_nonzero():
    # the invariant behind acceptance: every m x m row-submatrix invertible
    for rows, m in [(SIX_LINES, 2), (SIX_PLANES, 3)]:
        ns = validate(rows, m)
        for sub in combinations(range(ns.n), m):
            assert determinant([ns.rows[i] for i in sub]) != 0


def test_first_dependent_subset_order_is_lexicographic():
    rows = [(0, 0), (1, 0), (2, 0)]
    assert first_dependent_subset(rows, 2) == (1,)


def rank_search_oracle(rows, m):
    """First dependent subset by one exact rank per subset, in sorted
    tuple order."""
    subsets = []
    for k in range(1, m + 1):
        subsets.extend(combinations(range(1, len(rows) + 1), k))
    for sub in sorted(subsets):
        if rank([rows[i - 1] for i in sub]) < len(sub):
            return sub
    return None


def test_first_dependent_subset_matches_rank_oracle():
    rng = random.Random(29)
    dependent = 0
    for _ in range(600):
        m = rng.randint(2, 4)
        n = rng.randint(m + 1, 7)
        bound = rng.randint(1, 3)
        rows = [[Fraction(rng.randint(-bound, bound), rng.choice((1, 2, 3)))
                 for _ in range(m)] for _ in range(n)]
        expected = rank_search_oracle(rows, m)
        assert first_dependent_subset(rows, m) == expected, (rows, m)
        if expected is None:
            assert validate(rows, m).rows == tuple(map(tuple, rows))
        else:
            with pytest.raises(DependentRows) as exc:
                validate(rows, m)
            assert exc.value.payload["subset"] == list(expected)
        dependent += expected is not None
    assert 100 < dependent < 500  # both outcomes are exercised


def test_minor_table_is_every_maximal_minor():
    # each entry is the minor of the scaled rows: over the product of
    # the scales it is the determinant of the Fraction rows
    rng = random.Random(17)
    systems = [validate(SIX_LINES, 2), validate(SIX_PLANES, 3)]
    for m in range(2, 6):
        for n in range(m + 1, 8):
            systems.append(random_normal_system(n, m, seed=n * m, bound=5))
            rows = [[Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
                     for _ in range(m)] for _ in range(n)]
            systems.append(NormalSystem(rows, m))  # zero minors included
    for ns in systems:
        assert len(ns.minors) == len(list(combinations(range(ns.n), ns.m)))
        for sub in combinations(range(ns.n), ns.m):
            mask = sum(1 << i for i in sub)
            scale = prod(ns.scales[i] for i in sub)
            assert Fraction(ns.minors[mask], scale) == \
                determinant([ns.rows[i] for i in sub])


def test_valid_system_is_accepted_without_the_walk(monkeypatch):
    def no_walk(zs, r):
        raise AssertionError("_pivot called")

    monkeypatch.setattr(normal_system, "_pivot", no_walk)
    for rows, m in [(SIX_LINES, 2), (SIX_PLANES, 3)]:
        assert validate(rows, m).n == len(rows)
    for seed in range(20):
        ns = random_normal_system(7, 3, seed=seed, bound=2)
        assert validate(ns.rows, 3) == ns


def test_random_normal_system_deterministic():
    a = random_normal_system(4, 2, seed=7, bound=9)
    b = random_normal_system(4, 2, seed=7, bound=9)
    assert a == b
    assert a.rejections == b.rejections
    assert validate(a.rows, a.m) == a


def test_random_normal_system_keeps_the_walk_acceptance():
    # the minor table accepts exactly the draws the dependent-subset walk
    # accepts, so the seeded output and the rejection counts are the same
    for n, m, seed, bound in [(4, 2, 3, 1), (6, 3, 5, 1), (7, 4, 8, 2),
                              (6, 5, 1, 2), (7, 2, 9, 2)]:
        rng = random.Random(seed)
        for attempt in range(10000):
            rows = [[Fraction(rng.randint(-bound, bound)) for _ in range(m)]
                    for _ in range(n)]
            if first_dependent_subset(rows, m) is None:
                break
        ns = random_normal_system(n, m, seed=seed, bound=bound)
        assert ns.rows == tuple(map(tuple, rows))
        assert ns.rejections == attempt


def test_random_normal_system_seed_changes_output():
    a = random_normal_system(5, 2, seed=1, bound=9)
    b = random_normal_system(5, 2, seed=2, bound=9)
    assert a != b


def test_random_normal_system_shape_errors():
    with pytest.raises(BadShape):
        random_normal_system(3, 3, seed=0, bound=5)
    with pytest.raises(BadShape):
        random_normal_system(4, 2, seed=0, bound=0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(3, 6), m=st.integers(2, 3))
def test_random_normal_system_always_validates(seed, n, m):
    if n <= m:
        n = m + 1
    ns = random_normal_system(n, m, seed=seed, bound=9)
    assert validate(ns.rows, m) == ns


def test_arrangement_from_b_round_trip():
    ns = validate(SIX_LINES, 2)
    arr = arrangement_from_b(ns, [0, -2, 3, 0, 5, 5])
    assert arr.b == (0, -2, 3, 0, 5, 5)
    with pytest.raises(LengthMismatch):
        arrangement_from_b(ns, [1, 2, 3])


def entry_types(rows):
    return {type(a) for row in rows for a in row}


def test_integer_entries_stay_ints():
    # a system, or a b, of ints keeps its ints; one other entry makes
    # every entry a Fraction; the two forms of one matrix are equal, hash
    # alike and are written alike
    ints = validate(SIX_LINES, 2)
    assert entry_types(ints.rows) == {int}
    assert entry_types(NormalSystem(SIX_PLANES, 3).rows) == {int}
    assert entry_types(random_normal_system(6, 3, seed=1, bound=9).rows) \
        == {int}
    mixed = validate([SIX_LINES[0], (Fraction(4, 2), 3)] + SIX_LINES[2:], 2)
    assert entry_types(mixed.rows) == {Fraction}
    assert mixed == ints and hash(mixed) == hash(ints)
    assert ns_to_dict(mixed) == ns_to_dict(ints)
    assert (ints.scales, ints.minors) == (mixed.scales, mixed.minors)
    b = [0, -2, 3, 0, 5, 5]
    arr = arrangement_from_b(ints, b)
    assert entry_types([arr.b]) == {int}
    other = arrangement_from_b(ints, b[:-1] + [Fraction(10, 2)])
    assert entry_types([other.b]) == {Fraction} and other == arr
    assert entry_types([Arrangement(ints, ["1/2"] * 6).b]) == {Fraction}


def test_json_round_trip_exact():
    ns = validate([(Fraction(1, 2), Fraction(-3)), (2, 3), (0, 1)], 2)
    d = ns_to_dict(ns)
    assert d["m"] == 2 and d["rows"][0] == ["1/2", "-3"]
    assert ns_from_dict(d) == ns


def test_rejection_sampling_eventually_gives_up():
    # force validation failure on every draw by monkeypatching randint
    class RiggedRandom(random.Random):
        def randint(self, a, b):
            return 0

    import arrcensus.normal_system as mod
    orig = mod.random.Random
    mod.random.Random = RiggedRandom
    try:
        from arrcensus.errors import GivesUp
        with pytest.raises(GivesUp):
            random_normal_system(4, 2, seed=0, bound=3, max_attempts=25)
    finally:
        mod.random.Random = orig


def test_equality_and_hash_follow_content():
    a = validate(SIX_LINES, 2)
    b = validate([tuple(Fraction(x) for x in row) for row in SIX_LINES], 2)
    assert a == b and hash(a) == hash(b)
    assert a != validate(SIX_PLANES, 3)


# entries outside the plain-integer form, left to parse_rational
_ODD_ENTRIES = ["1/2", "3/6", "+3", " 4", "1_0", "\u0661", "1/0", "x", "",
                "007", "-0", 7, 2.5, True, None]


@st.composite
def damaged_gallery_systems(draw):
    """A gallery system as JSON data, with up to three faults."""
    name = draw(st.sampled_from(["four_lines", "five_lines",
                                 "six_lines_free", "six_planes_free"]))
    doc = ns_to_dict(getattr(gallery, name)())
    m, rows = doc["m"], doc["rows"]
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["entry", "entry", "dependent",
                                      "width", "short", "m"]))
        i = draw(st.integers(0, len(rows) - 1))
        if fault == "entry" and rows[i]:
            j = draw(st.integers(0, len(rows[i]) - 1))
            rows[i][j] = draw(st.sampled_from(_ODD_ENTRIES))
        elif fault == "dependent":
            # another row times 2, written as plain integers
            k = draw(st.integers(0, len(rows) - 1))
            rows[i] = [str(2 * int(a)) if isinstance(a, str)
                       and a.lstrip("-").isdigit() else a for a in rows[k]]
        elif fault == "width" and rows[i]:
            rows[i].pop()
        elif fault == "short":
            del rows[m:]
        elif fault == "m":
            doc["m"] = draw(st.sampled_from([1, 4, True, 2.5]))
    return doc


def _load_outcome(load, doc):
    try:
        ns = load(doc)
    except ArrangementError as err:
        return type(err), err.as_dict()
    return ns.m, ns.rows, ns.scales, ns.minors


@settings(max_examples=300, deadline=None)
@given(doc=damaged_gallery_systems())
@example(doc={"m": 2, "rows": [["1", "2"], ["3", "4"], ["2", "4"]]})
@example(doc={"m": 2, "rows": [["1", "2"], ["3", "4/1"], ["2", "5"]]})
def test_ns_from_dict_matches_the_parse_rational_oracle(doc):
    # plain integer entries, read by int and validated from ints, give the
    # system, or the error, that Fraction entries give; its entries are
    # ints when every one is written "p", and Fractions otherwise
    got = _load_outcome(ns_from_dict, doc)
    assert got == _load_outcome(ns_by_parse_rational, doc)
    if type(got[0]) is int:
        plain = all(type(a) is str and PLAIN(a)
                    for row in doc["rows"] for a in row)
        assert {type(a) for row in got[1] for a in row} == \
            {int if plain else Fraction}
