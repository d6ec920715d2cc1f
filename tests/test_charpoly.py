"""Characteristic polynomial golden values, cross-method agreement, and
the structural invariants every discriminantal chi must satisfy.

Oracles: a no-memo subset sum re-derives whitney_charpoly on small cases,
and the literal alternating-sum-over-all-subcollections formula re-derives
combinatorial_charpoly.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, gcd
from operator import mul

import pytest

from arrcensus import (affine_geometry, chambers, charpoly, concurrency,
                       discriminantal, exact_linalg, gallery, normal_system)
from arrcensus.charpoly import (
    CharPolynomial,
    combinatorial_charpoly,
    iso_class_count,
    poset_charpoly,
    rows_charpoly,
    whitney_charpoly,
    zaslavsky_regions,
)
from arrcensus.concurrency import SubsetCollection, combinatorial_rank
from arrcensus.discriminantal import build, da_to_dict, quotient_rows
from arrcensus.errors import OddRegionCount, TooLarge
from arrcensus.exact_linalg import (_direction, _slot_width, flat_levels,
                                    lex_independent_columns, rank)
from arrcensus.normal_system import (first_dependent_subset, ns_from_dict,
                                     random_normal_system, validate)

from oracles import disc_normals, planes_by_pairs, primitive_int_rows


@lru_cache(maxsize=None)
def chi(name):
    ns = getattr(gallery, name)()
    return poset_charpoly(build(ns))


def brute_whitney(normals, n):
    # independent oracle: fresh rank for every one of the 2^N subsets
    N = len(normals)
    acc = [0] * (n + 1)
    for bits in range(1 << N):
        rows = [normals[p] for p in range(N) if bits >> p & 1]
        r = rank(rows) if rows else 0
        acc[n - r] += -1 if bin(bits).count("1") % 2 else 1
    return CharPolynomial([acc[n - i] for i in range(n + 1)])


def lex_cut(normals):
    # the normals cut to their lexicographically first columns of full
    # rank, found by rank with no source system, and made primitive
    cols = lex_independent_columns(normals, rank(normals))
    return primitive_int_rows([[row[j] for j in cols] for row in normals])


def brute_combinatorial(n, m):
    # the literal alternating sum over every subcollection of E
    pool = list(combinations(range(1, n + 1), m + 1))
    acc = [0] * (n + 1)
    for r in range(len(pool) + 1):
        for D in combinations(pool, r):
            col = SubsetCollection(n, m, D)
            acc[n - combinatorial_rank(col)] += -1 if r % 2 else 1
    return CharPolynomial([acc[n - i] for i in range(n + 1)])


def test_four_line_chi_golden():
    p = whitney_charpoly(build(gallery.four_lines()))
    assert p.coefficients == (1, -4, 3, 0, 0)
    assert zaslavsky_regions(p) == 8
    assert iso_class_count(p) == 4
    assert p.factored_str() == "x^2 (x - 1) (x - 3)"


def test_five_line_chi_golden():
    p = whitney_charpoly(build(gallery.five_lines()))
    assert p.coefficients == (1, -10, 30, -21, 0, 0)
    assert zaslavsky_regions(p) == 62
    assert iso_class_count(p) == 31


def test_six_line_chi_golden_by_degeneracy():
    perp = chi("six_lines_perpendicular_pairs")
    assert perp.coefficients == (1, -20, 145, -422, 296, 0, 0)
    assert zaslavsky_regions(perp) == 884

    assert zaslavsky_regions(chi("six_lines_mixed_slopes")) == 888

    free = chi("six_lines_free")
    assert free.coefficients == (1, -20, 145, -426, 300, 0, 0)
    assert zaslavsky_regions(free) == 892
    assert iso_class_count(free) == 446


def test_six_plane_chi_golden():
    chain = chi("six_planes_chain")
    assert chain.coefficients == (1, -15, 65, -51, 0, 0, 0)
    assert zaslavsky_regions(chain) == 132

    free = chi("six_planes_free")
    assert free.coefficients == (1, -15, 69, -55, 0, 0, 0)
    assert zaslavsky_regions(free) == 140


def test_combinatorial_chi_golden():
    assert combinatorial_charpoly(4, 2).coefficients == (1, -4, 3, 0, 0)
    assert combinatorial_charpoly(5, 2).coefficients == (
        1, -10, 30, -21, 0, 0)
    assert combinatorial_charpoly(6, 2).coefficients == (
        1, -20, 145, -426, 300, 0, 0)
    assert combinatorial_charpoly(6, 3).coefficients == (
        1, -15, 69, -55, 0, 0, 0)


def test_whitney_matches_brute_oracle():
    for ns in [gallery.three_lines(), gallery.four_lines()]:
        da = build(ns)
        assert whitney_charpoly(da) == brute_whitney(da.normals, da.n)
    da = build(random_normal_system(5, 2, seed=3, bound=9))
    assert whitney_charpoly(da) == brute_whitney(da.normals, da.n)
    da = build(random_normal_system(5, 3, seed=3, bound=9))
    assert whitney_charpoly(da) == brute_whitney(da.normals, da.n)


def rational_system(n, m, seed):
    # entries p/q with q up to 4, so the walls carry non-integer rationals
    rng = random.Random(seed)
    while True:
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                 for _ in range(m)] for _ in range(n)]
        if first_dependent_subset(rows, m) is None:
            return validate(rows, m)


def test_engines_match_brute_oracle_on_seeded_systems():
    systems = [rational_system(n, m, seed)
               for seed, (n, m) in enumerate([(4, 2), (5, 2), (5, 2),
                                              (5, 3), (5, 4), (6, 4)])]
    systems.append(ns_from_dict({"m": 2, "rows": [
        ["3/2", "1"], ["-1/3", "2"], ["5", "-7/4"], ["1", "1"],
        ["2/9", "-1"]]}))
    # bound 1 forces concurrencies: 132 cones, not the free 140
    systems.append(random_normal_system(6, 3, seed=0, bound=1))
    for ns in systems:
        da = build(ns)
        w = whitney_charpoly(da)
        assert w == poset_charpoly(da) == brute_whitney(da.normals, ns.n), \
            ns.rows
    assert zaslavsky_regions(w) == 132


GALLERY = ["three_lines", "four_lines", "five_lines",
           "six_lines_perpendicular_pairs", "six_lines_mixed_slopes",
           "six_lines_distinct_slopes", "six_lines_free",
           "six_planes_chain", "six_planes_curve", "six_planes_free"]


@pytest.mark.parametrize("name", GALLERY)
def test_whitney_of_loaded_arrangement_equals_built(name):
    # the normals read back from the disc artifact, cut to the columns a
    # rank search finds, carry the polynomial of the built arrangement,
    # whose quotient takes the first n - m columns with no rank
    da = build(getattr(gallery, name)())
    loaded = lex_cut(disc_normals(da_to_dict(da)))
    assert rows_charpoly(loaded, da.n) == whitney_charpoly(da)


HALF = Fraction(1, 2)
LOW_RANK = {
    # rank 1 < n - m = 2: one quotient coordinate, the root has corank 1
    "rank1": (4, [(0, 0, 3, -3), (0, 0, -1, 1), (0, 0, 2, -2)]),
    # rank 2 < 3, a 1/2 entry, a repeated wall and columns 1 and 2 first
    "half": (5, [(0, 1, HALF, 0, 0), (0, 2, 1, 0, 0), (0, 0, 0, 1, -1),
                 (0, 1, HALF, 1, -1), (0, -1, -HALF, 3, -3)]),
    # rank 2 < 4, supported on the last three coordinates only
    "tail": (6, [(0, 0, 0, 1, 1, 0), (0, 0, 0, 0, 1, 1),
                 (0, 0, 0, 1, 2, 1), (0, 0, 0, 1, 0, -1),
                 (0, 0, 0, 2, 2, 0), (0, 0, 0, 0, 3, 3)]),
}


@pytest.mark.parametrize("name", sorted(LOW_RANK))
def test_whitney_on_hand_made_arrangements_of_low_rank(name):
    n, normals = LOW_RANK[name]
    assert rank(normals) < n - 2
    assert rows_charpoly(lex_cut(normals), n) == brute_whitney(normals, n)


def test_whitney_of_a_zero_normal_is_zero():
    # a zero normal lies in every flat, so every subset cancels: chi = 0
    normals = [(1, 1, 0, 0, 0), (0, 0, 0, 0, 0), (0, 1, 1, 0, 0)]
    chi = rows_charpoly(lex_cut(normals), 5)
    assert chi == brute_whitney(normals, 5)
    assert chi.coefficients == (0,) * 6


def test_whitney_equals_poset_on_seeded_sweep():
    # every shape with n <= 7 and m = 2..6, at bounds 2 (many forced
    # concurrencies) and 9; (7, 2) only once, its poset crawl takes ~3 s
    for n in range(3, 8):
        for m in range(2, min(n, 7)):
            for bound in (2, 9):
                if (n, m, bound) == (7, 2, 9):
                    continue
                ns = random_normal_system(n, m, seed=10 * n + m, bound=bound)
                da = build(ns)
                assert whitney_charpoly(da) == poset_charpoly(da), \
                    (n, m, bound)


def test_whitney_on_built_arrangement_calls_no_rank(monkeypatch):
    def no_rank(mat):
        raise AssertionError("rank called")

    for mod in (affine_geometry, chambers, charpoly, concurrency,
                discriminantal, exact_linalg, normal_system):
        if hasattr(mod, "rank"):
            monkeypatch.setattr(mod, "rank", no_rank)
    names = ["six_lines_free", "six_planes_chain"]
    got = [whitney_charpoly(build(getattr(gallery, name)()))
           for name in names]
    monkeypatch.undo()
    assert got == [chi(name) for name in names]


def test_combinatorial_matches_brute_oracle():
    assert combinatorial_charpoly(4, 2) == brute_combinatorial(4, 2)
    assert combinatorial_charpoly(4, 3) == brute_combinatorial(4, 3)
    assert combinatorial_charpoly(5, 2) == brute_combinatorial(5, 2)


def test_combinatorial_chi_at_m1_is_the_braid_polynomial():
    # shape (n, 1) is the braid arrangement: chi = x(x - 1)...(x - n + 1)
    for n in range(2, 7):
        coeffs = [1]
        for k in range(n):
            coeffs = [a - k * b for a, b in zip(coeffs + [0], [0] + coeffs)]
        assert combinatorial_charpoly(n, 1).coefficients == tuple(coeffs)


def test_combinatorial_chi_with_m_close_to_n_is_immediate():
    # C(n, m+1) is small here although 2^n is not: the walk must list
    # only the index sets of size >= m+1.  (n, n-1) has the one family
    # {[n]}; (n, n-2) adds the n sets of size n-1 below it.
    assert combinatorial_charpoly(40, 39).coefficients == (1, -1) + (0,) * 39
    for n in (30, 36):
        assert combinatorial_charpoly(n, n - 2).coefficients == \
            (1, -n, n - 1) + (0,) * (n - 2)


def test_whitney_equals_poset_everywhere_both_run():
    for name in ["four_lines", "five_lines", "six_lines_perpendicular_pairs",
                 "six_lines_mixed_slopes", "six_lines_free",
                 "six_planes_chain", "six_planes_free"]:
        da = build(getattr(gallery, name)())
        assert whitney_charpoly(da) == chi(name), name
    rng = random.Random(55)
    for _ in range(4):
        n = rng.choice([4, 5])
        m = rng.choice([2, 3])
        if n <= m:
            continue
        da = build(random_normal_system(n, m, seed=rng.randint(0, 999),
                                        bound=9))
        assert whitney_charpoly(da) == poset_charpoly(da)


def test_combinatorial_equals_poset_on_free_systems():
    for name, (n, m) in [("four_lines", (4, 2)), ("five_lines", (5, 2)),
                         ("six_lines_free", (6, 2)),
                         ("six_planes_free", (6, 3))]:
        assert chi(name) == combinatorial_charpoly(n, m)


CHI_CASES = [("four_lines", 2), ("five_lines", 2),
             ("six_lines_perpendicular_pairs", 2),
             ("six_lines_mixed_slopes", 2), ("six_lines_free", 2),
             ("six_planes_chain", 3), ("six_planes_free", 3)]


@pytest.mark.parametrize("name,m", CHI_CASES)
def test_structural_invariants_of_every_chi(name, m):
    p = chi(name)
    coeffs = p.coefficients
    assert coeffs[0] == 1  # monic
    # trailing zeros form one block; the rest alternate strictly in sign
    nonzero = [c for c in coeffs if c != 0]
    tail = coeffs[len(nonzero):]
    assert all(c == 0 for c in tail)
    for a, b in zip(nonzero, nonzero[1:]):
        assert a * b < 0
    # x^m (x - 1) divides chi
    assert all(c == 0 for c in coeffs[-m:])
    assert p(1) == 0


def test_leading_terms_count_hyperplanes():
    for name, size in [("four_lines", comb(4, 3)),
                       ("five_lines", comb(5, 3)),
                       ("six_lines_free", comb(6, 3)),
                       ("six_planes_free", comb(6, 4))]:
        p = chi(name)
        assert p.coefficients[0] == 1
        assert p.coefficients[1] == -size


def test_zaslavsky_handles_odd_degree():
    # chi of a single line in the plane: x^2 - x -> 2 regions
    p = CharPolynomial([1, -1, 0])
    assert zaslavsky_regions(p) == 2
    # cubic: chi = x^3 - x^2 evaluates at -1 to -2; regions = 2
    assert zaslavsky_regions(CharPolynomial([1, -1, 0, 0])) == 2


def test_iso_class_count_rejects_odd():
    with pytest.raises(OddRegionCount):
        iso_class_count(CharPolynomial([1, -2]))  # p(-1) = -3, odd


def test_whitney_too_large_guard():
    # 56 rows and more than 200000 flats: trips the default flat budget
    da = build(random_normal_system(8, 2, seed=1, bound=9))
    with pytest.raises(TooLarge):
        whitney_charpoly(da)


def test_whitney_flat_guard(monkeypatch):
    import arrcensus.charpoly as mod
    da = build(gallery.four_lines())  # 6 flats: {0}, 4 walls, the top
    monkeypatch.setattr(mod, "FLAT_LIMIT", 6)
    assert whitney_charpoly(da).coefficients == (1, -4, 3, 0, 0)
    monkeypatch.setattr(mod, "FLAT_LIMIT", 3)
    with pytest.raises(TooLarge):
        whitney_charpoly(da)


def test_whitney_flat_state_count(monkeypatch):
    # the memo holds the root and the 4 walls of four_lines: the walls
    # have corank 1 and are closed at once, the top is never stored, and
    # FLAT_LIMIT bounds what the memo holds
    import arrcensus.charpoly as mod
    da = build(gallery.four_lines())
    monkeypatch.setattr(mod, "FLAT_LIMIT", 5)
    assert whitney_charpoly(da).coefficients == (1, -4, 3, 0, 0)
    monkeypatch.setattr(mod, "FLAT_LIMIT", 4)
    with pytest.raises(TooLarge):
        whitney_charpoly(da)


def flats_below_top(da):
    # every flat of the quotient rows but the top, counted by the crawl
    return sum(map(len, list(flat_levels(quotient_rows(da)))[:-1]))


@pytest.mark.parametrize("name,k,below", [("five_lines", 3, 31),
                                          ("six_lines_free", 4, 322)])
def test_whitney_guard_counts_the_flats_below_the_top(monkeypatch, name, k,
                                                      below):
    # the memo (corank 2 and more) and the set of corank-1 masks together
    # hold every flat below the top, so FLAT_LIMIT at that count passes
    # and one less raises
    import arrcensus.charpoly as mod
    da = build(getattr(gallery, name)())
    assert da.n - da.m == k and flats_below_top(da) == below
    expected = chi(name)
    monkeypatch.setattr(mod, "FLAT_LIMIT", below)
    assert whitney_charpoly(da) == expected
    monkeypatch.setattr(mod, "FLAT_LIMIT", below - 1)
    with pytest.raises(TooLarge):
        whitney_charpoly(da)


def test_whitney_runs_on_the_packed_kernel_alone():
    # rows_charpoly takes no echelon residual and no echelon insert: its
    # flats are masks of the packed rows
    das = [build(getattr(gallery, name)()) for name in GALLERY]
    das += [build(random_normal_system(n, m, seed=n * m, bound=bound))
            for n, m in [(5, 2), (6, 2), (6, 3), (7, 3), (7, 4)]
            for bound in (2, 9)]
    expected = [poset_charpoly(da) for da in das]
    assert not hasattr(charpoly, "echelon_residual")
    assert not hasattr(charpoly, "echelon_insert")
    assert [whitney_charpoly(da) for da in das] == expected


def refuse_packed_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("packed kernel called")

    for name in ("_pack", "_pivot", "_zero_slots"):
        monkeypatch.setattr(charpoly, name, refuse)


def test_whitney_counts_quotients_of_rank_at_most_three(monkeypatch):
    # n - m <= 3: chi is counted from lines and planes, so the packed
    # kernel is never called; the six-line gallery systems (k = 4) do call
    # it, which shows the patch is live
    das = [build(random_normal_system(n, m, seed=n * m, bound=bound))
           for n in range(3, 9) for m in range(max(2, n - 3), n)
           for bound in (2, 9)]
    gallery_das = [build(getattr(gallery, name)()) for name in GALLERY]
    das += [da for da in gallery_das if da.n - da.m <= 3]
    deep = [da for da in gallery_das if da.n - da.m > 3]
    assert len(das) == 15 * 2 + 6
    assert [da.n - da.m for da in deep] == [4] * 4
    expected = [poset_charpoly(da) for da in das]
    refuse_packed_kernel(monkeypatch)
    assert [whitney_charpoly(da) for da in das] == expected
    for da in deep:
        with pytest.raises(AssertionError, match="packed kernel"):
            whitney_charpoly(da)


LOW_RANK_ROWS = {
    # rank 1: a repeated and a negated row
    "one": [(3,), (-2,), (5,), (3,)],
    # rank 2: parallel and negated rows of (1, 2), and the axes
    "two": [(1, 2), (-2, -4), (3, 6), (0, 1), (1, 0), (2, -1), (-1, 1),
            (0, -5)],
    # rank 3: five lines in the plane z = 0, one of them twice, and four
    # off it, one of them twice
    "three": [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0), (2, 1, 0),
              (-3, -3, 0), (0, 0, 1), (1, 1, 1), (-2, -2, -2), (1, 0, -1),
              (0, 2, 3)],
}


# rank 3, in an order that puts a line j = (x, y, z) of each kind of the
# plane pass after earlier lines: x != 0, x = 0 != y and x = y = 0 (the
# z axis, written (0, 0, -4)), each with earlier lines in and off its
# planes
BRANCH_ROWS = [(1, 2, 3), (2, -1, 1), (0, 1, 0), (0, 3, -2), (1, 1, 0),
               (0, 0, -4), (3, 0, 1), (0, 2, 1), (-1, 0, 0), (0, 1, 1),
               (2, 4, 6), (1, -1, 2)]


def k3_rows():
    """Rank-3 rows: the quotient rows of the gallery systems with
    n - m = 3 and of seeded integer and rational sweeps, the repeated
    lines of LOW_RANK_ROWS["three"] and BRANCH_ROWS."""
    das = [build(getattr(gallery, name)()) for name in GALLERY]
    for n, m in [(5, 2), (6, 3), (7, 4), (8, 5)]:
        for seed in range(3):
            das += [build(random_normal_system(n, m, seed=seed, bound=bound))
                    for bound in (2, 9)]
            das.append(build(rational_system(n, m, seed)))
    out = [quotient_rows(da) for da in das if da.n - da.m == 3]
    return out + [LOW_RANK_ROWS["three"], BRANCH_ROWS]


def plane_pass(monkeypatch, rows):
    # _counted at k = 3, with what it held: the first hold is 1 + L, one
    # more per line, and the last 1 + L + P
    held = []
    real = charpoly._hold

    def hold(flats):
        held.append(flats)
        real(flats)

    monkeypatch.setattr(charpoly, "_hold", hold)
    got = charpoly._counted(rows, 3)
    monkeypatch.setattr(charpoly, "_hold", real)
    return got, held


def test_plane_pass_matches_the_pair_oracle(monkeypatch):
    # chi and P of the per-line pass are those of the pass over the
    # C(L, 2) pairs of lines, P is the plane level of the flat crawl, and
    # the budget is held once before the pass and once per line
    cases = k3_rows()
    assert len(cases) == 4 + 4 * 3 * 3 + 2
    for rows in cases:
        got, held = plane_pass(monkeypatch, rows)
        L = held[0] - 1
        P = held[-1] - 1 - L
        assert (got, P) == planes_by_pairs(rows), rows
        assert P == len(list(flat_levels(rows))[2])
        assert len(held) == 1 + L and held == sorted(held)
        assert rows_charpoly(rows, 3).coefficients == tuple(got[::-1])


def test_branch_rows_reach_each_projection():
    # in row order each kind of line of the plane pass has earlier lines
    lines = list(dict.fromkeys(map(_direction, BRANCH_ROWS)))
    kinds = [0 if x else 1 if y else 2 for x, y, z in lines]
    assert kinds[0] == 0 and set(kinds[1:]) == {0, 1, 2}


@pytest.mark.parametrize("name", sorted(LOW_RANK_ROWS))
def test_counted_chi_matches_brute_oracle(monkeypatch, name):
    rows = LOW_RANK_ROWS[name]
    k = len(rows[0])
    assert rank(rows) == k
    refuse_packed_kernel(monkeypatch)
    for n in (k, k + 2):
        padded = [row + (0,) * (n - k) for row in rows]
        assert rows_charpoly(rows, n) == brute_whitney(padded, n), n


@pytest.mark.parametrize("name,lines,planes", [("five_lines", 10, 20),
                                               ("six_planes_free", 15, 51),
                                               ("six_planes_chain", 15, 43)])
def test_counted_flats_are_the_flats_below_the_top(monkeypatch, name, lines,
                                                   planes):
    # at k = 3 the flats below the top are the origin, the L lines and
    # the P planes; FLAT_LIMIT at 1 + L + P passes and one less raises
    import arrcensus.charpoly as mod
    da = build(getattr(gallery, name)())
    assert da.n - da.m == 3
    assert [len(level) for level in flat_levels(quotient_rows(da))] == \
        [1, lines, planes, 1]
    assert flats_below_top(da) == 1 + lines + planes
    monkeypatch.setattr(mod, "FLAT_LIMIT", 1 + lines + planes)
    assert whitney_charpoly(da) == chi(name)
    monkeypatch.setattr(mod, "FLAT_LIMIT", lines + planes)
    with pytest.raises(TooLarge):
        whitney_charpoly(da)


@pytest.mark.parametrize("rows,n,below", [
    # k = 3 with repeated rows: 9 lines; the plane z = 0 holds 5 of them,
    # 4 planes hold 3 and 14 planes hold 2
    (LOW_RANK_ROWS["three"], 3, 1 + 9 + 1 + 4 + 14),
    # LOW_RANK "half", k = 2 with a repeated wall: 4 lines
    (lex_cut(LOW_RANK["half"][1]), 5, 1 + 4)])
def test_flat_budget_counts_distinct_lines_and_planes(monkeypatch, rows, n,
                                                      below):
    import arrcensus.charpoly as mod
    assert sum(map(len, list(flat_levels(rows))[:-1])) == below
    expected = rows_charpoly(rows, n)
    monkeypatch.setattr(mod, "FLAT_LIMIT", below)
    assert rows_charpoly(rows, n) == expected
    monkeypatch.setattr(mod, "FLAT_LIMIT", below - 1)
    with pytest.raises(TooLarge):
        rows_charpoly(rows, n)


def recursion_vectors(monkeypatch):
    """Patch _pivot and _zero_slots in charpoly to record every
    annihilator vector the recursion reads or makes; returns the list it
    fills (the inline vectors of corank-2 flats reach _zero_slots)."""
    seen = []
    pivot, zero_slots = charpoly._pivot, charpoly._zero_slots

    def recording_pivot(zs, r):
        out = pivot(zs, r)
        seen.extend(zs + out)
        return out

    def recording_zero_slots(z, *args):
        seen.append(tuple(z))
        return zero_slots(z, *args)

    monkeypatch.setattr(charpoly, "_pivot", recording_pivot)
    monkeypatch.setattr(charpoly, "_zero_slots", recording_zero_slots)
    return seen


def assert_recursion_dots_fit(seen, da):
    # every vector is primitive and its dot with every row fits a slot
    # with room to spare, the bound that keeps one slot from carrying
    # into the next
    seen.clear()
    rows = quotient_rows(da)
    rows_charpoly(rows, da.n)
    k = len(rows[0])
    units = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    vectors = set(seen + units)
    assert len(vectors) > k or k < 4
    assert all(gcd(*z) == 1 for z in vectors), da.normals
    top = max(abs(sum(map(mul, z, r))) for z in vectors for r in rows)
    assert top < 1 << _slot_width(rows) - 2, da.normals


SWEEP = [(n, m) for n in range(3, 8) for m in range(2, min(n, 6))]


@pytest.mark.parametrize("n,m", SWEEP)
def test_recursion_slots_hold_every_dot(monkeypatch, n, m):
    seen = recursion_vectors(monkeypatch)
    for bound in (2, 9, 1000, 10**6):
        assert_recursion_dots_fit(
            seen, build(random_normal_system(n, m, seed=1, bound=bound)))


def test_recursion_slots_hold_every_dot_on_rational_systems(monkeypatch):
    seen = recursion_vectors(monkeypatch)
    for seed, (n, m) in enumerate([(5, 2), (6, 2), (6, 3), (7, 4), (7, 3),
                                   (6, 4)]):
        assert_recursion_dots_fit(seen, build(rational_system(n, m, seed)))


@pytest.mark.parametrize("bound", [1000, 10**6])
def test_whitney_equals_poset_at_large_entries(bound):
    # wide slots: entries up to 10^6 make minors of 30 bits and more
    for n, m in SWEEP:
        if (n, m) == (7, 2):
            continue  # its poset crawl takes seconds
        da = build(random_normal_system(n, m, seed=2, bound=bound))
        assert whitney_charpoly(da) == poset_charpoly(da), (n, m, bound)


def test_whitney_work_counts(monkeypatch):
    # six_lines_free, k = 4: the root and the 20 flats of rank 1 have
    # corank 4 and 3 and take one pivot per cover, 20 + 145; a cover takes
    # one packed product per vector it carries, 3, 2 or 1, 710 in all.
    # The memo holds the 1 + 20 + 115 flats of corank 2 and more, and the
    # 186 flats of corank 1 are only counted.
    counts = dict.fromkeys(["pivots", "products"], 0)
    made = set()  # row masks of the flats the pivots make
    pivot, zero_slots = charpoly._pivot, charpoly._zero_slots
    da = build(gallery.six_lines_free())
    rows = quotient_rows(da)

    def counting_pivot(zs, r):
        counts["pivots"] += 1
        out = pivot(zs, r)
        made.add(sum(1 << q for q, row in enumerate(rows)
                     if not any(sum(map(mul, z, row)) for z in out)))
        return out

    def counting_zero_slots(*args):
        counts["products"] += 1
        return zero_slots(*args)

    monkeypatch.setattr(charpoly, "_pivot", counting_pivot)
    monkeypatch.setattr(charpoly, "_zero_slots", counting_zero_slots)
    assert whitney_charpoly(da) == chi("six_lines_free")
    assert counts == {"pivots": 165, "products": 710}
    levels = [len(level) for level in flat_levels(rows)]
    assert levels == [1, 20, 115, 186, 1]
    assert 1 + len(made) == 136 == sum(levels[:3])


def test_poset_flat_guard(monkeypatch):
    import arrcensus.charpoly as mod
    monkeypatch.setattr(mod, "FLAT_LIMIT", 3)
    with pytest.raises(TooLarge):
        poset_charpoly(build(gallery.four_lines()))


def test_polynomial_basics():
    p = CharPolynomial([1, -4, 3, 0, 0])
    assert p.degree == 4
    assert p(0) == 0 and p(1) == 0 and p(3) == 0
    assert p(-1) == 8
    assert p == CharPolynomial((1, -4, 3, 0, 0))
    assert "x^4" in repr(p)
    assert CharPolynomial([1, 0, -1]).as_str() == "x^2 - 1"


def test_zero_polynomial_prints_as_zero():
    # a zero row makes chi the zero polynomial of degree n
    zero = rows_charpoly([(1, 0, 0), (0, 0, 0), (0, 1, 1)], 3)
    assert zero == CharPolynomial((0, 0, 0, 0))
    for p in (zero, CharPolynomial((0, 0, 0)), CharPolynomial((0,))):
        assert p.as_str() == p.factored_str() == "0"
