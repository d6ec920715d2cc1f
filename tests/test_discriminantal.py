"""Golden and property tests for discriminantal arrangement construction.

The 20-row golden table below is the full published equation list for the
six-line perpendicular-pairs system, transcribed coefficient by
coefficient; build() must reproduce it bit-exactly.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy

from arrcensus import gallery
from arrcensus import discriminantal, exact_linalg
from arrcensus.charpoly import whitney_charpoly
from arrcensus.discriminantal import (DiscriminantalArrangement,
                                      _wall_values, build, da_to_dict,
                                      quotient_rows)
from arrcensus.errors import BadSubsetSize, DependentRows
from arrcensus.exact_linalg import _int_row
from arrcensus.normal_system import (NormalSystem, random_normal_system,
                                     validate)

from oracles import (brute_build, build_by_minors, common_intersection_dim,
                     disc_normals, dot, matvec, primitive_int_rows,
                     quotient_by_cut, subset_rank)

GOLDEN_SIX_LINE_NORMALS = {
    (1, 2, 3): (-5, -2, 3, 0, 0, 0),
    (1, 2, 4): (2, -1, 0, 3, 0, 0),
    (1, 2, 5): (-13, 2, 0, 0, 3, 0),
    (1, 2, 6): (-12, 3, 0, 0, 0, 3),
    (1, 3, 4): (3, 0, -1, 2, 0, 0),
    (1, 3, 5): (-12, 0, 2, 0, 2, 0),
    (1, 3, 6): (-13, 0, 3, 0, 0, 2),
    (1, 4, 5): (-3, 0, 0, 2, 1, 0),
    (1, 4, 6): (-2, 0, 0, 3, 0, 1),
    (1, 5, 6): (-5, 0, 0, 0, 3, -2),
    (2, 3, 4): (0, 3, -2, -5, 0, 0),
    (2, 3, 5): (0, -12, 13, 0, -5, 0),
    (2, 3, 6): (0, -13, 12, 0, 0, -5),
    (2, 4, 5): (0, -3, 0, 13, 2, 0),
    (2, 4, 6): (0, -2, 0, 12, 0, 2),
    (2, 5, 6): (0, -5, 0, 0, 12, -13),
    (3, 4, 5): (0, 0, -3, 12, 3, 0),
    (3, 4, 6): (0, 0, -2, 13, 0, 3),
    (3, 5, 6): (0, 0, -5, 0, 13, -12),
    (4, 5, 6): (0, 0, 0, -5, 2, -3),
}

GALLERY_SYSTEMS = ("three_lines", "four_lines", "five_lines",
                   "six_lines_perpendicular_pairs", "six_lines_mixed_slopes",
                   "six_lines_distinct_slopes", "six_lines_free",
                   "six_planes_chain", "six_planes_curve", "six_planes_free")

ALTITUDE_QUADRUPLE = [(1, 2, 6), (1, 3, 5), (2, 3, 4), (4, 5, 6)]


def test_build_matches_published_equations_exactly():
    da = build(gallery.six_lines_perpendicular_pairs())
    assert len(da.subsets) == 20
    for s, v in GOLDEN_SIX_LINE_NORMALS.items():
        assert da.normal_of(s) == tuple(Fraction(x) for x in v), s


def test_subsets_listed_in_lexicographic_order():
    da = build(gallery.four_lines())
    assert da.subsets == tuple(combinations(range(1, 5), 3))


def test_normal_support_equals_subset():
    rng = random.Random(11)
    for _ in range(6):
        n = rng.randint(4, 6)
        m = rng.randint(2, min(3, n - 1))
        ns = random_normal_system(n, m, seed=rng.randint(0, 9999), bound=7)
        da = build(ns)
        for s, v in zip(da.subsets, da.normals):
            support = tuple(i + 1 for i, x in enumerate(v) if x != 0)
            assert support == s


def test_normals_pairwise_non_proportional():
    da = build(gallery.six_lines_perpendicular_pairs())
    seen = set()
    for v in da.normals:
        lead = next(x for x in v if x != 0)
        canon = tuple(x / lead for x in v)
        assert canon not in seen
        seen.add(canon)


def test_common_intersection_dim_golden():
    assert common_intersection_dim(build(gallery.four_lines())) == 2
    assert common_intersection_dim(
        build(gallery.six_lines_perpendicular_pairs())) == 2
    assert common_intersection_dim(build(gallery.six_planes_chain())) == 3


def test_common_intersection_contains_point_locus():
    # b produced by evaluating all lines at one point lies on every
    # hyperplane: all n lines concur there, so every subset does
    rng = random.Random(23)
    for _ in range(5):
        ns = random_normal_system(5, 2, seed=rng.randint(0, 9999), bound=9)
        da = build(ns)
        p = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             for _ in range(ns.m)]
        b = matvec(ns.rows, p)
        for v in da.normals:
            assert sum(x * y for x, y in zip(v, b)) == 0
        assert common_intersection_dim(da) >= ns.m


def test_subset_rank_golden_and_oracle():
    da = build(gallery.six_lines_perpendicular_pairs())
    assert subset_rank(da, []) == 0
    # altitude concurrency forces the fourth row into the span of three
    assert subset_rank(da, ALTITUDE_QUADRUPLE) == 3
    # independent oracle: sympy rank of the same stacked rows
    rows = [da.normal_of(s) for s in ALTITUDE_QUADRUPLE]
    assert sympy.Matrix(rows).rank() == 3
    assert subset_rank(da, da.subsets) == 4


def test_subset_rank_free_system_sees_full_rank():
    da = build(gallery.six_lines_distinct_slopes())
    assert subset_rank(da, ALTITUDE_QUADRUPLE) == 4
    rows = [da.normal_of(s) for s in ALTITUDE_QUADRUPLE]
    assert sympy.Matrix(rows).rank() == 4


def test_subset_rank_matches_sympy_on_random_collections():
    rng = random.Random(37)
    ns = random_normal_system(6, 2, seed=5, bound=9)
    da = build(ns)
    for _ in range(25):
        k = rng.randint(1, 6)
        D = rng.sample(da.subsets, k)
        assert subset_rank(da, D) == sympy.Matrix(
            [da.normal_of(s) for s in D]).rank()


def test_subset_rank_rejects_bad_members():
    da = build(gallery.four_lines())
    with pytest.raises(BadSubsetSize):
        subset_rank(da, [(1, 2)])
    with pytest.raises(BadSubsetSize):
        subset_rank(da, [(1, 2, 5)])


def test_relabeling_permutes_hyperplanes_up_to_scale():
    ns = validate([(1, 0), (2, 3), (3, 2), (0, 1)], 2)
    swapped = validate([(1, 0), (3, 2), (2, 3), (0, 1)], 2)  # rows 2,3
    da, db = build(ns), build(swapped)
    perm = {1: 1, 2: 3, 3: 2, 4: 4}
    for s in da.subsets:
        target = tuple(sorted(perm[i] for i in s))
        v = da.normal_of(s)
        w = db.normal_of(target)
        # w should equal v with entries permuted, up to a sign
        v_perm = [None] * 4
        for i in range(1, 5):
            v_perm[perm[i] - 1] = v[i - 1]
        ratios = {wx / vx for wx, vx in zip(w, v_perm) if vx != 0}
        assert len(ratios) == 1 and abs(ratios.pop()) == 1


def test_json_round_trip():
    da = build(gallery.five_lines())
    d = da_to_dict(da)
    assert d["n"] == 5 and d["m"] == 2
    assert len(d["hyperplanes"]) == 10
    assert [tuple(h["subset"]) for h in d["hyperplanes"]] == list(da.subsets)
    assert disc_normals(d) == da.normals


def test_build_matches_minor_oracle():
    # integer minors over the product of the row scales equal the
    # determinant of every Fraction minor, on integer and rational rows
    systems = [getattr(gallery, name)() for name in GALLERY_SYSTEMS]
    rng = random.Random(31)
    for n, m in ((4, 2), (5, 2), (5, 3), (6, 3)):
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                 for _ in range(m)] for _ in range(n)]
        systems.append(NormalSystem(rows, m))
    for ns in systems:
        da = build(ns)
        assert da.normals == build_by_minors(ns)
        assert all(isinstance(a, Fraction) for v in da.normals for a in v)


def on_wall_b(ns, rng):
    """A constant vector b for which rows 1 .. m+1 meet in one point x:
    b_i = a_i . x there, random elsewhere."""
    x = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(ns.m)]
    return [dot(row, x) if i <= ns.m
            else Fraction(rng.randint(-20, 20), rng.randint(1, 3))
            for i, row in enumerate(ns.rows)]


def test_wall_values_have_the_signs_of_the_primitive_normals():
    # the kernel reads each wall off the minor table; its value at b must
    # have the sign of the primitive integer row of the Fraction normal
    # at b, for integer, rational and on-wall b
    systems = [getattr(gallery, name)() for name in GALLERY_SYSTEMS]
    systems += [random_normal_system(n, m, seed=seed, bound=9)
                for seed, (n, m) in enumerate(((5, 2), (6, 2), (6, 3),
                                               (7, 2), (7, 3), (7, 4)))]
    rng = random.Random(31)  # the rational-row systems of the minor test
    for n, m in ((4, 2), (5, 2), (5, 3), (6, 3)):
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                 for _ in range(m)] for _ in range(n)]
        systems.append(NormalSystem(rows, m))
    sign = lambda v: (v > 0) - (v < 0)  # noqa: E731
    for ns in systems:
        rows = primitive_int_rows(build(ns).normals)
        points = [[rng.randint(-30, 30) for _ in range(ns.n)],
                  [Fraction(rng.randint(-30, 30), rng.randint(1, 9))
                   for _ in range(ns.n)],
                  on_wall_b(ns, rng)]
        for b in points:
            vals = _wall_values(ns, _int_row(b)[0])
            assert all(type(v) is int for v in vals)
            assert list(map(sign, vals)) == [sign(dot(r, b)) for r in rows]
        assert not vals[0]  # the wall of {1, ..., m+1} holds the last b


def rational_system(n, m, rng):
    """A valid system whose entries have denominators 1, 2 and 3."""
    while True:
        rows = [[Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
                 for _ in range(m)] for _ in range(n)]
        try:
            return validate(rows, m)
        except DependentRows:
            pass


def table_systems():
    """The gallery, and seeded integer and rational systems with n <= 7
    and m = 2..5."""
    systems = [getattr(gallery, name)() for name in GALLERY_SYSTEMS]
    rng = random.Random(43)
    for m in range(2, 6):
        for n in range(m + 1, 8):
            systems.append(random_normal_system(n, m, seed=10 * n + m,
                                                bound=9))
            systems.append(rational_system(n, m, rng))
    return systems


def test_build_reads_the_walls_off_the_minor_table():
    # one Bareiss determinant per wall coefficient gives the same walls
    for ns in table_systems():
        da = build(ns)
        assert (da.subsets, da.normals) == brute_build(ns)[:2]
        assert quotient_rows(da) == quotient_by_cut(ns)


def test_build_makes_no_determinant(monkeypatch):
    def no_det(a):
        raise AssertionError("_int_det called")

    systems = table_systems()
    want = [brute_build(ns)[:2] + (quotient_by_cut(ns),) for ns in systems]
    monkeypatch.setattr(exact_linalg, "_int_det", no_det)
    monkeypatch.setattr(discriminantal, "_int_det", no_det, raising=False)
    assert [(da.subsets, da.normals, quotient_rows(da))
            for da in map(build, systems)] == want


def test_arrangement_makes_its_normals_from_its_source():
    # build keeps the subsets only; the Fraction normals are made from the
    # source system's minor table when first read
    ns = gallery.four_lines()
    da = build(ns)
    assert da._normals is None
    assert da.normals == build_by_minors(ns)
    assert DiscriminantalArrangement(ns, da.subsets).normals == da.normals


def test_quotient_rows_are_made_on_read_as_the_cut_of_the_whole_walls():
    # build makes only the subsets; the quotient rows, made from the
    # minors when first read, equal the whole primitive rows cut and made
    # primitive again
    for ns in table_systems():
        da = build(ns)
        assert da._quotient is None and da._index is None
        assert quotient_rows(da) == quotient_by_cut(ns)
        assert da.index == {s: i for i, s in enumerate(da.subsets)}


def test_counting_never_makes_the_whole_rows():
    for ns in table_systems():
        da = build(ns)
        whitney_charpoly(da)
        assert da._quotient is not None and da._normals is None
