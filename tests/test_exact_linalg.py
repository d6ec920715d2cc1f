"""Oracle tests for the exact linear algebra layer.

Determinants are cross-checked against cofactor expansion, ranks against
transposition invariance, and the feasibility solver against a brute-force
extreme-ray oracle that needs no LP at all.
"""

import random
import sys
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd

import pytest

from arrcensus import exact_linalg, gallery
from arrcensus.discriminantal import build, quotient_rows
from arrcensus.errors import BadRational, BadShape
from arrcensus.exact_linalg import (
    _idot,
    _int_det,
    _int_row,
    determinant,
    feasible_strict,
    flat_levels,
    integer_primitive,
    lex_independent_columns,
    minor_table,
    nullspace_basis,
    parse_rational,
    rank,
    rational,
    rational_str,
    rref,
    solve_particular,
)

from arrcensus.normal_system import random_normal_system

from oracles import (brute_flats, cocircuit_by_echelon, dot, echelon_insert,
                     echelon_residual, feasible_strict_full_tableau,
                     find_interior_point, matvec,
                     minor_table_by_combinations, primitive_int_rows)


def cofactor_det(mat):
    # independent oracle: textbook expansion along the first row
    n = len(mat)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(mat[0][0])
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(mat[0][j]) * cofactor_det(minor)
    return total


def random_matrix(rng, nrows, ncols, lo=-6, hi=6, denom=3):
    return [
        [Fraction(rng.randint(lo, hi), rng.randint(1, denom))
         for _ in range(ncols)]
        for _ in range(nrows)
    ]


def test_rational_round_trip():
    for s in ["3", "-7", "0", "5/3", "-2/9", "10/4"]:
        q = rational(s)
        assert rational(rational_str(q)) == q
    assert rational_str(rational("10/4")) == "5/2"
    assert rational(4) == Fraction(4)
    # an int is written as its Fraction is, and a bool as 1 or 0
    for q in [0, -7, 12, 10 ** 30, True, False]:
        assert rational_str(q) == rational_str(Fraction(q))


def test_rational_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        rational("1/0")


def test_determinant_matches_cofactor_oracle():
    rng = random.Random(101)
    for n in range(5):
        for _ in range(40):
            m = random_matrix(rng, n, n)
            assert determinant(m) == cofactor_det(m)


def test_determinant_requires_square():
    with pytest.raises(BadShape):
        determinant([[1, 2, 3], [4, 5, 6]])


def test_rank_transpose_invariant():
    rng = random.Random(202)
    for _ in range(120):
        nrows = rng.randint(0, 5)
        ncols = rng.randint(1, 5)
        m = random_matrix(rng, nrows, ncols)
        mt = [list(col) for col in zip(*m)] if m else []
        assert rank(m) == rank(mt)


def test_rank_of_products_of_known_rank():
    # outer-product construction gives a guaranteed rank
    rng = random.Random(303)
    for _ in range(60):
        n, k = 5, rng.randint(0, 3)
        left = random_matrix(rng, n, k)
        right = random_matrix(rng, k, n)
        prod = [[dot(lrow, col) for col in zip(*right)] for lrow in left] \
            if k else [[Fraction(0)] * n for _ in range(n)]
        assert rank(prod) <= k
        # generic samples hit rank k; verify at least one does
    fixed = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank(fixed) == 2


def test_rref_idempotent_and_consistent_with_rank():
    rng = random.Random(404)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        rows, pivots = rref(m)
        assert len(rows) == len(pivots) == rank(m)
        again, pivots2 = rref(rows)
        assert list(again) == list(rows)
        assert pivots2 == pivots


def echelon_of(rows):
    basis = ()
    for row in primitive_int_rows(rows):
        w = echelon_residual(basis, row)
        if w is not None:
            basis = echelon_insert(basis, w)
    return basis


def test_echelon_kernel_is_rref_scaled_row_by_row():
    rng = random.Random(414)
    for _ in range(80):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        basis = echelon_of(m)
        rows, pivots = rref(m)
        assert [p for p, _ in basis] == pivots
        for (p, row), want in zip(basis, rows):
            assert row[p] > 0
            assert [Fraction(x, row[p]) for x in row] == list(want)
            assert gcd(*row) == 1
        # the key depends on the span only: order and scale do not matter
        shuffled = [[t * x for x in r]
                    for r, t in zip(rng.sample(m, len(m)),
                                    rng.choices([-3, Fraction(1, 2), 5],
                                                k=len(m)))]
        assert echelon_of(shuffled) == basis


def test_echelon_residual_detects_span_membership():
    rng = random.Random(415)
    for _ in range(80):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(2, 5))
        basis = echelon_of(m)
        a, b = (primitive_int_rows([random_matrix(rng, 1, len(m[0]))[0]])[0]
                for _ in range(2))
        inside = [sum(x) for x in zip(*(r for _, r in basis), a)]
        wa = echelon_residual(basis, a)
        assert (wa is None) == (rank(m + [a]) == rank(m))
        if wa is not None:
            assert all(wa[p] == 0 for p, _ in basis)
            # equal residuals exactly when both vectors give the same flat
            wb = echelon_residual(basis, b)
            same = rank(m + [a, b]) == rank(m + [a])
            assert (wa == wb) == same
            assert echelon_residual(basis, [2 * x for x in inside]) == wa
            assert echelon_residual(basis, [-x for x in a]) == wa


def flat_systems():
    """Gallery systems with at most 15 walls, and seeded (5,2), (6,3) and
    (6,4) systems at bounds 2 (forced concurrencies) and 9."""
    out = {}
    for name in ["three_lines", "four_lines", "five_lines",
                 "six_lines_perpendicular_pairs", "six_lines_mixed_slopes",
                 "six_lines_distinct_slopes", "six_lines_free",
                 "six_planes_chain", "six_planes_curve", "six_planes_free"]:
        ns = getattr(gallery, name)()
        if comb(ns.n, ns.m + 1) <= 15:
            out[name] = ns
    for n, m in [(5, 2), (6, 3), (6, 4)]:
        for bound in (2, 9):
            out["%d-%d-%d" % (n, m, bound)] = random_normal_system(
                n, m, seed=n + m, bound=bound)
    return out


FLAT_SYSTEMS = flat_systems()


@pytest.mark.parametrize("label", sorted(FLAT_SYSTEMS))
def test_flat_levels_match_brute_closure(label):
    # each flat once, at its rank, with exactly its lower covers; its
    # d - k vectors annihilate its rows and no other row, and the y of
    # each cover pair (F, G) is, up to sign, the cocircuit of F's echelon
    # basis at the residual of a row of G outside F
    rows = quotient_rows(build(FLAT_SYSTEMS[label]))
    d = len(rows[0])
    want = brute_flats(rows)
    bases = {}
    for k, level in enumerate(flat_levels(rows)):
        for G, (zs, lower) in level.items():
            assert G not in bases and want[G][0] == k
            assert len(zs) == d - k
            for j, r in enumerate(rows):
                assert any(_idot(z, r) for z in zs) != bool(G >> j & 1)
            covers = [F for F, _ in lower]
            assert len(set(covers)) == len(covers)
            assert set(covers) == want[G][1]
            for F, y in lower:
                q = next(j for j in range(len(rows)) if (G & ~F) >> j & 1)
                c = cocircuit_by_echelon(
                    bases[F], echelon_residual(bases[F], rows[q]))
                assert list(y) in (c, [-x for x in c])
            bases[G] = echelon_of([r for j, r in enumerate(rows)
                                   if G >> j & 1])
    assert set(bases) == set(want)


def test_flat_levels_work_counts(monkeypatch):
    # six_lines_free, d = 4, levels 1/20/115/186/1.  Below the top every
    # lower-cover pair (F, G) takes one pivot, since a cover reached
    # again is found again, so 20 + 260 + 780 = 1060 pivots; a cover of
    # rank k carries 4 - k vectors and takes one packed product each,
    # 3 * 20 + 2 * 260 + 1 * 780 = 1360.  The 186 pairs under the top
    # take neither.
    counts = dict.fromkeys(["pivots", "products"], 0)
    pivot, zero_slots = exact_linalg._pivot, exact_linalg._zero_slots

    def counting_pivot(*args):
        counts["pivots"] += 1
        return pivot(*args)

    def counting_zero_slots(*args):
        counts["products"] += 1
        return zero_slots(*args)

    monkeypatch.setattr(exact_linalg, "_pivot", counting_pivot)
    monkeypatch.setattr(exact_linalg, "_zero_slots", counting_zero_slots)
    levels = list(flat_levels(quotient_rows(build(gallery.six_lines_free()))))
    assert [len(level) for level in levels] == [1, 20, 115, 186, 1]
    assert [sum(len(lower) for _, lower in level.values())
            for level in levels] == [0, 20, 260, 780, 186]
    assert counts == {"pivots": 1060, "products": 1360}


def test_primitive_int_rows_keep_signs_and_spans():
    rows = [[Fraction(3, 2), Fraction(-6, 4)], [0, Fraction(-2, 3)], [0, 0]]
    assert primitive_int_rows(rows) == [(1, -1), (0, -1), (0, 0)]


def test_plain_integer_texts_stop_at_the_digit_limit(digit_limit):
    # a table passes only when no joined row is longer than int reads,
    # so int reads every entry of a table that passes; a table refused
    # for its length goes entry by entry, where parse_rational reads each
    # entry within the limit; a limit of 0 is no limit
    check = exact_linalg._plain_integer_texts
    edge = ["1" * (digit_limit - 3), "-1"]  # joined: digit_limit chars
    rows = [["2", "-3"], edge]
    assert check(rows, 4) == ["2,-3", ",".join(edge)]
    assert [list(map(int, t.split(","))) for t in check(rows, 4)] == \
        [[2, -3], [int(edge[0]), -1]]
    for long in (["1" * (digit_limit - 2), "-1"],
                 ["1" * (digit_limit // 2)] * 2, ["1" * (digit_limit + 1)]):
        rows = [["2", "-3"], long]
        assert check(rows, 2 + len(long)) is None
        within = [x for x in long if len(x) <= digit_limit]
        assert [parse_rational(x) for x in within] == list(map(int, within))
        sys.set_int_max_str_digits(0)
        assert check(rows, 2 + len(long)) == ["2,-3", ",".join(long)]
        sys.set_int_max_str_digits(digit_limit)


def test_parse_rational_names_the_bad_value():
    assert parse_rational("3/2") == Fraction(3, 2)
    for bad in ["x", "5/0", "", "1.2.3"]:
        with pytest.raises(BadRational) as exc:
            parse_rational(bad, position=3)
        assert exc.value.payload == {"got": bad, "position": 3}


def test_parse_rational_fast_path_keeps_values_and_errors():
    # the forms rational_str writes are read with their values, 'p' as an
    # int and 'p/q' as a Fraction; every other string is refused with the
    # same error, whatever Fraction(str) would read
    for text in ["0", "-0", "7", "-12", "007", "12345678901234567890123"]:
        got = parse_rational(text)
        assert type(got) is int and got == int(text), text
    for text in ["3/2", "-3/2", "2/4", "10/5", "-7/1", "0/5", "1/007"]:
        got = parse_rational(text)
        assert type(got) is Fraction and got == Fraction(text), text
    for bad in ["x", "1/0", "0/0", "-1/0", "1/00", "1/-2", "--1", "1/",
                "/2", "", "-", "+3", " 1/2", "7 ", "1.5", ".5", "1e2",
                "1_000", "1/2_0", "-7/+1"]:
        with pytest.raises(BadRational) as exc:
            parse_rational(bad, position=1)
        assert exc.value.payload == {"got": bad, "position": 1}
    assert parse_rational(Fraction(-5, 3)) == Fraction(-5, 3)
    got = parse_rational(4)
    assert type(got) is Fraction and got == 4


def test_parse_rational_refuses_bools_and_floats():
    # JSON true, false and 1.5 are not exact rationals, in any input file,
    # and neither is the text "1.5"
    for bad in [True, False, 1.5, 2.0, float("inf"), None, [1], "1.5"]:
        with pytest.raises(BadRational) as exc:
            parse_rational(bad, row=1, column=2)
        assert exc.value.payload == {"got": str(bad), "row": 1, "column": 2}
    assert parse_rational(2) == 2 and parse_rational("3/2") == Fraction(3, 2)


def test_parse_rational_refuses_non_ascii_strings():
    # Fraction reads Arabic-Indic and full-width digits; an input value
    # may use the digits 0-9 only, in every input that parse_rational reads
    for bad in ["\u0661", "-\u0661\u0662", "1/\u0662", "\uff13", "\u00b2",
                "1\u00a0", "\u0661_0"]:
        with pytest.raises(BadRational) as exc:
            parse_rational(bad, row=2, column=1)
        assert exc.value.payload == {"got": bad, "row": 2, "column": 1}


def test_nullspace_vectors_annihilate_and_count():
    rng = random.Random(505)
    for _ in range(80):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 5)
        m = random_matrix(rng, nrows, ncols)
        basis = nullspace_basis(m)
        assert len(basis) == ncols - rank(m)
        for v in basis:
            assert all(x == 0 for x in matvec(m, v))
        if basis:
            assert rank(basis) == len(basis)


def test_solve_particular_exact():
    rng = random.Random(606)
    hits = 0
    for _ in range(80):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        x0 = [Fraction(rng.randint(-4, 4)) for _ in range(len(m[0]))]
        b = matvec(m, x0)
        x = solve_particular(m, b)
        assert x is not None
        assert matvec(m, x) == tuple(b)
        hits += 1
    assert hits == 80
    assert solve_particular([[1, 0], [1, 0]], [1, 2]) is None


def test_integer_primitive_normalization():
    assert integer_primitive([Fraction(2, 3), Fraction(-4, 3)]) == (1, -2)
    assert integer_primitive([Fraction(-1, 2), Fraction(0)]) == (1, 0)
    assert integer_primitive([0, 0]) == (0, 0)


def test_lex_independent_columns_prefers_early_columns():
    m = [[0, 1, 1, 0], [0, 2, 0, 1]]
    assert lex_independent_columns(m, 2) == [1, 2]
    m2 = [[1, 1, 0], [0, 0, 1]]
    assert lex_independent_columns(m2, 2) == [0, 2]


def brute_sign_realizable(rows, signs, dim):
    """Grid oracle for open-cone feasibility in small dimension.

    Scans a fixed rational grid in a small cube.  Any hit certifies the
    cone nonempty, so a solver answer of None against a grid hit is a real
    bug.  (Points the solver does return are verified directly against the
    constraints, so the grid only needs to police the None branch.)
    """
    den = 8 if dim == 2 else 2
    steps = [Fraction(k, den) for k in range(-3 * den, 3 * den + 1)]
    axes = [steps] * dim
    for point in product(*axes):
        good = True
        for row, s in zip(rows, signs):
            val = dot(row, point)
            if s == "+" and not val > 0:
                good = False
                break
            if s == "-" and not val < 0:
                good = False
                break
        if good:
            return True
    return False


@pytest.mark.parametrize("dim", [2, 3])
def test_find_interior_point_against_grid_oracle(dim):
    rng = random.Random(70 + dim)
    agree = 0
    for _ in range(60):
        nrows = rng.randint(1, 5)
        rows = []
        while len(rows) < nrows:
            cand = tuple(rng.randint(-3, 3) for _ in range(dim))
            if any(cand):
                rows.append(cand)
        signs = "".join(rng.choice("+-") for _ in range(nrows))
        got = find_interior_point(rows, signs)
        expect = brute_sign_realizable(rows, signs, dim)
        if got is None:
            assert not expect
        else:
            for row, s in zip(rows, signs):
                val = dot(row, got)
                assert val > 0 if s == "+" else val < 0
            agree += 1
    assert agree > 10  # both branches exercised


def test_find_interior_point_deterministic():
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    a = find_interior_point(rows, "++++")
    b = find_interior_point(rows, "++++")
    assert a == b and a is not None


def test_find_interior_point_shape_checks():
    with pytest.raises(BadShape):
        find_interior_point([(1, 0)], "++")
    with pytest.raises(BadShape):
        find_interior_point([(1, 0)], "x")


def test_feasible_strict_known_infeasible():
    # x > 0 and -x > 0 simultaneously
    assert feasible_strict([(1,), (-1,)]) is None
    # opposite orthant mix that leaves a sliver
    w = feasible_strict([(1, 1), (-1, 1)])
    assert w is not None and w[1] > abs(w[0])


def test_feasible_strict_int_rows_match_fraction_rows():
    # an int row enters the tableau as it is, a Fraction row times its lcm:
    # equal rows give the same program and so the same point
    rng = random.Random(91)
    for _ in range(200):
        d = rng.randint(1, 4)
        rows = [tuple(rng.randint(-5, 5) for _ in range(d))
                for _ in range(rng.randint(1, 7))]
        got = feasible_strict(rows)
        assert got == feasible_strict([tuple(Fraction(a) for a in r)
                                       for r in rows])
        assert got is None or all(isinstance(x, Fraction) for x in got)


def test_feasible_strict_matches_full_tableau_oracle():
    # the stored tableau drops the negated v and z columns; the pivots and
    # the point must be those of the full tableau with a Fraction ratio test
    # (small int entries make ties in the ratio test, where Bland's
    # tie-break decides the pivot)
    rng = random.Random(92)
    feasible = 0
    for entry in (lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                  lambda: rng.randint(-2, 2)):
        for _ in range(300):
            d = rng.randint(1, 5)
            rows = [tuple(entry() for _ in range(d))
                    for _ in range(rng.randint(1, 8))]
            got = feasible_strict(rows)
            assert got == feasible_strict_full_tableau(rows), rows
            feasible += got is not None
    assert 100 < feasible < 500  # both verdicts exercised


def minor_table_rows():
    """(rows, m) for every shape with m = 1..5 and m <= n <= 10: integer
    rows with about a third of their entries zero, and rows of
    rationals scaled to integers by the lcm of their denominators; some
    rows are one column wider than m, which the table does not read."""
    rng = random.Random(59)
    for m in range(1, 6):
        for n in range(m, 11):
            width = m + (n % 2)
            yield [[rng.choice((0, 0, rng.randint(-9, 9)))
                    for _ in range(width)] for _ in range(n)], m
            yield [_int_row([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                             for _ in range(width)])[0]
                   for _ in range(n)], m


def test_minor_table_matches_the_laplace_oracle_and_bareiss():
    # the same entries, in the same (lex) order, as the expansion over
    # combinations, and each the Bareiss determinant of its m rows
    zeros = 0
    for rows, m in minor_table_rows():
        table = minor_table(rows, m)
        assert list(table.items()) == \
            list(minor_table_by_combinations(rows, m).items())
        assert len(table) == comb(len(rows), m)
        for T in combinations(range(len(rows)), m):
            det = _int_det([list(rows[i][:m]) for i in T])
            assert table[sum(1 << i for i in T)] == det, (rows, m, T)
            zeros += not det
    assert zeros > 100  # vanishing minors are exercised too
