"""Exact rational linear algebra: rank, determinant, nullspace, feasibility.

Scalars are fractions.Fraction (always reduced, positive denominator) or
plain ints: primitive_int_rows and _direction, the packed annihilator
kernel (_slot_width, _pack, _zero_slots and _pivot) with the one crawl of
the lattice of flats on it (flat_levels), the table of maximal minors
(minor_table) and the elimination inside rank, determinant and
feasible_strict run on integers only.  Matrices are plain
sequences of rows; rows are sequences of Fractions or ints.  A row whose
entries are all ints enters those kernels as it is; any other row is scaled
once by the lcm of its denominators.  No floating point anywhere: region
counts downstream hinge on exact degeneracies that rounding destroys.
"""

import re
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm, prod
from operator import lshift, mul

from .errors import BadRational, BadShape


def rational(s):
    """Parse 'p/q' or 'p' (or an int) into a Fraction; q = 0 rejected."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    return Fraction(str(s))  # Fraction('p/0') raises ZeroDivisionError


_CANONICAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?").fullmatch
_INTEGER = re.compile(r"-?[0-9]+").fullmatch  # the 'p' form of _CANONICAL


def parse_rational(s, **where):
    """rational() for input values: BadRational instead of a raw error.

    where names the place of the value in its input, for the message.
    The forms rational_str writes, 'p' and 'p/q' with plain digits, are
    read by int directly; every other input goes through rational().  A
    bool or a float is refused: JSON true and 1.5 are not exact rationals.
    So is a string with a character outside ASCII, which Fraction would
    read (an Arabic-Indic digit as its value).
    """
    if type(s) in (bool, float) or type(s) is str and not s.isascii():
        raise BadRational("not an exact rational p or p/q with q != 0",
                          got=str(s), **where)
    try:
        hit = _CANONICAL(s) if type(s) is str else None
        if hit:
            p, q = hit.groups()
            return Fraction(int(p), int(q) if q else 1)
        return rational(s)
    except (ValueError, ZeroDivisionError):
        raise BadRational("not an exact rational p or p/q with q != 0",
                          got=str(s), **where) from None


def rational_str(q):
    """Serialize a Fraction as 'p/q', or 'p' when the denominator is 1.

    An int is written as 'p' with no Fraction made.
    """
    if type(q) is int:
        return str(q)
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def dot(u, v):
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def _int_row(row):
    """row times the lcm of its denominators, as a list, and that lcm.

    A row of ints is its own scaling (factor 1); the rows it stands for
    have the same sign at every point, so rank and feasibility hold.
    """
    if all(type(a) is int for a in row):
        return list(row), 1
    fr = [a if type(a) is Fraction else Fraction(a) for a in row]
    d = lcm(*(a.denominator for a in fr))
    return [a.numerator * (d // a.denominator) for a in fr], d


def _idot(u, v):
    return sum(map(mul, u, v))


def _int_rows(mat):
    return [_int_row(row)[0] for row in mat]


def rank(mat):
    """Exact rank by fraction-free (Bareiss) elimination."""
    a = _int_rows(mat)
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                # exact by Sylvester's identity
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
    return r


def determinant(mat):
    """Exact determinant via Bareiss; raises BadShape on non-square input."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise BadShape("determinant needs a square matrix", rows=n)
    a = []
    scale = 1
    for row in mat:
        ints, d = _int_row(row)
        scale *= d
        a.append(ints)
    return Fraction(_int_det(a), scale)


def _int_det(a):
    """Determinant of a square list of int rows by Bareiss; a is consumed."""
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact by Sylvester's identity
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def minor_table(rows, m):
    """Every m x m minor of int rows on their first m columns.

    Returns {mask: det} with one entry per m-subset T of the rows, bit i
    of the mask for row i: the determinant of the rows of T, in
    increasing order, on columns 0..m-1.  Level k of the table holds
    that determinant on columns 0..k-1 for every k-subset; each entry is
    the Laplace expansion along column k-1 over level k-1, k
    multiply-adds, with no division.  Only two levels are held.
    """
    n = len(rows)
    bit = [1 << i for i in range(n)]
    level = {0: 1}
    for k in range(m):
        col = [row[k] for row in rows]
        up = {}
        for U in combinations(range(n), k + 1):
            M = sum(map(bit.__getitem__, U))
            # cofactor signs alternate from + at the last row of U
            s = 0
            plus = True
            for i in reversed(U):
                a = col[i]
                if a:
                    if plus:
                        s += a * level[M ^ bit[i]]
                    else:
                        s -= a * level[M ^ bit[i]]
                plus = not plus
            up[M] = s
        level = up
    return level


def rref(mat):
    """Reduced row echelon form; returns (rows, pivot_columns), exact."""
    a = [[Fraction(x) for x in row] for row in mat]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in a[:r]], pivots


def primitive_int_rows(mat):
    """Each row scaled by a positive factor to coprime integers.

    Spans, flats and signs are unchanged, so everything downstream of a
    flat key can run on these rows in integer arithmetic.
    """
    out = []
    for row in _int_rows(mat):
        g = gcd(*row)
        out.append(tuple(x // g for x in row) if g > 1 else tuple(row))
    return out


def _direction(v):
    """The primitive multiple of a nonzero integer vector whose first
    nonzero entry is positive: one key per line through the origin."""
    g = gcd(*v)
    if next(filter(None, v)) < 0:
        g = -g
    return tuple(x // g for x in v)


# The packed annihilator kernel.  Integer rows of length k are packed
# column by column into k big integers, one W-bit slot per row, so one
# product of an integer vector z with the packed columns gives z . r for
# every row r at once.  A set of rows is then a slot mask: the top bit
# of the slot of each row in it.  A flat of rank d is carried by k - d
# integer vectors that annihilate exactly its span, and each is kept
# primitive, so every dot fits its slot (see _slot_width).


def _slot_width(rows, k=None):
    """Bits per row in the packed rows: the least W for which the
    product of the k largest row norms, each rounded up, is below
    2^(W - 2), so every slot holds a dot of any annihilator vector a
    pivot path of fewer than k rows makes, offset by 2^(W - 1), with no
    carry.  k is len(rows[0]) unless given, which covers every path."""
    norms = []
    for r in rows:
        s = sum(x * x for x in r)
        c = isqrt(s)
        norms.append(c + (c * c < s))
    norms.sort(reverse=True)
    return prod(norms[:len(rows[0]) if k is None else k]).bit_length() + 2


def _pack(rows, width=None):
    """The rows packed for _zero_slots: (W, cols, high, low), with cols[j]
    holding entry j of row q in slot q, high 2^(W - 1) in every slot and
    low 1 in every slot.  W is _slot_width(rows) unless a wider one is
    given."""
    if width is None:
        width = _slot_width(rows)
    shifts = range(0, width * len(rows), width)
    cols = [sum(map(lshift, col, shifts)) for col in zip(*rows)]
    low = ((1 << width * len(rows)) - 1) // ((1 << width) - 1)
    return width, cols, low << width - 1, low


def _zero_slots(z, cols, high, low):
    """Mask of the rows orthogonal to z: the top bit of each slot whose
    dot z . r_q is zero.

    p holds z . r_q + 2^(W - 1) in slot q (high is 2^(W - 1) in every
    slot, low is 1).  Setting each top bit and subtracting 1 per slot
    borrows out of the top bit exactly where the low W - 1 bits are
    zero, that is where the dot is zero (a negative dot leaves them at
    2^(W - 1) minus its size); no slot borrows from the next.
    """
    p = high
    for x, c in zip(z, cols):
        if x:
            p += x * c
    return high & ~((p | high) - low)


def _units(k):
    """The k unit vectors of length k: the annihilator vectors of the
    empty set of rows, where every pivot path starts."""
    return tuple((0,) * j + (1,) + (0,) * (k - 1 - j) for j in range(k))


def _pivot(zs, r):
    """Annihilator basis of the rows behind zs plus one row r outside
    their span: the first z with z . r != 0 is the pivot, and every later
    z with a nonzero dot is combined with it to vanish on r and divided
    by its gcd (the z before the pivot have a zero dot)."""
    out = []
    pivot = None
    for z in zs:
        d = sum(map(mul, z, r))
        if d:
            if pivot is None:
                pivot = z, d
                continue
            zj, dj = pivot
            v = [dj * x - d * y for x, y in zip(z, zj)]
            g = gcd(*v)
            z = tuple([x // g for x in v] if g > 1 else v)
        out.append(z)
    return tuple(out)


def flat_levels(rows):
    """The lattice of flats of nonzero integer rows, one rank at a time.

    The rows must have full column rank d, as discriminantal.quotient_rows
    gives them.  Yields, for each rank k = 0, 1, ..., d, a dict {G: (zs,
    lower)}: G is a flat as the mask of the rows it holds (bit j for row
    j), zs its d - k annihilator vectors, and lower its lower covers as
    pairs (F, y), y the first vector of F's zs with a nonzero dot on G's
    rows.  The crawl runs on the packed annihilator kernel, as
    charpoly.rows_charpoly does: the empty flat carries the unit vectors,
    and the covers of a flat F are found one at a time at the first row
    q left, by one _pivot on row q for the vectors of the cover G and the
    AND of one _zero_slots mask per vector for its rows, which all leave
    the rows left at once.  A cover reached again keeps the vectors of
    its first pair.  The only flat of rank d holds every row and has no
    vector, so each flat of rank d - 1 is a lower cover of it with its
    one vector as y, and no pivot is taken.  Flats appear in the order
    they are first reached and each lower list in the order of the rank
    below; only that rank and the one being built are held.

    The vectors stay in free-column order, and each is, up to sign, the
    primitive null-space vector of one free column of the RREF of F's
    rows: nonzero in that column and in F's pivot columns only.  The unit
    vectors are these for the empty flat.  A row r outside F, reduced
    against F's rows, is zero in the pivot columns, so the vector of a
    free column f has a nonzero dot with r exactly when the reduced r is
    nonzero in column f.  _pivot takes the first such vector as its
    pivot, so f becomes a pivot column, and combines each later one with
    it to vanish on r, which keeps it zero in the other free columns.  So
    y, the first vector of F with a nonzero dot on G's rows, is up to
    sign the cocircuit of F in the first nonzero column of a row of G
    reduced against F: the extreme ray that chambers._half_cones orients
    by one dot and composes cones from.  No dot overflows its slot: the
    vectors are those of the pivot paths of
    concurrency.is_concurrency_free, point (4), on rows that are
    independent along each path.
    """
    N = len(rows)
    d = len(rows[0]) if rows else 0
    level = {0: (_units(d), [])}
    yield level
    if not rows:
        return
    width, cols, high, low = _pack(rows)
    slot_mask = {0: 0}  # row mask of a flat of the level -> slot mask
    for _ in range(1, d):
        up = {}
        row_mask = {}  # slot mask of a cover built -> row mask
        for F, (zs, _) in level.items():
            rest = high & ~slot_mask[F]
            while rest:
                r = rows[(rest & -rest).bit_length() // width - 1]
                ws = _pivot(zs, r)
                H = high
                for z in ws:
                    H &= _zero_slots(z, cols, high, low)
                rest &= ~H
                G = row_mask.get(H)
                if G is None:
                    # bit q for each slot q whose top bit H holds
                    G = row_mask[H] = int(
                        format(H >> width - 1, "b")[::-width][::-1], 2)
                    up[G] = (ws, [])
                up[G][1].append((F, next(z for z in zs if _idot(z, r))))
        slot_mask = dict(zip(row_mask.values(), row_mask))
        level = up
        yield level
    yield {(1 << N) - 1: ((), [(F, zs[0]) for F, (zs, _) in level.items()])}


def nullspace_basis(mat):
    """Basis vectors of {x : mat x = 0}; len = cols - rank, each exact."""
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    if ncols == 0:
        return []
    rows, pivots = rref(mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -rows[i][f]
        basis.append(tuple(v))
    return basis


def solve_particular(mat, b):
    """One exact solution of mat x = b, or None when inconsistent."""
    ncols = len(mat[0]) if mat else 0
    aug = [list(row) + [bi] for row, bi in zip(mat, b)]
    rows, pivots = rref(aug)
    if ncols in pivots:  # pivot in the constant column
        return None
    x = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        x[p] = rows[i][ncols]
    return tuple(x)


def lex_independent_columns(mat, target):
    """Lexicographically first column set of given size with full rank."""
    chosen = []
    for c in range(len(mat[0]) if mat else 0):
        trial = chosen + [c]
        sub = [[row[j] for j in trial] for row in mat]
        if rank(sub) == len(trial):
            chosen = trial
            if len(chosen) == target:
                return chosen
    return chosen


def integer_primitive(vec):
    """Scale a rational vector to coprime integers, first nonzero positive."""
    fr = [Fraction(x) for x in vec]
    d = lcm(*(x.denominator for x in fr)) if fr else 1
    ints = [int(x * d) for x in fr]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(Fraction(x) for x in ints)


def feasible_strict(rows):
    """Exact x with row . x > 0 for every row, or None.

    Cones are scale invariant, so strictness is encoded as row . x >= 1 and
    solved by a phase-1 simplex (artificial-variable sum minimized, Bland's
    smallest-index rule: deterministic and cycle-free).  Each row enters as
    integers: a row of ints as it is, any other row times the lcm of its
    denominators, never divided by a gcd, since that would change the
    program and so the point returned.  The tableau is kept as integers
    under integer pivoting: every entry equals the rational dictionary
    entry times the current basis determinant, so one pivot costs integer
    mul/sub plus an exact division, with no per-entry gcd work.  The ratio
    test compares by cross-multiplication and the phase-1 value is an
    integer sum; Fractions are made only for the d coordinates returned.

    The variables are u, v (x = u - v), surplus w and artificial z, in
    that order for Bland's rule.  The columns of v and z are the negated
    columns of u and w, and stay so under pivoting, so only u, w and the
    right-hand side are stored; a z reduced cost is det minus that of its
    w.  Pivots are those of the full tableau.
    """
    nr = len(rows)
    if nr == 0:
        return ()
    d = len(rows[0])
    # stored columns: u_1..u_d, w_1..w_nr, right-hand side
    tab = []
    for i, r in enumerate(rows):
        row = _int_row(r)[0] + [0] * nr + [1]
        row[d + i] = -1
        tab.append(row)
    basis = [2 * d + nr + i for i in range(nr)]
    # reduced costs of u and w for min sum(z): minus the column sums
    red = [0] * d + [1] * nr
    for j in range(d):
        red[j] = -sum(row[j] for row in tab)
    det = 1
    while True:
        sgn = 1 if det > 0 else -1
        # Bland: the first variable, in u, v, w, z order, whose reduced
        # cost has the sign opposite to det, as (variable, stored column,
        # sign of the column, reduced cost)
        enter = next(((j, j, 1, c) for j, c in enumerate(red[:d])
                      if sgn * c < 0), None) \
            or next(((d + j, j, -1, -c) for j, c in enumerate(red[:d])
                     if sgn * c > 0), None) \
            or next(((d + j, j, 1, c) for j, c in enumerate(red[d:], d)
                     if sgn * c < 0), None) \
            or next(((d + nr + j, j, -1, det - c)
                     for j, c in enumerate(red[d:], d)
                     if sgn * (det - c) < 0), None)
        if enter is None:
            break
        var, col, sign, f = enter
        # min ratio tab[i][-1] / b over the entries b of the entering
        # column with the sign of det; two such b have a positive product
        leave = None
        for i in range(nr):
            b = sign * tab[i][col]
            if sgn * b > 0:
                a = tab[i][-1]
                if leave is None:
                    leave, best_a, best_b = i, a, b
                    continue
                lhs, rhs = a * best_b, best_a * b
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_a, best_b = i, a, b
        if leave is None:
            break  # unbounded in phase 1 cannot happen; defensive
        prow = tab[leave]
        piv = best_b
        for i in range(nr):
            if i != leave:
                ti = tab[i]
                g = sign * ti[col]
                if g:
                    tab[i] = [(x * piv - g * y) // det
                              for x, y in zip(ti, prow)]
                else:
                    tab[i] = [x * piv // det for x in ti]
        red = [(x * piv - f * y) // det for x, y in zip(red, prow)]
        basis[leave] = var
        det = piv
    if sum(tab[i][-1] for i, bv in enumerate(basis) if bv >= 2 * d + nr):
        return None
    x = [0] * d
    for i, bv in enumerate(basis):
        if bv < d:
            x[bv] += tab[i][-1]
        elif bv < 2 * d:
            x[bv - d] -= tab[i][-1]
    return tuple(Fraction(v, det) for v in x)
