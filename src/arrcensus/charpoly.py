"""Characteristic polynomials of central arrangements, three ways.

whitney_charpoly is the production engine: the subset sum of (-1)^|B|
x^(n - rank B) over all 2^N subsets of hyperplanes, run on the walls cut
to the k = n - m quotient coordinates of discriminantal.quotient_rows,
where every linear dependence is kept.  Its body is rows_charpoly, which
takes any integer rows of full column rank k.  At k <= 3 it counts: the
rows are lines through the origin, and chi follows from the number L of
distinct lines and, at k = 3, from how many lines each plane they span
holds, met line by line in the quotient of R^3 by that line (the normals
of a rank-3 central arrangement are points of P^2, and its flats of
rank 2 the lines joining them; Orlik and Terao, Arrangements of
Hyperplanes, 1992, ch. 2).  At k >= 4 it runs the deletion recursion
memoised on flats, on the packed annihilator kernel of exact_linalg: a
flat is the mask of its rows, carried by integer vectors that annihilate
its span, each cover costs one pivot and one packed product per vector,
and a flat of rank k - 2 is closed by counting its covers.  poset_charpoly reads the whole lattice
of flats of the same quotient rows from exact_linalg.flat_levels, the
crawl on the same packed kernel that the cone composition of chambers
reads too, and runs the Mobius recursion; it is kept as a cross-check
for the tests, and no command runs it.  Both count the flats below the
top against one budget, FLAT_LIMIT.
combinatorial_charpoly never touches a matrix: it sums a product formula
over the closed families of concurrency sets, so it speaks only about
concurrency-free systems.  All three must agree wherever their domains
overlap; the cone census rests on that agreement.
"""

from math import gcd, prod
from operator import add, mul

from .concurrency import _check_universe, _lattice, _rank
from .discriminantal import quotient_rows
from .errors import OddRegionCount, TooLarge
from .exact_linalg import (_direction, _pack, _pivot, _units, _zero_slots,
                           flat_levels)

# Distinct flats below the top that either matrix engine may hold: the
# levels poset_charpoly keeps, and for rows_charpoly every flat below the
# top, which it reaches whichever way it runs.  At k <= 3 those are the
# origin, the L lines and, at k = 3, the P planes, 1 + L + P in all (at
# k = 1 the one line is the top); at k >= 4 they are the masks of its
# memo and of its set of corank-1 flats.
FLAT_LIMIT = 200000


class CharPolynomial:
    """Dense integer polynomial, coefficients from degree n down to 0."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        self.coefficients = tuple(int(c) for c in coefficients)

    @property
    def degree(self):
        return len(self.coefficients) - 1

    def __call__(self, x):
        acc = 0
        for c in self.coefficients:
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return (isinstance(other, CharPolynomial)
                and self.coefficients == other.coefficients)

    def __hash__(self):
        return hash(self.coefficients)

    def __repr__(self):
        return "CharPolynomial(%s)" % (self.as_str(),)

    def as_str(self):
        n = self.degree
        parts = []
        for i, c in enumerate(self.coefficients):
            if c == 0:
                continue
            d = n - i
            mag = abs(c)
            if d == 0:
                term = str(mag)
            else:
                xs = "x" if d == 1 else "x^%d" % d
                term = xs if mag == 1 else "%d%s" % (mag, xs)
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts) if parts else "0"

    def factored_str(self):
        """x^a (x - r) ... (residual), splitting off integer roots."""
        if not any(self.coefficients):
            return "0"
        coeffs = list(self.coefficients)
        # strip powers of x
        xpow = 0
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
            xpow += 1
        factors = []
        if xpow == 1:
            factors.append("x")
        elif xpow > 1:
            factors.append("x^%d" % xpow)
        # peel integer roots by exact synthetic division
        def divisors(v):
            v = abs(v)
            out = set()
            d = 1
            while d * d <= v:
                if v % d == 0:
                    out.update((d, v // d))
                d += 1
            return sorted(out)

        while len(coeffs) > 1:
            root = None
            for r in divisors(coeffs[-1]) if coeffs[-1] else []:
                for cand in (r, -r):
                    acc = 0
                    for c in coeffs:
                        acc = acc * cand + c
                    if acc == 0:
                        root = cand
                        break
                if root is not None:
                    break
            if root is None:
                break
            out = []
            acc = 0
            for c in coeffs[:-1]:
                acc = acc * root + c
                out.append(acc)
            coeffs = out
            factors.append("(x - %d)" % root if root > 0
                           else "(x + %d)" % -root)
        if len(coeffs) > 1 or coeffs[0] != 1 or not factors:
            factors.insert(0 if len(coeffs) == 1 else len(factors),
                           "(%s)" % CharPolynomial(coeffs).as_str()
                           if len(coeffs) > 1 else str(coeffs[0]))
        return " ".join(factors)


def _from_exponents(n, by_exp):
    # by_exp[d] = coefficient of x^d
    return CharPolynomial([by_exp[n - i] for i in range(n + 1)])


def _hold(flats):
    if flats > FLAT_LIMIT:
        raise TooLarge("flat states exceed the memory guard",
                       limit=FLAT_LIMIT)


def _counted(rows, k):
    # G(0, {0}) by exponent for nonzero rows of full column rank k <= 3
    if k == 1:
        _hold(1)  # the origin; the one line is the top
        return [-1, 1]
    if k == 2:
        L = len(set(map(_direction, rows)))
        _hold(1 + L)
        return [L - 1, -L, 1]
    lines = {}  # the distinct directions, as _direction, in row order
    for a, b, c in rows:
        g = gcd(a, b, c)
        if (a or b or c) < 0:
            g = -g
        lines[a // g, b // g, c // g] = None
    L = len(lines)
    _hold(1 + L)
    b2 = P = 0  # sum of (s - 1) over the planes, and their number
    earlier = []
    for x, y, z in lines:
        # the earlier lines in R^3 / <j> for j = (x, y, z), read on the
        # two coordinates other than j's first nonzero one, each made a
        # direction as _direction makes it
        seen = {}  # direction -> met more than once
        if x:
            for r0, r1, r2 in earlier:
                u = x * r1 - r0 * y
                v = x * r2 - r0 * z
                g = gcd(u, v)
                if (u or v) < 0:
                    g = -g
                d = u // g, v // g
                seen[d] = d in seen
        else:
            for r0, r1, r2 in earlier:
                u, v = (r0, y * r2 - r1 * z) if y else (r0, r1)
                g = gcd(u, v)
                if (u or v) < 0:
                    g = -g
                d = u // g, v // g
                seen[d] = d in seen
        earlier.append((x, y, z))
        b2 += len(seen)
        P += list(seen.values()).count(False)
        _hold(1 + L + P)
    return [L - 1 - b2, b2, -L, 1]


def rows_charpoly(rows, n):
    """Characteristic polynomial in R^n of integer rows of full column rank.

    The rows have k entries each and span k dimensions, so chi =
    x^(n - k) G(0, {0}) with ranks taken there, where G(i, V) = sum over
    B in rows i.. of (-1)^|B| x^(k - rank(V u B)).  A zero row lies in
    every flat, so every subset cancels against the one that adds or drops
    it, and chi is 0 when there is one.

    At k <= 3 G(0, {0}) = sum over flats X of mu(X) x^(k - rank X) is
    counted, with no packing and no recursion.  Each row is made a
    primitive direction whose first nonzero entry is positive, and the
    distinct ones are the L lines, the flats of rank 1, each with mu = -1.
    At k = 1 the one line is the top: chi = x - 1.  At k = 2 the top is
    the only flat above the lines, and chi(1) = 0 gives chi = x^2 - L x +
    (L - 1).  At k = 3 the flats of rank 2 are the planes spanned by two
    lines, and a plane holding s lines has mu = s - 1.  The lines are
    taken in the order the rows first give them, and each line j is
    quotiented out: the plane spanned by j and an earlier line r is the
    line through the image of r in R^3 / <j>, and two earlier lines give
    the same plane exactly when their images are parallel.  The image is
    read on the two coordinates other than j's first nonzero one: for
    j = (x, y, z) it is (x r1 - r0 y, x r2 - r0 z) when x != 0, (r0,
    y r2 - r1 z) when x = 0 != y, and (r0, r1) otherwise, a linear map
    whose kernel is <j>, so the image is nonzero, and it is made a
    primitive direction with the same sign rule.  The distinct directions
    are the planes through j and an earlier line.  A plane of s lines is
    met from every one of its lines but its first, so the distinct counts
    summed over the lines give b2 = sum of (s - 1), the coefficient of x,
    with no table of planes; and a direction met by exactly one earlier
    line is a plane whose second line is j, so those summed give the
    number P of planes.  The constant term is -(b2 - L + 1), because
    chi(1) = 1 - L + b2 + const = 0.  The flats below the top are the
    origin, the lines and the P planes, 1 + L + P (1 at k = 1, 1 + L at
    k = 2); TooLarge is raised as soon as that count passes FLAT_LIMIT,
    checked once before the pass and once per line during it, on the
    planes found so far.

    At k >= 4 the deletion recursion runs.  G(i, V) obeys
    G(i, V) = G(i+1, V) - G(i+1, V + row_i), and G(i, V) = 0 as soon as
    some row j >= i lies in V (B and B xor {j} cancel).  Unrolling the
    first identity and dropping the vanishing terms gives

        G(i, V) = x^(k - rank V) - sum over j >= i of G(j+1, V + row_j),

    where a term survives only if row_j is the last row inside V + row_j.
    So every state is a flat evaluated one past its last row, the memo is
    keyed by the flat alone and the recursion is at most rank deep.

    The recursion runs on the packed annihilator kernel of exact_linalg.
    The rows are packed once, one W-bit slot per row (_pack), and a flat
    is the slot mask of its rows.  A flat of corank c carries c integer
    vectors that annihilate exactly its span; the root carries the unit
    vectors.  The covers of a flat F from rows i.. are found one at a
    time at the first row q left: one _pivot on row q gives the vectors
    of the cover H = F + row q, the AND of one _zero_slots mask per
    vector gives the rows of H, one AND drops them all from the rows
    left, and H is evaluated one past its top slot.  A flat of corank 2
    closes by counting: each of its c covers H has corank 1 and is
    evaluated as x - [j < N], j one past the last row of H, and only the
    cover holding row N - 1 has j = N, so G(i, F) = x^2 - c x +
    (c - [i < N]).  Finding such a cover takes its one vector, made
    inline as _pivot makes it, and one packed product.

    This is exact, as in point (4) of concurrency.is_concurrency_free.
    The rows on the path from the root to a flat are independent, since
    each pivot row lies outside the mask of the flat it extends, and
    every vector is the primitive multiple of a cofactor vector of the
    path rows on their pivot columns and one column more.  So a dot
    z . r_q is a minor of the rows divided by a positive integer, which
    Hadamard's inequality bounds by the product of the k largest row
    norms, below 2^(W - 2): no slot carries into the next.

    The memo holds, by mask, the flats of corank 2 and more that the
    recursion reaches, the root included; a set holds the masks of the
    flats of corank 1, and the top is never stored.  The recursion
    reaches every flat below the top, and TooLarge is raised as soon as
    memo and set together hold more than FLAT_LIMIT flats.
    """
    if not rows:
        return _from_exponents(n, [0] * n + [1])
    if not all(map(any, rows)):
        return _from_exponents(n, [0] * (n + 1))
    N, k = len(rows), len(rows[0])
    if k <= 3:
        return _from_exponents(n, [0] * (n - k) + _counted(rows, k))
    width, cols, high, low = _pack(rows)
    memo = {}  # mask of a flat of corank >= 2 -> G, by exponent
    lines = set()  # masks of the flats of corank 1

    def go(zs, start):
        # G(start, F) for the flat F annihilated by zs, by exponent
        rest = high >> width * start << width * start  # rows start..
        if len(zs) == 2:
            z1, z2 = zs
            c = 0
            while rest:
                r = rows[(rest & -rest).bit_length() // width - 1]
                d1 = sum(map(mul, z1, r))
                if not d1:
                    z = z1
                else:
                    d2 = sum(map(mul, z2, r))
                    if not d2:
                        z = z2
                    else:
                        z = [d1 * y - d2 * x for x, y in zip(z1, z2)]
                        g = gcd(*z)
                        if g > 1:
                            z = [x // g for x in z]
                line = _zero_slots(z, cols, high, low)
                rest &= ~line
                lines.add(line)
                c += 1
            _hold(len(memo) + len(lines))
            return [c - (start < N), -c, 1]
        acc = [0] * len(zs)
        while rest:
            ws = _pivot(zs, rows[(rest & -rest).bit_length() // width - 1])
            G = high
            for z in ws:
                G &= _zero_slots(z, cols, high, low)
            rest &= ~G
            sub = memo.get(G)
            if sub is None:
                sub = memo[G] = go(ws, G.bit_length() // width)
                _hold(len(memo) + len(lines))
            acc = list(map(add, acc, sub))
        return [-a for a in acc] + [1]

    memo[0] = go(_units(k), 0)  # the root, the flat {0}
    _hold(len(memo) + len(lines))
    return _from_exponents(n, [0] * (n - k) + memo[0])


def whitney_charpoly(da):
    """Characteristic polynomial of the walls, by rows_charpoly on the
    n - m quotient rows of quotient_rows, which keep every dependence."""
    return rows_charpoly(quotient_rows(da), da.n)


def poset_charpoly(da):
    """Mobius recursion over the lattice of flats; equals whitney.

    The flats come rank by rank from exact_linalg.flat_levels on the
    quotient rows, and mu(0, G) = -sum of mu(0, F) over the flats F below
    G, which all come before it.  A zero row lies in every flat, so chi
    is 0 there, as whitney has it.  TooLarge is raised before the lattice
    held would pass FLAT_LIMIT flats.
    """
    n = da.n
    rows = quotient_rows(da)
    by_exp = [0] * (n + 1)
    if not all(any(row) for row in rows):
        return _from_exponents(n, by_exp)
    mu = {}  # flat mask -> mu(0, flat), in rank order
    for k, level in enumerate(flat_levels(rows)):
        if len(mu) + len(level) > FLAT_LIMIT:
            raise TooLarge("flat lattice exceeds memory guard",
                           limit=FLAT_LIMIT)
        for G in level:
            out = ~G  # no other flat of G's rank lies inside G
            mu[G] = -sum(v for F, v in mu.items() if not F & out) if G else 1
            by_exp[n - k] += mu[G]
    return _from_exponents(n, by_exp)


def combinatorial_charpoly(n, m):
    """Matrix-free characteristic polynomial for concurrency-free systems.

    The flats are the closed families X = {S_1..S_p} of concurrency sets,
    with rank sum (|S_i| - m).  Two members share fewer than m indices, so
    the interval below X is the product of the intervals below its members
    and mu(0, X) = prod c(|S_i|), where c(s) = mu(0, [s]) in shape (s, m)
    is minus the sum of the same products over the other families on [s].
    So chi = sum over X of prod c(|S_i|) x^(n - rank X): one pass over the
    families, no Mobius pass over pairs.  Must agree with the matrix
    engines on any concurrency-free normal system of shape (n, m).
    """
    _check_universe(n, m)
    families = [family for level in _lattice(n, m)  # () included
                for family, _, _, _ in level]
    c = {}
    for s in range(m + 1, n + 1):
        top = (1 << s) - 1
        c[s] = -sum(prod(c[S.bit_count()] for S in X) for X in families
                    if (not X or X[-1] <= top) and X != (top,))
    by_exp = [0] * (n + 1)
    for X in families:
        by_exp[n - _rank(m, X)] += prod(c[S.bit_count()] for S in X)
    return _from_exponents(n, by_exp)


def zaslavsky_regions(p):
    """Number of chambers of the arrangement: (-1)^n chi(-1)."""
    n = p.degree
    val = p(-1)
    return val if n % 2 == 0 else -val


def iso_class_count(p):
    """Half the chamber count; raises OddRegionCount on an odd census."""
    r = zaslavsky_regions(p)
    if r % 2:
        raise OddRegionCount("chamber count is odd", regions=r)
    return r // 2
