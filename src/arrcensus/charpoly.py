"""Characteristic polynomials of central arrangements, three ways.

whitney_charpoly is the production engine: the subset sum of (-1)^|B|
x^(n - rank B) over all 2^N subsets of hyperplanes, evaluated by the
deletion recursion memoised on flats.  The recursion is rows_charpoly,
which takes any integer rows of full column rank k and closes each flat
of rank k - 1 in one step, so its memo holds the flats below rank k that
it reaches; whitney_charpoly runs it on the walls cut to the k = n - m
quotient coordinates of discriminantal.quotient_rows, where every linear
dependence is kept.  poset_charpoly reads the whole lattice of flats of
the same quotient rows from exact_linalg.flat_levels, the crawl the cone
composition of chambers reads too, and runs the Mobius recursion; it is
kept as a cross-check for the tests, and no command runs it.  Both key
flats by the integer echelon bases of exact_linalg and share one budget,
FLAT_LIMIT.  combinatorial_charpoly never touches a matrix: it sums a
product formula over the closed families of concurrency sets, so it
speaks only about concurrency-free systems.  All three must agree wherever
their domains overlap; the cone census rests on that agreement.
"""

from math import prod

from .concurrency import _check_universe, _lattice, _rank
from .discriminantal import quotient_rows
from .errors import OddRegionCount, TooLarge
from .exact_linalg import echelon_insert, echelon_residual, flat_levels

FLAT_LIMIT = 200000  # distinct flats either matrix engine may hold


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


def rows_charpoly(rows, n):
    """Characteristic polynomial in R^n of integer rows of full column rank.

    The rows have k entries each and span k dimensions, so chi =
    x^(n - k) G(0, {0}) with ranks taken there.  G(i, V) = sum over B in
    rows i.. of (-1)^|B| x^(k - rank(V u B)) obeys
    G(i, V) = G(i+1, V) - G(i+1, V + row_i), and G(i, V) = 0 as soon as
    some row j >= i lies in V (B and B xor {j} cancel).  Unrolling the
    first identity and dropping the vanishing terms gives

        G(i, V) = x^(k - rank V) - sum over j >= i of G(j+1, V + row_j),

    where a term survives only if row_j is the last row inside V + row_j:
    the last of the rows whose residuals against V agree.  So every state
    is a flat evaluated one past its last row, the memo is keyed by the
    flat alone and the recursion is at most rank deep.  A zero row lies
    in every flat, so chi is 0 when there is one.

    A flat of rank k - 1 is closed at once: every row j >= i lies outside
    it and completes it to the top, so only the last row survives and
    G = x - [i < N], with no residual taken.  The memo holds the flats
    below the top that the recursion reaches, the top itself is never
    stored, and TooLarge is raised before it would hold more than
    FLAT_LIMIT of them.
    """
    N = len(rows)
    k = len(rows[0]) if rows else 0
    if not all(any(row) for row in rows):
        return _from_exponents(n, [0] * (n + 1))
    memo = {}

    def go(flat, start):
        out = memo.get(flat)
        if out is None:
            out = [0] * (k + 1)  # out[e] is the coefficient of x^e
            out[k - len(flat)] = 1
            if len(flat) == k - 1:
                out[0] = -(start < N)
            else:
                last = {}  # residual -> last row giving it
                for j in range(start, N):
                    last[echelon_residual(flat, rows[j])] = j
                for w, j in last.items():
                    sub = go(echelon_insert(flat, w), j + 1)
                    out = [a - b for a, b in zip(out, sub)]
            if len(memo) >= FLAT_LIMIT:
                raise TooLarge("flat states exceed the memory guard",
                               limit=FLAT_LIMIT)
            memo[flat] = out
        return out

    return _from_exponents(n, [0] * (n - k) + go((), 0))


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
