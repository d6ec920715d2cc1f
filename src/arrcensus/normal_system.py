"""Normal systems: validated n x m rational matrices of line normals.

A normal system is the input datum for everything downstream: its rows are
the normals of n affine hyperplanes in R^m, and the defining condition is
that every subset of at most m rows is linearly independent.  Rows are kept
verbatim (never rescaled): cone labels downstream depend on the chosen
matrix, not just on the lines it defines.  Rows of ints stay ints, any
other rows hold Fractions, and exact_linalg decides which text is which.

A system carries one integer table of its m x m minors, made once from
the rows scaled by exact_linalg._int_row (exact_linalg.minor_table).
Since n > m, every <= m rows are independent exactly when no entry of it
is zero, so validate and random_normal_system accept by that one test,
and the walls of discriminantal.build read their coefficients from the
same table.
The lex-first dependent subset is searched for only to name it in a
DependentRows error.
"""

import random
from fractions import Fraction

from .errors import (BadArtifact, BadShape, DependentRows, GivesUp,
                     LengthMismatch)
from .exact_linalg import (_idot, _int_row, _pivot, _plain_integer_texts,
                           _units, minor_table, parse_rational, rational_str)


class NormalSystem:
    """Immutable n x m matrix with every <= m rows independent.

    rows holds tuples of ints when every entry given is an int, and of
    Fractions otherwise; a system compares and hashes by value, so the
    two forms of the same matrix are equal.

    scales[i] is the lcm d_i of the denominators of row i, and minors
    the minor_table of the rows times their scales: minors[mask] is the
    m x m minor of the rows in mask (bit i for row i) times the product
    of their scales.  validate passes the table it checked as table;
    otherwise it is made here.
    """

    __slots__ = ("rows", "m", "rejections", "scales", "minors")

    def __init__(self, rows, m, table=None):
        self.rows = _entries(rows)
        self.m = int(m)
        self.scales, self.minors = table or _table(self.rows, self.m)
        self.rejections = 0  # set by random_normal_system

    @property
    def n(self):
        return len(self.rows)

    def __eq__(self, other):
        return (isinstance(other, NormalSystem)
                and self.m == other.m and self.rows == other.rows)

    def __hash__(self):
        return hash((self.m, self.rows))

    def __repr__(self):
        return "NormalSystem(n=%d, m=%d)" % (self.n, self.m)


class Arrangement:
    """A normal system paired with constants b: hyperplane i is a_i.x = b_i.

    b holds ints when every constant given is an int, and Fractions
    otherwise, as the rows of a NormalSystem do.
    """

    __slots__ = ("system", "b")

    def __init__(self, system, b):
        self.system = system
        self.b = _entries([b])[0]

    def __eq__(self, other):
        return (isinstance(other, Arrangement)
                and self.system == other.system and self.b == other.b)

    def __repr__(self):
        return "Arrangement(n=%d, m=%d)" % (self.system.n, self.system.m)


def _fractions(row):
    return tuple([a if type(a) is Fraction else Fraction(a) for a in row])


def _entries(rows):
    """The rows as tuples: of their ints when every entry is an int, of
    Fractions otherwise."""
    rows = tuple(map(tuple, rows))
    if all(type(a) is int for row in rows for a in row):
        return rows
    return tuple(map(_fractions, rows))


def _table(rows, m):
    """(scales, minors) of the rows, as NormalSystem keeps them."""
    scaled = [_int_row(row) for row in rows]
    return (tuple([d for _, d in scaled]),
            minor_table([ints for ints, _ in scaled], m))


def _independent(table):
    # every <= m rows lie in some m of the n > m rows, so they are all
    # independent exactly when no maximal minor vanishes
    return all(table[1].values())


def first_dependent_subset(rows, m):
    """Lexicographically first dependent row subset of size <= m, or None.

    Subsets are 1-based and ordered as tuples, so {1,2} precedes {1,2,3}
    precedes {1,3}.  That is the preorder of a depth-first walk that
    extends each tuple by a later index, so the walk meets the subsets in
    order.  A node carries integer vectors that annihilate exactly the
    span of its prefix, whose rows are independent: the unit vectors at
    the root, and one exact_linalg._pivot on the last row for each
    child.  A node is dependent exactly when every vector of its prefix
    has a zero dot on its last row.
    """
    n = len(rows)
    ints = [_int_row(row)[0] for row in rows]

    def walk(prefix, zs):
        for i in range(prefix[-1] if prefix else 0, n):
            sub = prefix + (i + 1,)
            if not any(_idot(z, ints[i]) for z in zs):
                return sub
            if len(sub) < m:
                hit = walk(sub, _pivot(zs, ints[i]))
                if hit is not None:
                    return hit
        return None

    return walk((), _units(m))


def validate(coeffs, m):
    """Check the independence condition and return a NormalSystem.

    Raises BadShape when n <= m or m <= 1 or a row has the wrong width,
    DependentRows naming the first offending subset otherwise.  When
    every entry is an int, the rows stay ints and the minor table is
    made from them as they are; otherwise every entry becomes a Fraction,
    and each row is scaled to integers by the lcm of its denominators.
    """
    m = int(m)
    rows = _entries(coeffs)
    n = len(rows)
    if m <= 1:
        raise BadShape("ambient dimension m must exceed 1", m=m)
    if n <= m:
        raise BadShape("need more hyperplanes than dimensions", n=n, m=m)
    for i, row in enumerate(rows, start=1):
        if len(row) != m:
            raise BadShape("row has wrong width", row=i,
                           width=len(row), m=m)
    table = _table(rows, m)
    if not _independent(table):
        raise DependentRows("rows are linearly dependent",
                            subset=list(first_dependent_subset(rows, m)))
    return NormalSystem(rows, m, table)


def random_normal_system(n, m, seed, bound, max_attempts=10000):
    """Uniform integer entries in [-bound, bound], resampled until valid.

    Deterministic for a fixed seed.  A draw is accepted by the minor
    table test of validate.  The accepted system carries the number of
    rejected draws in its `rejections` attribute.
    """
    n, m, bound = int(n), int(m), int(bound)
    if m <= 1:
        raise BadShape("ambient dimension m must exceed 1", m=m)
    if n <= m:
        raise BadShape("need more hyperplanes than dimensions", n=n, m=m)
    if bound < 1:
        raise BadShape("bound must be at least 1", bound=bound)
    rng = random.Random(seed)
    for attempt in range(max_attempts):
        rows = [[rng.randint(-bound, bound) for _ in range(m)]
                for _ in range(n)]
        table = _table(rows, m)
        if _independent(table):
            ns = NormalSystem(rows, m, table)
            ns.rejections = attempt
            return ns
    raise GivesUp("no valid system found", n=n, m=m, seed=seed,
                  bound=bound, attempts=max_attempts)


def arrangement_from_b(ns, b):
    """Pair a normal system with constants b; no genericity demanded yet."""
    arr = Arrangement(ns, b)
    if len(arr.b) != ns.n:
        raise LengthMismatch("need one constant per hyperplane",
                             n=ns.n, got=len(arr.b))
    return arr


def ns_to_dict(ns):
    return {
        "m": ns.m,
        "rows": [[rational_str(a) for a in row] for row in ns.rows],
    }


def ns_from_dict(data):
    """Validated NormalSystem from {"m": int, "rows": [[rational, ...]]}.

    "m" must be a JSON integer: 2.9 or true is a BadArtifact, not 2 or 1.
    Entries that exact_linalg._plain_integer_texts passes are read by
    int; any others each by parse_rational, which names the first bad
    one by row and column.  So a system of "p" entries has int rows,
    and any other Fraction rows.
    """
    need = 'normal system needs an integer "m" and "rows"'
    try:
        m, rows = data["m"], data["rows"]
    except (KeyError, TypeError):
        raise BadArtifact(need) from None
    if type(m) is not int:
        raise BadArtifact(need)
    if not (isinstance(rows, list)
            and all(isinstance(row, list) for row in rows)):
        raise BadArtifact('"rows" must be a list of lists')
    if _plain_integer_texts(rows, sum(map(len, rows))) is not None:
        return validate([list(map(int, row)) for row in rows], m)
    return validate([[parse_rational(a, row=i, column=j)
                      for j, a in enumerate(row, start=1)]
                     for i, row in enumerate(rows, start=1)], m)
