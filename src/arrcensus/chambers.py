"""Cone catalog of a central arrangement: sign vectors with exact witnesses.

A central arrangement cuts its ambient space into open convex cones, one
per realizable strict sign vector.  enumerate_chambers composes them from
cocircuits, with no LP (Bjorner et al., Oriented Matroids, ch. 3-4).  In
an essential arrangement every cone is pointed, so its closure holds an
extreme ray y, a cocircuit: y is orthogonal to a flat F one rank below the
whole, and the cone is y o T, the signs of y off F composed with a chamber
T of the localization F.  The flats come up rank by rank from
exact_linalg.flat_levels, the one crawl of the lattice of flats (the
poset_charpoly cross-check reads it too), which runs on the packed
annihilator kernel and hands each lower cover F its cocircuit y as the
annihilator vector of F that the cover does not keep.  The chambers of
each flat are composed from those of its lower covers.  A witness is a
primitive integer vector, the sum K y + w_T with the least integer K that
keeps y's signs, so every sign test is an integer dot product.  The
count is a certificate: it is known up front as the Zaslavsky number of
the whitney polynomial, which is checked against max_chambers before any
cone is made and against the finished catalog after.

The cones are composed on the quotient rows, the walls cut to their first
n - m coordinates, where they have full rank (discriminantal.quotient_rows),
and witnesses are lifted back by appending m zeros.  A point is located by
the signs of its wall values (discriminantal._wall_values), the one kernel
that classify_b, verify_catalog and the affine readings share.  A loaded
catalog's witness entries become numbers in exact_linalg.

sign_cells, the insertion walk that enumerate_chambers ran before (one
exact phase-1 simplex per split cell), and shared_wall, a facet LP on
one pair of cones, stay only as oracles for the tests.
"""

from fractions import Fraction
from json import dumps
from json.encoder import encode_basestring_ascii
from math import gcd, lcm
from operator import attrgetter, itemgetter

from .charpoly import iso_class_count, whitney_charpoly, zaslavsky_regions
from .discriminantal import _wall_values, quotient_rows
from .errors import (BadArtifact, CountMismatch, LengthMismatch,
                     NotInCatalog, TooLarge, UnpairedChamber)
from .exact_linalg import (_idot, _int_row, _pivot, _plain_integer_texts,
                           _units, feasible_strict, flat_levels,
                           parse_rational, rational_str)

DEFAULT_MAX_CHAMBERS = 10 ** 4

_FLIP = str.maketrans("+-", "-+")
_BITS = str.maketrans("10", "+-")
# a catalog and one of its chambers as json.dump(..., sort_keys=True,
# indent=1) lays them out (catalog_text)
_CATALOG = ('{\n "chambers": %s,\n "classes": %s,\n "count": %s,\n "m": %s,'
            '\n "n": %s\n}\n')
_CHAMBER = ('  {\n   "class": %s,\n   "signs": %s,\n   "witness": [\n    %s'
            '\n   ]\n  }')


def opposite_signs(signs):
    """The antipodal sign vector."""
    return signs.translate(_FLIP)


def _homogeneous(pt):
    """A rational point as (W, D): integers W over the positive lcm D."""
    den = lcm(*(x.denominator for x in pt))
    return [x.numerator * (den // x.denominator) for x in pt], den


def _reduced(W, D):
    g = gcd(D, *W)
    return [x // g for x in W], D // g


def _feasible_lazy(folded, flipped, seed=()):
    """Strict interior point (W, D) of {folded > 0, flipped > 0}, or None.

    Constraint generation: solve on a working subset (the wall plus any rows
    named in seed), then add whatever the candidate point still violates and
    repeat.  Infeasibility of a subset already proves global infeasibility,
    and a point that survives the full re-check is a genuine witness, so the
    laziness is sound; it just keeps the simplex tableaus small.
    """
    active = [flipped] + [folded[j] for j in seed]
    left = sorted(set(range(len(folded))) - set(seed))
    while True:
        pt = feasible_strict(tuple(active))
        if pt is None:
            return None
        W, D = _homogeneous(pt)
        viol = [j for j in left if _idot(folded[j], W) <= 0]
        if not viol:
            return W, D
        active += [folded[j] for j in viol]
        left = [j for j in left if j not in viol]


def _opposite(folded, flipped, scale, w):
    """Witness (W, D) for the far side of a wall, or None when it is empty.

    w = (W, D) satisfies folded strictly but sits on the wrong side of
    flipped, the integer row scale times a rational row r.  Drop the
    perpendicular foot p of w onto the wall; when p still satisfies all of
    folded strictly, stepping from p along r by half the largest safe
    amount gives an exact witness with no simplex run at all.  In integers
    p = P / (D (f.f)) with P = W (f.f) - (f.W) f for f = flipped; the
    largest step is the least (g.P) / (-g.f) over the rows g of folded
    with g.f < 0, compared by cross-multiplication, and an unbounded step
    is one unit of r.  The foot lies outside the cell only for skinny
    cells, where we fall back to the lazy solver seeded with the
    constraints the foot violated.
    """
    W, D = w
    ff = _idot(flipped, flipped)
    fw = _idot(flipped, W)
    P = [ff * x - fw * y for x, y in zip(W, flipped)]
    num = den = None
    bad = []
    for j, g in enumerate(folded):
        gp = _idot(g, P)
        if gp <= 0:
            bad.append(j)
            continue
        gd = _idot(g, flipped)
        if gd < 0 and (num is None or gp * den < num * -gd):
            num, den = gp, -gd
    if bad:
        return _feasible_lazy(folded, flipped, seed=bad)
    Dp = D * ff
    if num is None:  # p + r
        return _reduced([scale * x + Dp * y for x, y in zip(P, flipped)],
                        Dp * scale)
    # p + (bound / 2) r, with bound = scale * num / (Dp * den)
    return _reduced([2 * den * x + num * y for x, y in zip(P, flipped)],
                    2 * Dp * den)


def sign_cells(rows, dim, base_rows=(), half=False):
    """All strict sign vectors over rows, with one interior witness each.

    Cells are the connected components of {x : base . x > 0} minus the row
    hyperplanes; base_rows are fixed strict constraints (empty for a plain
    central arrangement).  Returns a list of (signs, witness) pairs where
    signs is a tuple of +-1 and witness a tuple of Fractions.  Insertion
    order is the given row order; a cell splits when both sides of the new
    hyperplane are feasible.

    half=True (valid only with empty base_rows) pins the first sign to +,
    producing one cell per antipodal pair; the caller mirrors.
    """
    base = tuple(_int_row(r)[0] for r in base_rows)
    if base:
        pt = feasible_strict(base)
        if pt is None:
            return []
        w0 = _homogeneous(pt)
    else:
        w0 = ([0] * dim, 1)
    cells = [((), base, w0)]
    for row in rows:
        plus, scale = _int_row(row)
        minus = [-x for x in plus]
        grown = []
        for signs, folded, w in cells:
            v = _idot(plus, w[0])
            if v:
                s, srow, orow = (1, plus, minus) if v > 0 else \
                    (-1, minus, plus)
                grown.append((signs + (s,), folded + (srow,), w))
                pt = _opposite(folded, orow, scale, w)
                if pt is not None:
                    grown.append((signs + (-s,), folded + (orow,), pt))
            else:
                # witness sits on the new hyperplane; probe both sides
                sides = ((1, plus),) if half and not signs else \
                    ((1, plus), (-1, minus))
                for s, srow in sides:
                    pt = _feasible_lazy(folded, srow)
                    if pt is not None:
                        grown.append((signs + (s,), folded + (srow,), pt))
        cells = grown
    return [(signs, tuple(Fraction(x, D) for x in W))
            for signs, _, (W, D) in cells]


class Chamber:
    """One open cone: its sign vector, an interior point, and its class id.

    The witness entries are kept as they are given: ints in a built
    catalog, ints or Fractions in a loaded one.  A catalog loaded with
    plain-integer witnesses makes each Chamber, its witness parsed to
    ints, only when that chamber is first read (ChamberCatalog).
    """

    __slots__ = ("signs", "witness", "class_id")

    def __init__(self, signs, witness, class_id=None):
        self.signs = signs
        self.witness = tuple(witness)
        self.class_id = class_id

    def __eq__(self, other):
        return (isinstance(other, Chamber) and self.signs == other.signs
                and self.witness == other.witness)

    def __repr__(self):
        return "Chamber({!r}, class={})".format(self.signs, self.class_id)


def _ints(text):
    # a witness kept as its comma-joined plain-integer text, as ints
    return tuple(map(int, text.split(",")))


class ChamberCatalog:
    """All chambers of one arrangement, sorted by sign vector.

    Antipodal chambers share a class id; the canonical representative of a
    class is the member whose first sign is +.  Ids follow the sorted order
    of the representatives, as enumerate_chambers numbers them.  Chambers
    that already come in sign order, as enumerate_chambers makes them and
    catalog_to_dict writes them, are not sorted again.

    A catalog loaded by catalog_from_dict with plain-integer witnesses
    holds each chamber as its row (signs, comma-joined witness text, class
    id) and makes the Chamber when that chamber is first read, by index,
    find or iteration; so a lookup parses one witness, not all of them.
    """

    def __init__(self, da, chambers):
        self._set(da, list(chambers), attrgetter("signs"))

    @classmethod
    def _of_rows(cls, da, rows):
        catalog = cls.__new__(cls)
        catalog._set(da, rows, itemgetter(0))
        return catalog

    def _set(self, da, items, key):
        signs = list(map(key, items))
        if signs != sorted(signs):
            items.sort(key=key)
            signs = list(map(key, items))
        self.da = da
        self._items = items
        self._index = dict(zip(signs, range(len(signs))))
        if len(self._index) != len(items):
            raise UnpairedChamber("duplicate sign vectors in catalog")

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        return map(self.__getitem__, range(len(self._items)))

    def __getitem__(self, k):
        c = self._items[k]
        if type(c) is tuple:  # a loaded row, read for the first time
            signs, text, class_id = c
            c = self._items[k] = Chamber(signs, _ints(text), class_id)
        return c

    def find(self, signs):
        k = self._index.get(signs)
        return None if k is None else self[k]

    @property
    def class_count(self):
        ids = {c.class_id for c in self}
        ids.discard(None)
        return len(ids)


def _half_cones(rows):
    """Chambers with first sign + of an essential arrangement of int rows.

    Returns {plus mask: primitive integer witness}; bit j of a mask is set
    when row j is positive.  The flats come up from the empty one, rank
    by rank, from exact_linalg.flat_levels, and the half chambers of a
    flat G (those with + on its first row a) are composed from the
    chambers of its lower covers F, so only two ranks of chambers are
    held at a time.  Such a chamber is open on a's side, so some extreme
    ray y of its closure is off a: y is a cocircuit of G at a lower cover
    F without a, and the chamber is y o T, the signs of y off F composed
    with a chamber T of F.  So the lower covers through a are skipped.
    flat_levels gives y with each pair (F, G): the primitive annihilator
    vector of F with a nonzero dot on G's rows, up to sign the cocircuit
    of F in the first free column G's rows reach; it is oriented here to
    a . y > 0.  The witness of y o T is K y + w_T, with K the least
    integer that keeps every sign off F, divided by its gcd; the other
    chambers of G are the mirrors of its half, with negated witnesses.
    """
    N, d = len(rows), len(rows[0])
    top = (1 << N) - 1
    levels = flat_levels(rows)
    next(levels)  # the empty flat, whose one chamber is the whole space
    # flat mask of the rank below -> all its chambers [(mask, witness)]
    below = {0: [(0, [0] * d)]}
    for level in levels:
        here = {}
        for G, (_, lower) in level.items():
            a = G & -G
            found = {}
            for F, y in lower:
                if F & a:
                    continue
                cones = below[F]
                off = [(1 << j, rows[j], _idot(rows[j], y))
                       for j in range(N) if (G & ~F) >> j & 1]
                if next(v for b, _, v in off if b == a) < 0:
                    y = [-x for x in y]
                    off = [(b, r, -v) for b, r, v in off]
                ymask = sum(b for b, _, v in off if v > 0)
                for tmask, wt in cones:
                    mask = ymask | tmask
                    if mask not in found:
                        K = 1 + max(-_idot(r, wt) // v for _, r, v in off)
                        vec = [K * p + q for p, q in zip(y, wt)]
                        g = gcd(*vec)
                        found[mask] = [x // g for x in vec]
            if G == top:
                return found
            half = list(found.items())
            here[G] = half + [(G ^ m, [-x for x in wt]) for m, wt in half]
        below = here


def enumerate_chambers(da, max_chambers=DEFAULT_MAX_CHAMBERS):
    """Complete chamber catalog of a discriminantal arrangement.

    The count is known before any cone is made: it is the Zaslavsky
    number of the whitney characteristic polynomial, and TooLarge is
    raised up front when it passes max_chambers.  The cones are composed
    from cocircuits in the quotient modulo the common intersection
    subspace (_half_cones), each witness is lifted back to n-space by
    appending m zeros, and every cone is mirrored through the origin.
    Class k goes to the k-th half cone (first sign +) in sign order and to
    its mirror.  A cone count other than the Zaslavsky number raises
    CountMismatch.
    """
    expected = zaslavsky_regions(whitney_charpoly(da))
    if expected > max_chambers:
        raise TooLarge("chamber count exceeds the configured limit",
                       count=expected, limit=max_chambers)
    chambers = []
    if expected:  # a zero normal leaves no strict sign vector at all
        rows = quotient_rows(da)
        N = len(rows)
        tail = [0] * da.m
        half = sorted((format(mask, "0%db" % N)[::-1].translate(_BITS),
                       y + tail) for mask, y in _half_cones(rows).items())
        chambers = [Chamber(text, witness, k)
                    for k, (text, witness) in enumerate(half)]
        # flipping every sign reverses the order, so the mirrors of the
        # half cones, taken backwards, follow them in sign order
        chambers += [Chamber(opposite_signs(c.signs),
                             [-x for x in c.witness], c.class_id)
                     for c in reversed(chambers)]
    if len(chambers) != expected:
        raise CountMismatch("cone count differs from the Zaslavsky count",
                            count=len(chambers), zaslavsky=expected)
    return ChamberCatalog(da, chambers)


def antipodal_classes(catalog):
    """Pair every chamber with its antipode.

    Returns [(rep, mate), ...] sorted by representative sign vector, where
    the representative is the member starting with +.  A missing antipode is
    an upstream enumeration bug and raises UnpairedChamber.
    """
    pairs = []
    for c in catalog:
        if not c.signs.startswith("+"):
            continue
        mate = catalog.find(opposite_signs(c.signs))
        if mate is None:
            raise UnpairedChamber("chamber without antipode", signs=c.signs)
        pairs.append((c, mate))
    if 2 * len(pairs) != len(catalog):
        raise UnpairedChamber("odd catalog", count=len(catalog))
    return pairs


class Classified:
    """Interior classification result: a sign vector and its class id."""

    __slots__ = ("signs", "class_id")

    def __init__(self, signs, class_id):
        self.signs = signs
        self.class_id = class_id

    def __repr__(self):
        return "Classified({!r}, class={})".format(self.signs, self.class_id)


class OnWall:
    """Degenerate classification result: b lies on these walls.

    A legitimate answer for boundary points, not an error; subsets lists
    every (m+1)-subset whose functional vanishes at b.
    """

    __slots__ = ("subsets",)

    def __init__(self, subsets):
        self.subsets = tuple(subsets)

    def __repr__(self):
        return "OnWall({})".format(list(self.subsets))


def classify_b(da, b, catalog=None):
    """Locate a constant vector b relative to the arrangement.

    Evaluates all C(n, m+1) functionals at b exactly.  Any zero yields an
    OnWall result naming the vanishing subsets; otherwise returns Classified
    with the sign vector and, when a catalog is supplied, its class id.
    The chamber found must have a witness with that sign vector under da:
    a catalog written for another system of the same shape can share sign
    vectors with this one, and then raises NotInCatalog, as a catalog
    without the sign vector does.
    """
    res = _locate(da, b)
    if catalog is not None and isinstance(res, Classified):
        hit = catalog.find(res.signs)
        if hit is None:
            raise NotInCatalog("sign vector missing from catalog",
                               signs=res.signs)
        got = _locate(da, hit.witness)
        if not isinstance(got, Classified) or got.signs != res.signs:
            raise NotInCatalog("catalog does not belong to the arrangement",
                               signs=res.signs)
        res.class_id = hit.class_id
    return res


def _locate(da, b):
    # classify_b without a catalog: the signs of the wall values of b
    # (discriminantal._wall_values)
    if len(b) != da.n:
        raise LengthMismatch("b must have one entry per hyperplane",
                             expected=da.n, got=len(b))
    vals = _wall_values(da.source, _int_row(b)[0])
    if all(vals):
        return Classified("".join(["+" if v > 0 else "-" for v in vals]),
                          None)
    return OnWall([s for s, v in zip(da.subsets, vals) if not v])


def _wall_is_facet(reduced, signs, i):
    # the shared face on hyperplane i has full facet dimension iff some
    # point of that hyperplane, in the basis of row i's annihilator
    # vectors, satisfies every other constraint strictly
    rows = [_int_row(row)[0] for row in reduced]
    basis = _pivot(_units(len(rows[i])), rows[i])
    folded = [tuple([_idot(row, z) if signs[j] == "+" else -_idot(row, z)
                     for z in basis])
              for j, row in enumerate(rows) if j != i]
    if not folded:
        return True
    if not basis:
        return False
    return feasible_strict(tuple(folded)) is not None


def shared_wall(da, signs_a, signs_b):
    """Index of the single separating hyperplane, or None.

    Two chambers share a facet iff their sign vectors differ in exactly one
    coordinate and that coordinate's hyperplane supports a common facet.
    """
    if len(signs_a) != len(signs_b):
        return None
    diff = [i for i, (x, y) in enumerate(zip(signs_a, signs_b)) if x != y]
    if len(diff) != 1:
        return None
    rows = quotient_rows(da)
    return diff[0] if _wall_is_facet(rows, signs_a, diff[0]) else None


def adjacency(catalog):
    """Facet-adjacency graph over the catalog's chambers.

    Maps each sign vector to the sorted tuple of neighboring sign vectors.
    In a real central arrangement two chambers whose sign vectors differ
    in exactly one hyperplane are adjacent across it (Edelman 1984;
    Bjorner et al., Oriented Matroids, ch. 4), so this is a dictionary
    pass over the pairs at Hamming distance one, with no LP.  It trusts
    the catalog's sign vectors as chambers of catalog.da: verify_catalog
    (catalog-verify) re-checks a loaded catalog, and shared_wall decides
    one pair from the arrangement alone.
    """
    out = {signs: [] for signs in catalog._index}
    for signs in out:
        for i, ch in enumerate(signs):
            if ch != "+":
                continue  # visit each unordered pair from its + side
            flipped = signs[:i] + "-" + signs[i + 1:]
            if flipped in out:
                out[signs].append(flipped)
                out[flipped].append(signs)
    return {k: tuple(sorted(v)) for k, v in out.items()}


def catalog_to_dict(catalog):
    """JSON-ready form of a catalog; witnesses as exact rational strings."""
    return {
        "n": catalog.da.n,
        "m": catalog.da.m,
        "count": len(catalog),
        "classes": catalog.class_count,
        "chambers": [{"signs": c.signs,
                      "witness": [rational_str(x) for x in c.witness],
                      "class": c.class_id}
                     for c in catalog],
    }


def catalog_text(data):
    """The catalog file: the text that json.dump(data, fh, sort_keys=True,
    indent=1) and a newline write, for data of the layout catalog_to_dict
    makes (every witness has n > 0 entries), laid out with one string
    format per chamber.

    Every string goes through the encoder json.dump uses for it
    (encode_basestring_ascii), so the escaping is json's, and a class id
    that is not an int (None in an unnumbered catalog) through
    json.dumps.  json.dump itself takes its pure-Python encoder whenever
    indent is set, about ten times slower on a catalog.
    """
    enc = encode_basestring_ascii
    items = [_CHAMBER % (e["class"] if type(e["class"]) is int
                         else dumps(e["class"]), enc(e["signs"]),
                         ",\n    ".join(map(enc, e["witness"])))
             for e in data["chambers"]]
    return _CATALOG % ("[\n%s\n ]" % ",\n".join(items) if items else "[]",
                       *map(dumps, (data["classes"], data["count"],
                                    data["m"], data["n"])))


def catalog_from_dict(da, data):
    """Catalog of da read back from catalog_to_dict output.

    A missing key or a wrong layout raises BadArtifact: "n" and "m" must
    be JSON integers (5.0 or true is not 5 or 1) and "chambers" a list;
    a witness entry that is not an exact rational raises BadRational.
    The whole catalog is checked in one pass first: every "signs" a
    string, every "witness" a list of n strings, every "class" a JSON
    integer, and the witnesses passed by exact_linalg._plain_integer_texts.
    Such a catalog, the form catalog_to_dict writes for a built one, keeps
    each witness as its comma-joined text, parsed to ints only when its
    chamber is read (ChamberCatalog).  Any other catalog is read entry by
    entry, in file order, by parse_rational, so the first bad entry is
    named.  Last, a witness without n entries or a class id that is not
    a JSON integer raises BadArtifact.
    """
    need = ('catalog needs integer "n" and "m" and a list "chambers" of '
            'entries with "signs", "witness" and "class"')
    try:
        n, m, entries = data["n"], data["m"], data["chambers"]
        signs, witnesses, classes = [list(map(itemgetter(key), entries))
                                     for key in ("signs", "witness", "class")]
    except (KeyError, TypeError):
        raise BadArtifact(need) from None
    if not (type(n) is int and type(m) is int and type(entries) is list):
        raise BadArtifact(need)
    if n != da.n or m != da.m:
        raise NotInCatalog("catalog shape does not match arrangement",
                           n=n, m=m)
    texts = _integer_texts(da.n, signs, witnesses, classes)
    if texts is not None:
        return ChamberCatalog._of_rows(da, list(zip(signs, texts, classes)))
    chambers = []
    for k, (s, witness, class_id) in enumerate(zip(signs, witnesses,
                                                   classes), start=1):
        if not (isinstance(s, str) and isinstance(witness, list)):
            raise BadArtifact('"signs" must be a string and "witness" a '
                              'list', chamber=k)
        point = [parse_rational(x, chamber=k, position=i)
                 for i, x in enumerate(witness, start=1)]
        chambers.append(Chamber(s, point, class_id))
    catalog = ChamberCatalog(da, chambers)
    # checked last, so every error the layout or an entry raises comes first
    for k, c in enumerate(chambers, start=1):
        if len(c.witness) != da.n:
            raise BadArtifact('"witness" must have n entries', chamber=k,
                              n=da.n)
        if type(c.class_id) is not int:
            raise BadArtifact('"class" must be an integer', chamber=k)
    return catalog


def _integer_texts(n, signs, witnesses, classes):
    """The comma-joined witnesses of a catalog that passes the one-pass
    check of catalog_from_dict, or None to read it entry by entry."""
    if not (set(map(type, signs)) == {str}
            and set(map(type, witnesses)) == {list}
            and set(map(len, witnesses)) == {n}
            and set(map(type, classes)) == {int}):
        return None  # also an empty catalog
    return _plain_integer_texts(witnesses, n * len(witnesses))


def verify_catalog(da, catalog):
    """Independent re-check of a catalog against its arrangement.

    Confirms witness signs by re-evaluation, antipodal pairing and class-id
    consistency, and the chamber count against the Zaslavsky count of the
    characteristic polynomial from the deletion recursion (whitney).
    Returns a report dict; the "ok" key is the conjunction of all checks.
    """
    witnesses_ok = True
    for c in catalog:
        got = _locate(da, c.witness)
        if not isinstance(got, Classified) or got.signs != c.signs:
            witnesses_ok = False
            break
    pairing_ok = True
    try:
        for k, (plus, minus) in enumerate(antipodal_classes(catalog)):
            if plus.class_id != minus.class_id or plus.class_id != k:
                pairing_ok = False
                break
    except UnpairedChamber:
        pairing_ok = False
    chi = whitney_charpoly(da)
    expected = zaslavsky_regions(chi)
    classes = catalog.class_count
    report = {
        "count": len(catalog),
        "zaslavsky": expected,
        "count_matches": len(catalog) == expected,
        "classes": classes,
        "class_count_matches": classes == iso_class_count(chi),
        "witnesses_ok": witnesses_ok,
        "pairing_ok": pairing_ok,
    }
    report["ok"] = (report["count_matches"] and report["class_count_matches"]
                    and witnesses_ok and pairing_ok)
    return report
