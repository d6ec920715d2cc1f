"""Reference derivations that only the tests use.

Each is a slow, direct computation that a production engine is checked
against; none of them is part of the library.
"""

import re
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, isqrt, lcm, prod
from operator import mul

from arrcensus.affine_geometry import (LineOrder, _directions, _kernel, _sides,
                                       sign_vector)
from arrcensus.chambers import (Chamber, ChamberCatalog, antipodal_classes,
                                opposite_signs, sign_cells)
from arrcensus.concurrency import SubsetCollection, _rank, _step, _universe
from arrcensus.discriminantal import build, quotient_rows
from arrcensus.errors import (BadArtifact, BadShape, BadSubsetSize,
                              NotGeneric, NotInCatalog, TooLarge)
from arrcensus.exact_linalg import (_digit_limit, _direction, _idot,
                                    _int_det, _int_row, determinant,
                                    feasible_strict, integer_primitive,
                                    lex_independent_columns, nullspace_basis,
                                    parse_rational, rank, solve_particular)
from arrcensus.normal_system import validate


def dot(u, v):
    """The exact dot product of two rational vectors, as a Fraction."""
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def primitive_int_rows(mat):
    """Each row scaled by a positive factor to coprime integers, as a
    tuple: spans, flats and signs are unchanged."""
    out = []
    for row in mat:
        ints = _int_row(row)[0]
        g = gcd(*ints)
        out.append(tuple(x // g for x in ints) if g > 1 else tuple(ints))
    return out


def matvec(mat, x):
    return tuple(dot(row, x) for row in mat)


def find_interior_point(mat, signs):
    """Exact x with sign(row_i . x) = signs_i for all i, or None.

    signs entries are '+'/'-' (or +1/-1).  Deterministic for fixed input.
    """
    if len(signs) != len(mat):
        raise BadShape("one sign per row required",
                       rows=len(mat), signs=len(signs))
    folded = []
    for row, s in zip(mat, signs):
        if s in ("+", 1):
            folded.append(tuple(Fraction(a) for a in row))
        elif s in ("-", -1):
            folded.append(tuple(-Fraction(a) for a in row))
        else:
            raise BadShape("signs must be '+' or '-'", got=repr(s))
    return feasible_strict(folded)


def common_intersection_dim(da):
    """Dimension of the intersection of all hyperplanes; always >= m."""
    return da.n - rank(da.normals)


def stack_normals(da, D):
    """Normal rows of the members of D, in the order given."""
    rows = []
    for S in D:
        s = tuple(sorted(S))
        if len(s) != da.m + 1 or s not in da.index:
            raise BadSubsetSize("members must be (m+1)-subsets of {1..n}",
                                member=list(S), m=da.m, n=da.n)
        rows.append(da.normals[da.index[s]])
    return rows


def subset_rank(da, D):
    """Rank of the stacked normals of the members of D (0 for empty D)."""
    rows = stack_normals(da, D)
    if not rows:
        return 0
    return rank(rows)


def brute_flats(rows):
    """Every flat of rows by closing every row subset.

    Returns {mask: (rank, lower covers)}, bit j of a mask for row j.  The
    closure of a subset S adds each row j with rank(S + j) = rank(S); the
    rank of every subset is computed once, so a closure is a table read.
    The lower covers of G are the flats inside G of rank one less.
    """
    N = len(rows)
    ranks = [rank([rows[j] for j in range(N) if S >> j & 1])
             for S in range(1 << N)]
    flats = {}
    for S in range(1 << N):
        G = S | sum(1 << j for j in range(N) if ranks[S | 1 << j] == ranks[S])
        flats[G] = ranks[S]
    return {G: (r, {F for F, s in flats.items()
                    if not F & ~G and s == r - 1})
            for G, r in flats.items()}


# The integer echelon kernel, the reference that the packed crawl of
# exact_linalg.flat_levels is checked against.  A flat (a row space) is
# keyed by its canonical integer echelon basis: a tuple of (pivot
# column, row) pairs in pivot order, every row primitive with a positive
# pivot entry and zeros in the other rows' pivot columns.  That is the
# RREF scaled row by row to coprime integers, so it is unique.  Rows are
# reduced and inserted by cross-multiplication plus gcd; no Fraction is
# made.


def echelon_residual(basis, vec):
    """vec reduced against an echelon basis, or None if it is in the span.

    The residual is primitive with its first nonzero entry positive.  It
    is zero in every pivot column and the map is linear up to a positive
    factor, so two vectors outside the span give the same residual
    exactly when they span the same flat together with the basis.
    """
    v = vec
    for p, row in basis:
        c = v[p]
        if c:
            a = row[p]
            v = [a * x - c * y for x, y in zip(v, row)]
    g = gcd(*v)
    if not g:
        return None
    if next(x for x in v if x) < 0:
        g = -g
    return tuple([x // g for x in v])


def echelon_insert(basis, w):
    """Echelon basis of span(basis + w) for a residual w of that basis."""
    q = next(i for i, x in enumerate(w) if x)
    a = w[q]
    out = []
    for p, row in basis:
        c = row[q]  # zero unless p < q
        if c:
            r = [a * x - c * y for x, y in zip(row, w)]
            h = gcd(*r)
            row = tuple([x // h for x in r])
        out.append((p, row))
    out.insert(sum(1 for p, _ in basis if p < q), (q, w))
    return tuple(out)


def cocircuit_by_echelon(basis, w):
    """Integer y orthogonal to a flat, with w . y != 0.

    basis is the flat's echelon basis and w a residual against it, so w
    is zero in the flat's pivot columns and its first nonzero column q is
    free.  y is supported on those pivots and q: y_q = L, the lcm of the
    pivot entries, and y_p = -L row[q] / row[p] cancels row on q.
    """
    q = next(i for i, x in enumerate(w) if x)
    L = lcm(*(row[p] for p, row in basis))
    y = [0] * len(w)
    y[q] = L
    for p, row in basis:
        y[p] = -(L // row[p]) * row[q]
    g = gcd(*y)
    return [x // g for x in y]


def tuple_bfs_free(ns):
    """Concurrency freeness by a breadth-first search over independent
    tuples of walls; (free, witness).

    Level k holds every increasing tuple of k - 1 wall positions whose
    combinatorial rank is k - 1, with the closed family of its members
    and integer annihilator vectors of its rows in the n - m quotient
    coordinates.  A child tuple of combinatorial rank k whose row is
    orthogonal to every annihilator vector is dependent; the first level
    with a dependent tuple gives the lex-first one as the witness.
    """
    n, m = ns.n, ns.m
    subsets, imasks = _universe(n, m)
    kmax = n - m
    rows = quotient_rows(build(ns))
    level = [((), (), tuple(tuple(int(i == j) for i in range(kmax))
                            for j in range(kmax)))]
    for k in range(1, kmax + 1):
        bad = []
        nxt = []
        for tup, family, zs in level:
            for q in range(tup[-1] + 1 if tup else 0, len(subsets)):
                grown = _step(m, family, imasks[q])
                if _rank(m, grown) != k:
                    continue
                ds = [sum(map(mul, z, rows[q])) for z in zs]
                j = next((i for i, d in enumerate(ds) if d), None)
                if j is None:
                    bad.append(tup + (q,))
                elif not bad and k < kmax:
                    nxt.append((tup + (q,), grown, _pivot(zs, ds, j)))
        if bad:
            witness = min(tuple(subsets[p] for p in t) for t in bad)
            return False, SubsetCollection(n, m, witness)
        level = nxt
    return True, None


def _pivot(zs, ds, j):
    """Annihilator basis of the rows behind zs plus one row r, given the
    dot products ds of r with zs and a pivot j with ds[j] != 0."""
    zj, dj = zs[j], ds[j]
    out = []
    for i, (z, d) in enumerate(zip(zs, ds)):
        if i != j:
            if d:
                v = [dj * x - d * y for x, y in zip(z, zj)]
                g = gcd(*v)
                z = tuple([x // g for x in v])
            out.append(z)
    return tuple(out)


def disc_normals(data):
    """The exact normals of a disc artifact (da_to_dict output)."""
    return tuple(tuple(parse_rational(a) for a in h["normal"])
                 for h in data["hyperplanes"])


def build_by_minors(ns):
    """The walls' Fraction normals, one determinant per Fraction minor."""
    n, m = ns.n, ns.m
    subsets = list(combinations(range(1, n + 1), m + 1))
    normals = []
    for S in subsets:
        vec = [Fraction(0)] * n
        for k, i in enumerate(S, start=1):
            minor = [list(ns.rows[j - 1]) for j in S if j != i]
            sign = -1 if (m + 1 + k) % 2 else 1
            vec[i - 1] = sign * determinant(minor)
        normals.append(tuple(vec))
    return tuple(normals)


def brute_build(ns):
    """(subsets, normals, int_rows) of the walls, with one Bareiss
    determinant per wall coefficient, on the rows scaled to integers once.

    The coefficient of row i in the wall of S is the signed minor of the
    scaled rows of S without i over the product of their scales; its
    integer row is that minor times the scale of row i, over the gcd.
    """
    n, m = ns.n, ns.m
    subsets = list(combinations(range(1, n + 1), m + 1))
    scaled = [_int_row(row) for row in ns.rows]
    normals = []
    int_rows = []
    for S in subsets:
        vec = [Fraction(0)] * n
        ints = [0] * n
        for k, i in enumerate(S, start=1):
            rest = [scaled[j - 1] for j in S if j != i]
            minor = _int_det([list(row) for row, _ in rest])
            if (m + 1 + k) % 2:
                minor = -minor
            vec[i - 1] = Fraction(minor, prod(d for _, d in rest))
            ints[i - 1] = minor * scaled[i - 1][1]
        g = gcd(*ints)
        normals.append(tuple(vec))
        int_rows.append(tuple(x // g for x in ints) if g > 1
                        else tuple(ints))
    return tuple(subsets), tuple(normals), tuple(int_rows)


def quotient_by_cut(ns):
    """The quotient rows of the walls of ns, as quotient_rows made them
    before build made them: brute_build's primitive integer rows cut to
    their first n - m coordinates and made primitive again."""
    k = ns.n - ns.m
    out = []
    for row in brute_build(ns)[2]:
        cut = row[:k]
        g = gcd(*cut)
        out.append(tuple(x // g for x in cut) if g > 1 else tuple(cut))
    return out


def minor_table_by_combinations(rows, m):
    """exact_linalg.minor_table level by level over combinations: each
    (k+1)-subset U of the rows, its mask summed from its bits, is the
    Laplace expansion along column k over the k-subsets of U, with signs
    alternating from + at the last row of U."""
    n = len(rows)
    bit = [1 << i for i in range(n)]
    level = {0: 1}
    for k in range(m):
        col = [row[k] for row in rows]
        up = {}
        for U in combinations(range(n), k + 1):
            M = sum(map(bit.__getitem__, U))
            s = 0
            plus = True
            for i in reversed(U):
                a = col[i]
                if a:
                    s += a * level[M ^ bit[i]] if plus else \
                        -a * level[M ^ bit[i]]
                plus = not plus
            up[M] = s
        level = up
    return level


def planes_by_pairs(rows):
    """(G(0, {0}) by exponent, P) of integer rows of rank 3, from one
    pass over the C(L, 2) pairs of distinct lines: each pair's cross
    product, made a primitive direction, is the normal of the plane it
    spans, so a plane of s lines is met C(s, 2) times and s is read back
    from that count; P is the number of planes."""
    lines = sorted({_direction(row) for row in rows})
    L = len(lines)
    planes = {}
    for i, (a, b, c) in enumerate(lines, 1):
        for d, e, f in lines[i:]:
            p = _direction((b * f - c * e, c * d - a * f, a * e - b * d))
            planes[p] = planes.get(p, 0) + 1
    # t = s (s - 1) / 2 pairs give 8 t + 1 = (2 s - 1)^2
    b2 = sum(isqrt(8 * t + 1) // 2 for t in planes.values())
    return [L - 1 - b2, b2, -L, 1], len(planes)


def feasible_strict_full_tableau(rows):
    """Phase-1 simplex for row . x >= 1 on the full integer tableau.

    Every variable (u, v with x = u - v, surplus w, artificial z) has its
    own column, the ratio test compares Fractions, and Bland's rule picks
    the entering and leaving variables.
    """
    nr = len(rows)
    if nr == 0:
        return ()
    d = len(rows[0])
    irows = []
    for r in rows:
        fr = [Fraction(a) for a in r]
        den = lcm(*(f.denominator for f in fr)) if fr else 1
        irows.append([int(f * den) for f in fr])
    width = 2 * d + 2 * nr + 1
    tab = [[0] * width for _ in range(nr)]
    for i, r in enumerate(irows):
        for j, a in enumerate(r):
            tab[i][j] = a
            tab[i][d + j] = -a
        tab[i][2 * d + i] = -1
        tab[i][2 * d + nr + i] = 1
        tab[i][-1] = 1
    basis = [2 * d + nr + i for i in range(nr)]
    ncols = width - 1
    red = [(1 if j >= 2 * d + nr else 0) - sum(tab[i][j] for i in range(nr))
           for j in range(ncols)]
    det = 1
    while True:
        sgn = 1 if det > 0 else -1
        enter = next((j for j in range(ncols) if sgn * red[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(nr):
            if sgn * tab[i][enter] > 0:
                ratio = Fraction(tab[i][-1], tab[i][enter])
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            break
        prow = tab[leave]
        piv = prow[enter]
        for i in range(nr):
            if i != leave:
                f = tab[i][enter]
                tab[i] = [(x * piv - f * y) // det
                          for x, y in zip(tab[i], prow)]
        f = red[enter]
        red = [(x * piv - f * y) // det for x, y in zip(red, prow)]
        basis[leave] = enter
        det = piv
    value = sum((Fraction(tab[i][-1], det) for i, bv in enumerate(basis)
                 if bv >= 2 * d + nr), Fraction(0))
    if value != 0:
        return None
    x = [Fraction(0)] * d
    for i, bv in enumerate(basis):
        if bv < d:
            x[bv] += Fraction(tab[i][-1], det)
        elif bv < 2 * d:
            x[bv - d] -= Fraction(tab[i][-1], det)
    return tuple(x)


def wall_is_facet_by_nullspace(reduced, signs, i):
    """chambers._wall_is_facet in Fraction arithmetic: the hyperplane of
    row i spanned by the rref nullspace basis, the other rows folded on
    it with the Fraction dot."""
    basis = nullspace_basis([reduced[i]])
    folded = [tuple((1 if signs[j] == "+" else -1) * dot(row, bv)
                    for bv in basis)
              for j, row in enumerate(reduced) if j != i]
    if not folded:
        return True
    if not basis:
        return False
    return feasible_strict(tuple(folded)) is not None


def _feasible_lazy_fraction(folded, flipped, seed=()):
    active = [flipped] + [folded[j] for j in seed]
    left = set(range(len(folded))) - set(seed)
    while True:
        pt = feasible_strict_full_tableau(tuple(active))
        if pt is None:
            return None
        viol = [j for j in sorted(left) if dot(folded[j], pt) <= 0]
        if not viol:
            return pt
        for j in viol:
            active.append(folded[j])
            left.discard(j)


def _opposite_fraction(folded, flipped, w):
    rr = dot(flipped, flipped)
    t = dot(flipped, w) / rr
    p = tuple(wi - t * fi for wi, fi in zip(w, flipped))
    bound = None
    bad = []
    for j, f in enumerate(folded):
        fp = dot(f, p)
        if fp <= 0:
            bad.append(j)
            continue
        fd = dot(f, flipped)
        if fd < 0:
            b = fp / -fd
            if bound is None or b < bound:
                bound = b
    if not bad:
        eps = bound / 2 if bound is not None else Fraction(1)
        return tuple(pi + eps * fi for pi, fi in zip(p, flipped))
    return _feasible_lazy_fraction(folded, flipped, seed=bad)


def sign_cells_fraction(rows, dim, base_rows=(), half=False):
    """chambers.sign_cells done in Fractions on the full-tableau simplex.

    Rows and witnesses are rational; the foot of the perpendicular, the
    step bound and every sign test are Fraction arithmetic.
    """
    rows = [tuple(Fraction(a) for a in r) for r in rows]
    base = tuple(tuple(Fraction(a) for a in r) for r in base_rows)
    if base:
        w0 = feasible_strict_full_tableau(base)
        if w0 is None:
            return []
    else:
        w0 = (Fraction(0),) * dim
    cells = [((), base, w0)]
    for row in rows:
        grown = []
        for signs, folded, w in cells:
            v = dot(row, w)
            if v != 0:
                s = 1 if v > 0 else -1
                srow = row if s > 0 else tuple(-x for x in row)
                orow = tuple(-x for x in srow)
                grown.append((signs + (s,), folded + (srow,), w))
                pt = _opposite_fraction(folded, orow, w)
                if pt is not None:
                    grown.append((signs + (-s,), folded + (orow,), pt))
            else:
                for s in ((1,) if half and not signs else (1, -1)):
                    srow = row if s > 0 else tuple(-x for x in row)
                    pt = _feasible_lazy_fraction(folded, srow)
                    if pt is not None:
                        grown.append((signs + (s,), folded + (srow,), pt))
        cells = grown
    return [(signs, w) for signs, _, w in cells]


def walk_catalog(da):
    """Chamber catalog by the insertion walk (chambers.sign_cells).

    The normals are restricted to their lexicographically first columns
    of full rank, the cells with first sign + are walked and mirrored,
    and witnesses are lifted back by zero-filling, as enumerate_chambers
    did before it composed cones from cocircuits.
    """
    cols = lex_independent_columns(da.normals, rank(da.normals))
    reduced = [tuple(Fraction(row[j]) for j in cols) for row in da.normals]
    chambers = []
    for signs, y in sign_cells(reduced, len(cols), half=True):
        witness = [Fraction(0)] * da.n
        for t, c in enumerate(cols):
            witness[c] = y[t]
        text = "".join("+" if s > 0 else "-" for s in signs)
        chambers.append(Chamber(text, witness))
        chambers.append(Chamber(opposite_signs(text),
                                [-x for x in witness]))
    catalog = ChamberCatalog(da, chambers)
    for k, (plus, minus) in enumerate(antipodal_classes(catalog)):
        plus.class_id = k
        minus.class_id = k
    return catalog


# witnesses of plain integer strings "p", joined by commas
_INTEGERS = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*").fullmatch


def integer_texts_by_regex(n, signs, witnesses, classes):
    """chambers._integer_texts with one regex match over all the witness
    entries joined by commas, and n * count - 1 commas, so that no entry
    holds one; no joined witness may be longer than int's digit limit."""
    if not (set(map(type, signs)) == {str}
            and set(map(type, witnesses)) == {list}
            and set(map(len, witnesses)) == {n}
            and set(map(type, classes)) == {int}):
        return None
    try:
        texts = list(map(",".join, witnesses))
    except TypeError:
        return None
    text = ",".join(texts)
    limit = _digit_limit()
    if (_INTEGERS(text) and text.count(",") == n * len(texts) - 1
            and not (limit and any(len(t) > limit for t in texts))):
        return texts
    return None


def catalog_by_entry(da, data):
    """chambers.catalog_from_dict read chamber by chamber: a witness of
    plain integer strings in one match of its comma-joined text, if that
    is no longer than int's digit limit, any other entry by entry through
    parse_rational, every Chamber made at once and sorted by signs."""
    need = ('catalog needs integer "n" and "m" and a list "chambers" of '
            'entries with "signs", "witness" and "class"')
    try:
        n, m = data["n"], data["m"]
        entries = [(e["signs"], e["witness"], e["class"])
                   for e in data["chambers"]]
    except (KeyError, TypeError):
        raise BadArtifact(need) from None
    if not (type(n) is int and type(m) is int
            and type(data["chambers"]) is list):
        raise BadArtifact(need)
    if n != da.n or m != da.m:
        raise NotInCatalog("catalog shape does not match arrangement",
                           n=n, m=m)
    chambers = []
    for k, (signs, witness, class_id) in enumerate(entries, start=1):
        if not (isinstance(signs, str) and isinstance(witness, list)):
            raise BadArtifact('"signs" must be a string and "witness" a '
                              'list', chamber=k)
        try:
            text = ",".join(witness)
        except TypeError:  # an entry that is not a string
            text = ""
        limit = _digit_limit()
        if (_INTEGERS(text) and text.count(",") == len(witness) - 1
                and (not limit or len(text) <= limit)):
            point = tuple(map(int, text.split(",")))
        else:
            point = tuple([parse_rational(x, chamber=k, position=i)
                           for i, x in enumerate(witness, start=1)])
        chambers.append(Chamber(signs, point, class_id))
    catalog = ChamberCatalog(da, sorted(chambers, key=lambda c: c.signs))
    for k, c in enumerate(chambers, start=1):
        if len(c.witness) != da.n:
            raise BadArtifact('"witness" must have n entries', chamber=k,
                              n=da.n)
        if type(c.class_id) is not int:
            raise BadArtifact('"class" must be an integer', chamber=k)
    return catalog


def ns_by_parse_rational(data):
    """normal_system.ns_from_dict with every entry read by parse_rational
    and made a Fraction, so validate always takes its Fraction path."""
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
    return validate([[Fraction(parse_rational(a, row=i, column=j))
                      for j, a in enumerate(row, start=1)]
                     for i, row in enumerate(rows, start=1)], m)


def _affine_cells(arr):
    # homogenize: region sign vectors of {a.x > b} match cone sign vectors
    # of {(a,-b).(x,t) > 0} on the side t > 0
    ns = arr.system
    rows = [tuple(a) + (-bi,) for a, bi in zip(ns.rows, arr.b)]
    base = [(0,) * ns.m + (1,)]
    return [signs for signs, _ in sign_cells(rows, ns.m + 1, base_rows=base)]


def _left_kernel(ns):
    # one integer row per hyperplane i: entry k is entry i of the k-th
    # basis vector of the left kernel of the normals, times the row's lcm
    kernel = nullspace_basis(list(zip(*ns.rows)))
    return [_int_row([k[i] for k in kernel])[0] for i in range(ns.n)]


def _is_bounded(cols, signs):
    # recession cone {d : sign_i * a_i . d >= 0} is trivial iff some strictly
    # positive combination of the signed rows vanishes (Gordan/Stiemke); the
    # left kernel of the plain rows is computed once, signs only flip it
    return feasible_strict(tuple(
        row if s > 0 else [-x for x in row]
        for row, s in zip(cols, signs))) is not None


def _walls(ns, b):
    # per wall i, the other hyperplanes j read on a parametrization of the
    # wall, homogenized: an integer row per j, to be signed by the region
    out = []
    for i in range(1, ns.n + 1):
        rows = [ns.rows[i - 1]]
        p0 = solve_particular(rows, [b[i - 1]])
        d = nullspace_basis(rows)
        out.append([(j, _int_row([dot(ns.rows[j - 1], dv) for dv in d]
                                 + [dot(ns.rows[j - 1], p0) - b[j - 1]])[0])
                    for j in range(1, ns.n + 1) if j != i])
    return out


def _facets(walls, signs):
    # indices i whose wall holds an (m-1)-dimensional face of the region:
    # ask for a point of the wall satisfying every other constraint strictly
    out = []
    for i, others in enumerate(walls, start=1):
        folded = [row if signs[j - 1] > 0 else [-x for x in row]
                  for j, row in others]
        hom = [0] * (len(folded[0]) - 1) + [1]
        if feasible_strict(tuple(folded) + (hom,)) is not None:
            out.append(i)
    return out


def regions_lp(arr):
    """{region sign vector (+-1 tuple): bounded?} by the LP cell walk.

    The regions are the cells of the homogenized rows on the side t > 0;
    a region is bounded iff its signed rows have a strictly positive
    vanishing combination, one LP on the left kernel of the normals.
    """
    cols = _left_kernel(arr.system)
    return {signs: _is_bounded(cols, signs) for signs in _affine_cells(arr)}


def triangles_lp(arr, regions):
    """affine_geometry.simplex_signature by one facet LP per wall.

    regions is regions_lp(arr); a triangle is a bounded region with
    exactly three facets, and its triple names the walls that hold them.
    """
    walls = _walls(arr.system, arr.b)
    triples = set()
    for signs, bounded in regions.items():
        if bounded:
            facets = _facets(walls, signs)
            if len(facets) == 3:
                triples.add(tuple(facets))
    return triples


def genericity_witness_da(arr):
    """affine_geometry.genericity_witness on the discriminantal functionals.

    The lex-first (m+1)-subset whose functional of build(arr.system)
    vanishes at b, evaluated with the Fraction dot, or None.
    """
    da = build(arr.system)
    for subset, normal in zip(da.subsets, da.normals):
        if dot(normal, arr.b) == 0:
            return subset
    return None


def vertex_orders_fraction(arr):
    """affine_geometry.vertex_orders by solving each line in Fractions.

    A line is a particular solution of its equations plus the primitive
    generator of their nullspace; a vertex's parameter is where the other
    hyperplane meets that parametrization.
    """
    witness = genericity_witness_da(arr)
    if witness is not None:
        raise NotGeneric("m+1 hyperplanes pass through a common point",
                         subset=list(witness))
    ns = arr.system
    table = {}
    for A in combinations(range(1, ns.n + 1), ns.m - 1):
        rows = [ns.rows[i - 1] for i in A]
        p0 = solve_particular(rows, [arr.b[i - 1] for i in A])
        d = integer_primitive(nullspace_basis(rows)[0])
        hits = []
        for j in range(1, ns.n + 1):
            if j in A:
                continue
            aj = ns.rows[j - 1]
            t = (arr.b[j - 1] - dot(aj, p0)) / dot(aj, d)
            hits.append((t, tuple(sorted(A + (j,)))))
        hits.sort()
        table[A] = LineOrder(d, tuple(v for _, v in hits),
                             tuple(t for t, _ in hits))
    return table


def vertex_table(arr):
    """The vertex table of arr, or its lex-first concurrent (m+1)-subset.

    The table maps each m-subset S (0-based, lex order) to (v, side): v is
    v_S, the signed maximal minors of the homogenized integer rows
    (a_i, -b_i) of S with its last coordinate made positive, so the
    hyperplanes of S meet at v[:m] / v[m]; bit j of side is set when
    a_j . x > b_j there.  Row j vanishes at v_S exactly when the m + 1
    hyperplanes of S + {j} concur, and then that subset (1-based) is
    returned instead of a table.  A concurrent (m+1)-subset is first met
    at S = its first m members and j its last, so the first one met is
    the lex-first.
    """
    ns = arr.system
    hom = [_int_row(tuple(a) + (-bi,))[0] for a, bi in zip(ns.rows, arr.b)]
    table = {}
    for S in combinations(range(ns.n), ns.m):
        v = _kernel([hom[i] for i in S])
        if v[-1] < 0:
            v = [-x for x in v]
        side = 0
        for j, h in enumerate(hom):
            val = _idot(h, v)
            if val > 0:
                side |= 1 << j
            elif not val and j not in S:
                return tuple(i + 1 for i in S + (j,))
        table[S] = v, side
    return table


def sides_by_wall_lookup(arr):
    """affine_geometry._sides as a dict from every wall mask to its sign,
    looked up once per (vertex, row): bit j of the side of S is set when
    s_{S+j} equals the sign that puts row j on the positive side at v_S,
    -(-1)^(p+m) sign(minors[S]) for p the members of S below j."""
    ns = arr.system
    n, m = ns.n, ns.m
    masks = map(sum, combinations([1 << i for i in range(n)], m + 1))
    signs = dict(zip(masks, sign_vector(arr)))
    sides = {}
    for S in combinations(range(n), m):
        M = sum([1 << i for i in S])
        # the sign s_{S+j} takes when row j is positive at v_S, for p = 0
        t = -1 if (ns.minors[M] > 0) == (m % 2 == 0) else 1
        side = 0
        for j in range(n):
            if M >> j & 1:
                t = -t
            elif signs[M | 1 << j] == t:
                side |= 1 << j
        sides[S] = side
    return sides


def _generic_table(arr):
    table = vertex_table(arr)
    if isinstance(table, tuple):
        raise NotGeneric("m+1 hyperplanes pass through a common point",
                         subset=list(table))
    return table


MAX_REGIONS = 10 ** 4  # the most regions _regions enumerates


def _submasks(idx):
    # the 2^len(idx) masks made of bits from idx
    masks = [0]
    for i in idx:
        masks += [x | 1 << i for x in masks]
    return masks


def _regions(arr):
    """Regions of a generic arrangement, read off the sign vector of b.

    Returns {mask: vertices}, where bit i of mask is set when the region
    lies on the side a_i . x > b_i, and vertices lists the m-subsets S
    (0-based, lex order) whose vertex v_S is a vertex of the region.  The
    normals span R^m, so every region is pointed and has a vertex; around
    v_S the m hyperplanes of S cut all 2^m sign patterns, and the others
    keep their sign at v_S (affine_geometry._sides).  So the regions are
    the union of those patterns.  TooLarge is raised before any work when
    the Zaslavsky count passes MAX_REGIONS.
    """
    n, m = arr.system.n, arr.system.m
    count = sum(comb(n, i) for i in range(m + 1))
    if count > MAX_REGIONS:
        raise TooLarge("region count exceeds the configured limit",
                       count=count, limit=MAX_REGIONS)
    regions = {}
    for S, side in _sides(arr).items():
        for sub in _submasks(S):
            regions.setdefault(side | sub, []).append(S)
    return regions


def _unbounded(ns):
    """Sign masks of ray-holding regions: a region is unbounded iff its
    mask is in this set.

    A region is unbounded iff its recession cone has an extreme ray, and
    each such ray is +-d_A for an (m-1)-subset A, d_A the direction of
    line A: a region holds it iff its signs off A are those of
    +-(a_j . d_A), whatever its signs on A.  d_A is the kernel vector of
    the normals of A (_kernel) times a factor shared by every j, and
    a_j . d_A is then det([a_j; a_A]) = (-1)^p det(a_{A+j}), for
    p = #{i in A : i < j}: up to that factor's sign, which does not
    matter since both signs are taken, a_j . d_A > 0 iff
    (-1)^p minors[A+j] > 0.
    """
    n, minors = ns.n, ns.minors
    full = (1 << n) - 1
    out = set()
    for A in combinations(range(n), ns.m - 1):
        M = sum([1 << i for i in A])
        ahead = 0
        t = 1
        for j in range(n):
            if M >> j & 1:
                t = -t
            elif (minors[M | 1 << j] > 0) == (t > 0):
                ahead |= 1 << j
        behind = full & ~ahead & ~M
        for sub in _submasks(A):
            out.add(ahead | sub)
            out.add(behind | sub)
    return out


def regions_by_vertex_table(arr):
    """_regions from the sides of the vertex table: the 2^m sign patterns
    around each vertex, with no region guard."""
    regions = {}
    for S, (_, side) in _generic_table(arr).items():
        for sub in _submasks(S):
            regions.setdefault(side | sub, []).append(S)
    return regions


def unbounded_by_directions(ns):
    """_unbounded from the line directions d_A: the masks
    whose signs off A are those of +-(a_j . d_A)."""
    normals = [_int_row(a)[0] for a in ns.rows]
    full = (1 << ns.n) - 1
    out = set()
    for A, d in _directions(normals, ns.m).items():
        ahead = sum(1 << j for j, a in enumerate(normals) if _idot(a, d) > 0)
        behind = full & ~ahead & ~sum(1 << i for i in A)
        for sub in _submasks(A):
            out.add(ahead | sub)
            out.add(behind | sub)
    return out


def census_by_regions(arr):
    """affine_geometry.region_census by enumeration: the regions of
    _regions, the 2^m sign patterns around every vertex, those of
    _unbounded unbounded."""
    regions = _regions(arr)
    unbounded = _unbounded(arr.system)
    out = sum(1 for r in regions if r in unbounded)
    return {"total": len(regions), "bounded": len(regions) - out,
            "unbounded": out}


def census_by_vertex_table(arr):
    """affine_geometry.region_census from the vertex table."""
    regions = regions_by_vertex_table(arr)
    unbounded = unbounded_by_directions(arr.system)
    out = sum(1 for r in regions if r in unbounded)
    return {"total": len(regions), "bounded": len(regions) - out,
            "unbounded": out}


def signature_by_vertex_table(arr):
    """affine_geometry.simplex_signature from the vertex table: the bounded
    regions with exactly three vertices."""
    regions = regions_by_vertex_table(arr)
    unbounded = unbounded_by_directions(arr.system)
    return {tuple(sorted({i + 1 for S in verts for i in S}))
            for r, verts in regions.items()
            if len(verts) == 3 and r not in unbounded}


def orders_by_vertex_table(arr):
    """{A: vertex order} on every line (1-based), sorted by the exact
    parameter x_f / d_f of each vertex of the vertex table, f the last
    coordinate with d_f != 0."""
    table = _generic_table(arr)
    normals = [_int_row(a)[0] for a in arr.system.rows]
    out = {}
    for A, d in _directions(normals, arr.system.m).items():
        f = max(i for i, x in enumerate(d) if x)
        hits = []
        for j in range(arr.system.n):
            if j not in A:
                S = tuple(sorted(A + (j,)))
                v = table[S][0]
                hits.append((Fraction(v[f], v[-1] * d[f]),
                             tuple(i + 1 for i in S)))
        out[tuple(i + 1 for i in A)] = tuple(S for _, S in sorted(hits))
    return out


def iso_by_vertex_orders(a1, a2):
    """affine_geometry.are_isomorphic_trivial by comparing the vertex
    orders of the two vertex tables line by line, up to reversal."""
    t1 = orders_by_vertex_table(a1)
    t2 = orders_by_vertex_table(a2)
    return all(order in (t2[A], t2[A][::-1]) for A, order in t1.items())
