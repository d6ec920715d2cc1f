"""Answer checks, run after the timed job list in a separate process.

Gallery systems are checked against the published goldens; seeded systems
against an independent derivation:

- poset (`count`, `census --mode ns-file`) and whitney (`charpoly`)
  coefficients equal the benchmark's own subset expansion mod a prime, and
  the cone and class counts follow from them;
- a catalog has chi(-1) cones and every witness reproduces its signs;
- classifying a catalog witness, a random b or a b placed on a wall gives
  the signs, class or walls evaluated here from the wall normals;
- iso agrees with class-id equality; region totals of a generic planar or
  spatial arrangement are sum_{i<=m} C(n, i) with C(n-1, m) bounded;
- adjacency graphs are symmetric single-sign flips, and swap_check holds;
- a free verdict agrees with the wall ranks of every concurrency-closed
  collection, and a non-free witness is a minimal generating collection
  (as many members as its combinatorial rank) with dependent wall normals;
- closures equal the walls through the flat of the members, computed on a
  concurrency-free system of the same shape.
"""

import json
import os
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

from arrcensus.charpoly import combinatorial_charpoly
from arrcensus.concurrency import SubsetCollection, combinatorial_rank
from arrcensus.discriminantal import build
from arrcensus.exact_linalg import rank
from arrcensus.normal_system import validate

from plan import catalog_path

GOLDEN_CONES = {"three_lines": 2, "four_lines": 8, "five_lines": 62,
                "six_lines_free": 892, "six_lines_perpendicular_pairs": 884,
                "six_lines_mixed_slopes": 888, "six_planes_free": 140,
                "six_planes_chain": 132}
GOLDEN_FREE = {"three_lines": True, "four_lines": True, "five_lines": True,
               "six_lines_free": True, "six_lines_perpendicular_pairs": False,
               "six_lines_mixed_slopes": False,
               "six_lines_distinct_slopes": False, "six_planes_chain": False,
               "six_planes_curve": False, "six_planes_free": True}
# census 2, 8, 62, 892 (planar), 140 (six planes); a free (7,5) system has
# a rank-2 arrangement of C(7,6) = 7 walls, hence 14 cones
GOLDEN_CENSUS = {(3, 2): 2, (4, 2): 8, (5, 2): 62, (6, 2): 892,
                 (6, 3): 140, (7, 5): 14}
FREE_GALLERY = {(4, 2): "four_lines", (5, 2): "five_lines",
                (6, 2): "six_lines_free", (6, 3): "six_planes_free"}


def zaslavsky(coeffs):
    """(-1)^n chi(-1) for coefficients from degree n down to 0."""
    n = len(coeffs) - 1
    value = sum(c * (-1) ** (n - i) for i, c in enumerate(coeffs))
    return value if n % 2 == 0 else -value


P = 2 ** 61 - 1


def _extend(basis, vec):
    """Reduced echelon basis mod P of span(basis + vec), as sorted tuples."""
    v = list(vec)
    for row in basis:
        f = v[row[0]]
        if f:
            v = [(a - f * b) % P for a, b in zip(v, row[1])]
    pivot = next((j for j, a in enumerate(v) if a), None)
    if pivot is None:
        return basis
    inv = pow(v[pivot], P - 2, P)
    v = tuple(a * inv % P for a in v)
    rows = [(pivot, v)]
    for p, row in basis:
        f = row[pivot]
        rows.append((p, tuple((a - f * b) % P for a, b in zip(row, v))
                     if f else row))
    return tuple(sorted(rows))


def chi_mod_p(normals, n):
    """Characteristic polynomial by subset expansion, ranks taken mod P.

    An engine of the benchmark's own, independent of arrcensus.charpoly:
    sum over wall subsets B of (-1)^|B| x^(n - rank B), memoised on
    (next wall, span), with the span kept as a reduced echelon basis mod
    the prime P = 2^61 - 1.  A rank mod P can only drop below the rank over
    Q when P divides a minor of the integer normals, which for entries of a
    few dozen bits does not happen in practice; a drop would fail a check,
    never pass one wrongly.
    """
    rows = []
    for normal in normals:
        scale = lcm(*(Fraction(a).denominator for a in normal))
        rows.append(tuple(int(Fraction(a) * scale) % P for a in normal))
    memo = {}

    def go(i, basis):
        if i == len(rows):
            out = [0] * (n + 1)
            out[len(basis)] = 1  # coefficient of x^(n - rank), from x^n down
            return out
        key = (i, basis)
        if key not in memo:
            skip = go(i + 1, basis)
            take = go(i + 1, _extend(basis, rows[i]))
            memo[key] = [a - b for a, b in zip(skip, take)]
        return memo[key]

    return go(0, ())


def _b_of(argv, flag):
    text = next(a for a in argv if a.startswith(flag + "="))
    return [Fraction(x) for x in text.split("=", 1)[1].split(",")]


class Checker:
    """Checks one run's answers; run() returns [(job id, reason)]."""

    def __init__(self, plan, workdir):
        self.plan = plan
        self.workdir = workdir
        self.systems = plan["systems"]
        self._da = {}
        self._chi = {}
        self._combinatorial = {}
        self._free = {}
        self.catalogs = {}
        self.checkcf = ()
        self.failed = {}

    # -------------------------------------------------------------- oracles

    def da(self, label):
        if label not in self._da:
            info = self.systems[label]
            self._da[label] = build(validate(info["rows"], info["m"]))
        return self._da[label]

    def chi(self, label):
        if label not in self._chi:
            da = self.da(label)
            self._chi[label] = chi_mod_p(da.normals, da.n)
        return self._chi[label]

    def combinatorial(self, n, m):
        if (n, m) not in self._combinatorial:
            self._combinatorial[(n, m)] = list(
                combinatorial_charpoly(n, m).coefficients)
        return self._combinatorial[(n, m)]

    def matrix_free(self, label):
        """Is the system free, by its chi: walls' chi == matrix-free census."""
        if label not in self._free:
            info = self.systems[label]
            self._free[label] = self.chi(label) == self.combinatorial(
                info["n"], info["m"])
        return self._free[label]

    def signs(self, label, b):
        """Sign string of b, or the sorted walls b lies on."""
        da = self.da(label)
        vals = [sum(a * x for a, x in zip(normal, b)) for normal in da.normals]
        walls = [list(s) for s, v in zip(da.subsets, vals) if v == 0]
        if walls:
            return None, walls
        return "".join("+" if v > 0 else "-" for v in vals), None

    # ------------------------------------------------------------- driving

    def fail(self, job, reason):
        self.failed.setdefault(job["id"], reason)

    def run(self, records):
        jobs = self.plan["jobs"]
        payloads = {}
        for job, rec in zip(jobs, records):
            if rec["rc"] != 0:
                self.fail(job, "exit %s: %s" % (rec["rc"], rec["err"][-300:]))
                continue
            if rec["argv"] is None:
                payloads[job["id"]] = rec["out"]
                continue
            try:
                payloads[job["id"]] = json.loads(rec["out"])["payload"]
            except (ValueError, KeyError, TypeError) as err:
                self.fail(job, "unreadable output: %s" % err)
        by_op = {}
        for job, rec in zip(jobs, records):
            if job["id"] in payloads:
                by_op.setdefault(job["op"], []).append(
                    (job, rec, payloads[job["id"]]))
        self.checkcf = by_op.get("check-cf", ())
        order = [("count", self.check_chi), ("census-ns", self.check_chi),
                 ("whitney", self.check_chi),
                 ("chambers", self.check_chambers)]
        order += [(op, self.check_read) for op in (
            "classify", "regions", "signature", "iso", "catalog-verify",
            "adjacency", "swap")]
        order += [("check-cf", self.check_free),
                  ("census-cf", self.check_census_cf),
                  ("closure", self.check_closure)]
        for op, check in order:
            for job, rec, payload in by_op.get(op, ()):
                try:
                    check(job, rec, payload)
                except (KeyError, IndexError, TypeError, ValueError,
                        AttributeError) as err:
                    self.fail(job, "malformed answer: %r" % err)
        self.check_signature_pairs(by_op.get("signature", ()))
        return sorted(self.failed.items())

    # --------------------------------------------------------------- count

    def check_read(self, job, rec, payload):
        """Reads are checked against the catalog their system wrote."""
        if job["system"] not in self.catalogs:
            self.fail(job, "no checked catalog to compare with")
            return
        getattr(self, "check_" + job["op"].replace("-", "_"))(
            job, rec, payload)

    def check_chi(self, job, rec, payload):
        coeffs = payload["chi" if job["op"] == "census-ns" else "coefficients"]
        expected = self.chi(job["system"])
        if coeffs != expected:
            self.fail(job, "chi %s, subset expansion gives %s"
                      % (coeffs, expected))
            return
        cones = zaslavsky(coeffs)
        golden = GOLDEN_CONES.get(job["system"])
        if golden is not None and cones != golden:
            self.fail(job, "cones %d, golden %d" % (cones, golden))
        if job["op"] == "whitney":
            return
        if payload["cones"] != cones or payload["classes"] != cones // 2:
            self.fail(job, "cones/classes do not follow from chi")
        if job["op"] == "census-ns" and [payload["n"], payload["m"]] != [
                job["shape"][0], job["shape"][1]]:
            self.fail(job, "census row has the wrong shape")

    # --------------------------------------------------------------- atlas

    def check_chambers(self, job, rec, payload):
        label = job["system"]
        expected = GOLDEN_CONES.get(label, zaslavsky(self.chi(label)))
        if expected != payload["count"] or expected != len(
                payload["chambers"]):
            self.fail(job, "catalog has %d cones, chi(-1) gives %d"
                      % (payload["count"], expected))
            return
        if payload["classes"] != expected // 2:
            self.fail(job, "class count is not half the cones")
        with open(os.path.join(self.workdir, catalog_path(label))) as fh:
            if json.load(fh) != payload:
                self.fail(job, "catalog file differs from the payload")
        by_signs = {}
        for c in payload["chambers"]:
            w = [Fraction(x) for x in c["witness"]]
            signs, walls = self.signs(label, w)
            if signs != c["signs"]:
                self.fail(job, "witness does not reproduce %s" % c["signs"])
                return
            by_signs[signs] = c["class"]
        self.catalogs[label] = by_signs

    def expected_class(self, label, b):
        signs, walls = self.signs(label, b)
        return signs, walls, self.catalogs[label].get(signs)

    def check_classify(self, job, rec, payload):
        signs, walls, cls = self.expected_class(job["system"],
                                                _b_of(rec["argv"], "--b"))
        want = {"signs": signs, "class": cls, "on_wall": walls}
        if payload != want:
            self.fail(job, "classify gave %s, expected %s" % (payload, want))
        elif "witness" in job["b"] and signs is None:
            self.fail(job, "a catalog witness lies on a wall")

    def check_regions(self, job, rec, payload):
        n, m = job["shape"]
        total = sum(comb(n, i) for i in range(m + 1))
        bounded = comb(n - 1, m)
        want = {"total": total, "bounded": bounded,
                "unbounded": total - bounded}
        if payload != want:
            self.fail(job, "regions %s, expected %s" % (payload, want))

    def check_signature(self, job, rec, payload):
        n, _ = job["shape"]
        triples = payload["triangles"]
        ok = all(len(t) == 3 and t == sorted(set(t))
                 and 1 <= t[0] and t[-1] <= n for t in triples)
        if not ok or len(triples) < n - 2:
            # a simple arrangement of n lines has at least n - 2 triangles
            self.fail(job, "bad triangle signature %s" % triples)

    def check_signature_pairs(self, rows):
        pairs = {}
        for job, rec, payload in rows:
            if job["id"] in self.failed:
                continue
            key = (job["round"], job["system"], job["b"]["witness"])
            pairs.setdefault(key, []).append((job, payload["triangles"]))
        for members in pairs.values():
            for job, triples in members[1:]:
                if triples != members[0][1]:
                    self.fail(job, "antipodal witnesses differ in triangles")

    def check_iso(self, job, rec, payload):
        label = job["system"]
        _, _, c1 = self.expected_class(label, _b_of(rec["argv"], "--b1"))
        _, _, c2 = self.expected_class(label, _b_of(rec["argv"], "--b2"))
        if c1 is None or c2 is None:
            self.fail(job, "iso witnesses are not in the catalog")
        elif payload != {"isomorphic": c1 == c2}:
            self.fail(job, "iso %s, classes %s/%s" % (payload, c1, c2))

    def check_catalog_verify(self, job, rec, payload):
        expected = len(self.catalogs[job["system"]])
        if (payload.get("ok") is not True
                or payload["catalog"]["count"] != expected
                or payload["catalog"]["zaslavsky"] != expected
                or payload["cross_validation"]["mismatches"] != 0):
            self.fail(job, "catalog-verify %s" % payload)

    def check_adjacency(self, job, rec, payload):
        graph = payload["graph"]
        catalog = self.catalogs[job["system"]]
        d = rank(self.da(job["system"]).normals)
        if set(graph) != set(catalog):
            self.fail(job, "adjacency keys are not the catalog")
            return
        for a, nbrs in graph.items():
            if len(nbrs) < d:
                # a chamber of an essential rank-d arrangement has >= d facets
                self.fail(job, "%s has %d neighbours, rank %d"
                          % (a, len(nbrs), d))
                return
            for b in nbrs:
                if a not in graph[b] or sum(x != y for x, y in zip(a, b)) != 1:
                    self.fail(job, "edge %s-%s is not a symmetric flip"
                              % (a, b))
                    return

    def check_swap(self, job, rec, payload):
        report = payload["report"]
        a, b = payload["edge"]
        if a not in self.catalogs[job["system"]] or sum(
                x != y for x, y in zip(a, b)) != 1:
            self.fail(job, "swap edge is not a catalog flip")
        elif report["ok"] is not True or report["failures"] or \
                not report["swapped"]:
            self.fail(job, "swap_check %s" % report)

    # ------------------------------------------------------------ freeness

    def check_free(self, job, rec, payload):
        label = job["system"]
        free = payload["free"]
        golden = GOLDEN_FREE.get(label)
        if golden is not None:
            if free != golden:
                self.fail(job, "verdict %s, golden %s" % (free, golden))
        elif free:
            if not self.matrix_free(label):
                self.fail(job, "free, but chi differs from the census")
        if free:
            if payload["witness"] is not None:
                self.fail(job, "free verdict with a witness")
            return
        witness = payload["witness"]
        n, m = job["shape"]
        da = self.da(label)
        if not witness or rank([da.normal_of(s) for s in witness]) >= len(
                witness):
            self.fail(job, "witness %s is not dependent" % witness)
        elif combinatorial_rank(SubsetCollection(n, m, witness)) != len(
                witness):
            # walls such as {123},{124},{134} are dependent on every system
            self.fail(job, "witness %s is not a minimal generating "
                      "collection" % witness)

    def free_system(self, n, m):
        """A system of shape (n, m) known to be concurrency free."""
        if (n, m) in FREE_GALLERY:
            return FREE_GALLERY[(n, m)]
        for job, rec, payload in self.checkcf:
            if (job["id"] not in self.failed and tuple(job["shape"]) == (n, m)
                    and payload["free"]
                    and self.matrix_free(job["system"])):
                return job["system"]
        return None

    def check_census_cf(self, job, rec, payload):
        n, m = job["shape"]
        cones = zaslavsky(payload["chi"])
        if (payload["cones"] != cones or payload["classes"] != cones // 2
                or [payload["n"], payload["m"]] != [n, m]):
            self.fail(job, "census row inconsistent: %s" % payload)
        golden = GOLDEN_CENSUS.get((n, m))
        if golden is not None and cones != golden:
            self.fail(job, "census (%d,%d) %d cones, golden %d"
                      % (n, m, cones, golden))
        label = self.free_system(n, m)
        if label is not None and payload["chi"] != self.chi(label):
            self.fail(job, "census chi differs from free system %s" % label)
        elif label is None and golden is None:
            self.fail(job, "no free (%d,%d) system to compare with" % (n, m))

    def check_closure(self, job, rec, payload):
        n, m = job["shape"]
        label = self.free_system(n, m)
        if label is None:
            self.fail(job, "no free (%d,%d) system to compare with" % (n, m))
            return
        da = self.da(label)
        members = [tuple(int(c) for c in code)
                   for code in job["members"].split(",")]
        rows = [da.normal_of(s) for s in members]
        r = rank(rows)
        # on a free system the closure is every wall through the flat
        want = [list(s) for s in da.subsets
                if rank(rows + [da.normal_of(s)]) == r]
        got = payload["closure"]["members"]
        if got != want:
            self.fail(job, "closure %s, walls through the flat %s"
                      % (got, want))
        if payload["combinatorial_rank"] != r or len(payload["base"]) != r:
            self.fail(job, "rank %s/base %d, flat rank %d" % (
                payload["combinatorial_rank"], len(payload["base"]), r))
        closed = {tuple(s) for s in got}
        for entry in payload["orders"]:
            idx = entry["set"]
            if entry["order"] != len(idx) or not all(
                    s in closed for s in combinations(idx, m + 1)):
                self.fail(job, "order set %s not inside the closure" % idx)

