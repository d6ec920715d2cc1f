"""Seeded job lists for the three benchmark workloads.

A plan is a pure function of (workload, seed, seconds): the same arguments
give byte-identical input files and the same job list.  Nothing here imports
arrcensus, so the inputs do not move when the library changes.

The list is built in rounds.  Each round repeats the workload's mix on the
fixed gallery systems plus fresh seeded systems, so every round carries the
same shapes and the same job sizes.  `--seconds` sets the number of rounds
(ROUND_SECONDS is the nominal length of one round on a 2-core x86 host), so
a run measures about that long and the work it does never depends on how
fast the machine is.  That keeps the traced work counts exactly repeatable.

The mixes are sized so that, sorted by latency, the jobs fall into blocks
of same-size jobs and the 50th and 90th percentiles each land well inside a
block rather than on a boundary between two (see README.md).
"""

import json
import os
import random
from itertools import combinations

from probe import det

WORKLOADS = ("count", "atlas", "freeness")

# nominal seconds per round; a run has max(MIN_ROUNDS, seconds / this) rounds
ROUND_SECONDS = {"count": 6.0, "atlas": 6.5, "freeness": 6.0}
MIN_ROUNDS = {"count": 3, "atlas": 1, "freeness": 2}

# rows of arrcensus.gallery, copied so that the inputs stay fixed
GALLERY = {
    "three_lines": (2, [(0, 1), (-1, 1), (1, 0)]),
    "four_lines": (2, [(0, 1), (1, -1), (1, 0), (1, 1)]),
    "five_lines": (2, [(0, 1), (1, -2), (1, -1), (2, -1), (1, 0)]),
    "six_lines_perpendicular_pairs":
        (2, [(1, 0), (2, 3), (3, 2), (0, 1), (3, -2), (2, -3)]),
    "six_lines_mixed_slopes":
        (2, [(0, 1), (1, 1), (2, 1), (1, 0), (-1, 1), (-1, 2)]),
    "six_lines_distinct_slopes":
        (2, [(0, 1), (-1, 1), (-2, 1), (-3, 1), (-4, 1), (-5, 1)]),
    "six_lines_free":
        (2, [(3, 4), (-8, -1), (7, 6), (3, 0), (6, 2), (9, -3)]),
    "six_planes_chain": (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                             (2, 2, 1), (2, 3, 2), (1, 2, 2)]),
    "six_planes_curve": (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                             (1, 1, 1), (1, 2, 3), (1, 4, 9)]),
    "six_planes_free": (3, [(3, 4, -8), (-1, 7, 6), (3, 0, 6),
                            (2, 9, -3), (7, -5, 0), (-5, -6, -1)]),
}

ENTRY_BOUND = 9   # seeded normals have integer entries in [-9, 9]
B_BOUND = 40      # seeded constant vectors have entries in [-40, 40]


def random_rows(rng, n, m):
    """n integer normals in R^m with every m of them independent."""
    while True:
        rows = [tuple(rng.randint(-ENTRY_BOUND, ENTRY_BOUND)
                      for _ in range(m)) for _ in range(n)]
        if all(det(sub) != 0 for sub in combinations(rows, m)):
            return rows


def _codes(subsets):
    return ",".join("".join(map(str, s)) for s in subsets)


class _Builder:
    def __init__(self, workload, seed, rounds):
        self.rng = random.Random("%s:%d" % (workload, seed))
        self.systems = {}
        self.jobs = []
        self.round = 0
        self.rounds = rounds

    def system(self, label, m, rows, gallery=None):
        if label not in self.systems:
            self.systems[label] = {"n": len(rows), "m": m,
                                   "rows": [list(r) for r in rows],
                                   "gallery": gallery}
        return label

    def gallery(self, name):
        m, rows = GALLERY[name]
        return self.system(name, m, rows, gallery=name)

    def seeded(self, n, m, k):
        label = "s%d%d.r%d.%d" % (n, m, self.round, k)
        return self.system(label, m, random_rows(self.rng, n, m))

    def job(self, op, system=None, **extra):
        job = {"op": op, "round": self.round}
        if system is not None:
            job["system"] = system
            info = self.systems[system]
            job["shape"] = [info["n"], info["m"]]
        job.update(extra)
        return job

    def random_b(self, system):
        n = self.systems[system]["n"]
        return [self.rng.randint(-B_BOUND, B_BOUND) for _ in range(n)]

    def wall_b(self, system):
        """b on the wall of a random (m+1)-subset: those lines concur."""
        info = self.systems[system]
        n, m, rows = info["n"], info["m"], info["rows"]
        subset = sorted(self.rng.sample(range(n), m + 1))
        x0 = [self.rng.randint(-5, 5) for _ in range(m)]
        b = self.random_b(system)
        for i in subset:
            b[i] = sum(a * x for a, x in zip(rows[i], x0))
        return b


def _count_round(bld):
    """Counting questions: poset (count, census --mode ns-file), whitney.

    Blocks by latency: small whitney and rank-2 jobs (~36%), the (5,2)
    flat crawls (~31%, holds the median), whitney on (7,4) systems (~31%,
    holds the 90th percentile; all free, so their costs match), then one
    six-line whitney a round.  Flat crawls of (6,3), (7,4) and six-line
    systems (1-8 s each) are left out: the machine-speed probe between jobs
    cannot follow the host's speed through one job that long, and a single
    such job moved jobs_per_s by 16% from run to run.
    """
    r = bld.round
    three, four, five, planes_free, planes_chain = (
        bld.gallery(name) for name in ("three_lines", "four_lines",
                                       "five_lines", "six_planes_free",
                                       "six_planes_chain"))
    lines = bld.gallery(("six_lines_free", "six_lines_perpendicular_pairs",
                         "six_lines_mixed_slopes")[r % 3])
    s64, s75 = bld.seeded(6, 4, 0), bld.seeded(7, 5, 0)
    s52 = [bld.seeded(5, 2, k) for k in range(5)]
    s63 = [bld.seeded(6, 3, k) for k in range(2)]
    s74 = [bld.seeded(7, 4, k) for k in range(12)]
    jobs = [bld.job("count", three), bld.job("whitney", three),
            bld.job("census-ns", four), bld.job("whitney", four),
            bld.job("whitney", five), bld.job("whitney", planes_free),
            bld.job("whitney", planes_chain),
            bld.job("count", s64), bld.job("whitney", s64),
            bld.job("census-ns", s75), bld.job("whitney", s75),
            bld.job("whitney", s52[0]), bld.job("whitney", s63[0]),
            bld.job("whitney", s63[1])]
    for s in [five] + s52:
        jobs += [bld.job("count", s), bld.job("census-ns", s)]
    jobs += [bld.job("whitney", s) for s in s74]
    jobs.append(bld.job("whitney", lines))
    bld.rng.shuffle(jobs)
    return jobs


def _atlas_round(bld):
    """Cone questions: catalogs written, then read many times.

    Blocks by latency: five-line reads and swaps (~10%), classify and iso
    on the six-plane catalogs (~50%, holds the median), five-line
    portraits, then six-plane region censuses with five-line adjacency and
    catalog writes (~32%, holds the 90th percentile), then six-plane
    catalog writes and one catalog verify.
    """
    catalogs = [bld.gallery("five_lines"), bld.gallery("six_planes_free"),
                bld.gallery("six_planes_chain"), bld.seeded(5, 2, 0),
                bld.seeded(6, 3, 0)]
    writes = [bld.job("chambers", s) for s in catalogs]
    reads = []
    for s in catalogs:
        m = bld.systems[s]["m"]
        # classify holds the median: most of it reads the gallery catalogs,
        # whose load cost does not move with the seed
        for k in range(2 if m == 2 else 27 if s in catalogs[1:3] else 6):
            kind = k % 4
            if kind == 2:
                b = {"value": bld.random_b(s)}
            elif kind == 3:
                b = {"value": bld.wall_b(s)}
            else:
                b = {"witness": bld.rng.randrange(1 << 16)}
            reads.append(bld.job("classify", s, b=b))
        # region censuses hold the 90th percentile, so most of them run on
        # the fixed gallery catalogs, whose costs do not move with the seed
        for k in range(1 if m == 2 else 18 if s in catalogs[1:3] else 3):
            reads.append(bld.job("regions", s, b={
                "witness": bld.rng.randrange(1 << 16)}))
        w = bld.rng.randrange(1 << 16)
        reads.append(bld.job("iso", s, b={"witness": w}, b2={
            "witness": bld.rng.randrange(1 << 16)}))
        reads.append(bld.job("iso", s, b={"witness": w},
                             b2={"witness": w, "negate": True}))
        if m == 2:
            # an antipodal pair: both must give the same triangles
            reads.append(bld.job("signature", s, b={"witness": w}))
            reads.append(bld.job("signature", s,
                                 b={"witness": w, "negate": True}))
    # catalog-verify runs the flat crawl, on one five-line catalog a round
    reads.append(bld.job("catalog-verify", catalogs[3 * (bld.round % 2)]))
    for s in (catalogs[0], catalogs[3]):
        reads.append(bld.job("adjacency", s))
    bld.rng.shuffle(reads)
    # swaps reuse the adjacency graph of their catalog, so they follow it
    for s in (catalogs[0], catalogs[3]):
        at = next(i for i, j in enumerate(reads)
                  if j["op"] == "adjacency" and j["system"] == s)
        for _ in range(3):
            pos = bld.rng.randint(at + 1, len(reads))
            reads.insert(pos, bld.job("swap", s,
                                      pick=bld.rng.randrange(1 << 16)))
    return writes + reads


FREE_CENSUS_ROWS = ((3, 2), (4, 2), (5, 2), (6, 2), (6, 3), (7, 4), (7, 5))
CLOSURE_SHAPES = ((5, 2), (6, 2), (6, 3), (7, 4))


def _freeness_round(bld):
    """Genericity questions: check-cf, the free census, closures.

    Blocks by latency: closures and warm census rows (~30%), (5,2)
    verdicts (~31%, holds the median), (6,3) and (7,4) verdicts, then the
    (6,2) verdicts (~17%, holds the 90th percentile).
    """
    jobs = []
    for name in GALLERY:
        jobs.append(bld.job("check-cf", bld.gallery(name)))
    for shape, count in (((5, 2), 18), ((6, 3), 4), ((7, 4), 5),
                         ((6, 2), 6)):
        for k in range(count):
            jobs.append(bld.job("check-cf", bld.seeded(*shape, k)))
    for n, m in FREE_CENSUS_ROWS:
        jobs.append(bld.job("census-cf", shape=[n, m]))
    for k in range(8):
        n, m = CLOSURE_SHAPES[k % len(CLOSURE_SHAPES)]
        universe = list(combinations(range(1, n + 1), m + 1))
        members = sorted(bld.rng.sample(universe, bld.rng.randint(1, 5)))
        jobs.append(bld.job("closure", shape=[n, m],
                            members=_codes(members)))
    bld.rng.shuffle(jobs)
    return jobs


ROUNDS = {"count": _count_round, "atlas": _atlas_round,
          "freeness": _freeness_round}


def rounds_for(workload, seconds):
    return max(MIN_ROUNDS[workload], round(seconds / ROUND_SECONDS[workload]))


def build_plan(workload, seed, seconds):
    """The full job list and input systems of one run."""
    bld = _Builder(workload, seed, rounds_for(workload, seconds))
    for r in range(bld.rounds):
        bld.round = r
        bld.jobs += ROUNDS[workload](bld)
    for k, job in enumerate(bld.jobs):
        job["id"] = k
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "rounds": bld.rounds, "systems": bld.systems, "jobs": bld.jobs}


def ns_path(label):
    return os.path.join("ns", label + ".json")


def catalog_path(label):
    return os.path.join("cat", label + ".json")


def write_inputs(plan, workdir):
    """Write one ns file per system (the format `arrcensus gen` writes)."""
    os.makedirs(os.path.join(workdir, "ns"))
    os.makedirs(os.path.join(workdir, "cat"))
    for label, info in plan["systems"].items():
        data = {"m": info["m"],
                "rows": [[str(a) for a in row] for row in info["rows"]]}
        with open(os.path.join(workdir, ns_path(label)), "w") as fh:
            json.dump(data, fh)
    with open(os.path.join(workdir, "plan.json"), "w") as fh:
        json.dump(plan, fh)


def shape_seen_share(plan):
    """Share of jobs whose (n, m) shape already appeared earlier in the run.

    These are the jobs that process-global caches keyed on shape
    (the closure memo, the closed-collection crawl) can reuse.
    """
    seen = set()
    repeats = 0
    for job in plan["jobs"]:
        shape = tuple(job["shape"])
        repeats += shape in seen
        seen.add(shape)
    return repeats / len(plan["jobs"])
