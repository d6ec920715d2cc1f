"""Runs one job list in a fresh, single-threaded interpreter.

    python3 perfbench/worker.py WORKDIR RESULTS [SPANS]

WORKDIR holds plan.json and the ns files.  With SPANS, the run is traced
and its spans are written there.  Jobs run one after another, a
closed loop with one client: CLI jobs through `arrcensus.cli.main(argv)`
with stdout and stderr captured, adjacency and swap jobs through the library
API.  Each job's timer covers only the call; resolving witness b-vectors
from a catalog written earlier in the run, and the machine-speed probe
that follows every job (probe.py), happen outside it.  Answers are checked
later, by run.py, in another process, so the checks neither warm this
process's caches nor add to its memory.

Process-global caches of the library start empty here and are shared by all
jobs of the run, the way one library session shares them.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import arrcensus.cli  # noqa: E402  (the import is part of the run)
from arrcensus import (affine_geometry, chambers, discriminantal,  # noqa
                       normal_system)

from plan import catalog_path, ns_path  # noqa: E402
from probe import probe, scales  # noqa: E402

CLI_ARGS = {
    "count": lambda ns: ["count", "--ns", ns],
    "census-ns": lambda ns: ["census", "--mode", "ns-file", "--ns", ns],
    "whitney": lambda ns: ["charpoly", "--method", "whitney", "--ns", ns],
    "check-cf": lambda ns: ["check-cf", "--ns", ns],
}
LIBRARY_OPS = ("adjacency", "swap")


class Session:
    """State jobs share: catalogs read for b-vectors, adjacency graphs."""

    def __init__(self):
        self.witnesses = {}
        self.graphs = {}

    def b_text(self, label, spec):
        if "value" in spec:
            return ",".join(str(x) for x in spec["value"])
        if label not in self.witnesses:
            with open(catalog_path(label)) as fh:
                self.witnesses[label] = [
                    c["witness"] for c in json.load(fh)["chambers"]]
        ws = self.witnesses[label]
        w = ws[spec["witness"] % len(ws)]
        if spec.get("negate"):
            w = [x[1:] if x.startswith("-") else "-" + x if x != "0" else x
                 for x in w]
        return ",".join(w)

    def argv(self, job):
        op, label = job["op"], job.get("system")
        if op in LIBRARY_OPS:
            return None
        if op in CLI_ARGS:
            return CLI_ARGS[op](ns_path(label))
        if op == "census-cf":
            n, m = job["shape"]
            return ["census", "--mode", "concurrency-free",
                    "--n", str(n), "--m", str(m)]
        if op == "closure":
            n, m = job["shape"]
            return ["closure", "--n", str(n), "--m", str(m),
                    "--members", job["members"]]
        ns = ns_path(label)
        if op == "chambers":
            return ["chambers", "--ns", ns, "--out", catalog_path(label)]
        if op == "catalog-verify":
            return ["catalog-verify", "--ns", ns,
                    "--catalog", catalog_path(label)]
        b = self.b_text(label, job["b"])
        if op == "classify":
            return ["classify", "--ns", ns, "--catalog", catalog_path(label),
                    "--b=" + b]
        if op in ("regions", "signature"):
            return [op, "--ns", ns, "--b=" + b]
        return ["iso", "--ns", ns, "--b1=" + b,
                "--b2=" + self.b_text(label, job["b2"])]

    def run_library(self, job):
        label = job["system"]
        if job["op"] == "adjacency":
            with open(ns_path(label)) as fh:
                ns = normal_system.ns_from_dict(json.load(fh))
            da = discriminantal.build(ns)
            with open(catalog_path(label)) as fh:
                catalog = chambers.catalog_from_dict(da, json.load(fh))
            graph = chambers.adjacency(catalog)
            edges = sorted({tuple(sorted((a, b)))
                            for a, nbrs in graph.items() for b in nbrs})
            self.graphs[label] = (da, catalog, edges)
            return {"graph": graph}
        da, catalog, edges = self.graphs[label]
        a, b = edges[job["pick"] % len(edges)]
        return {"edge": [a, b],
                "report": affine_geometry.swap_check(da, catalog, a, b)}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = arrcensus.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def main(argv):
    workdir, results_path = argv[0], os.path.abspath(argv[1])
    spans_path = os.path.abspath(argv[2]) if len(argv) > 2 else None
    os.chdir(workdir)
    with open("plan.json") as fh:
        plan = json.load(fh)
    tracer = None
    if spans_path:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    session = Session()
    records = []
    probes = []
    clock = time.perf_counter
    for job in plan["jobs"]:
        cli_argv = session.argv(job)
        if tracer:
            tracer.job = job["id"]
        rc, out, err = 0, None, ""
        t0 = clock()
        try:
            if cli_argv is not None:
                rc, out, err = run_cli(cli_argv)
            else:
                out = session.run_library(job)
        except Exception:
            rc, err = "raised", traceback.format_exc()
        t1 = clock()
        if tracer:
            tracer.job = -1
        probes.append(probe())
        records.append({"id": job["id"], "ms": (t1 - t0) * 1000.0,
                        "argv": cli_argv, "rc": rc, "out": out, "err": err})
    for rec, probe_ms, scale in zip(records, probes, scales(probes)):
        rec["probe_ms"] = probe_ms
        rec["scale"] = scale
    result = {"peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "jobs": records}
    if tracer:
        systems = {j["id"]: j.get("system", "%d_%d" % tuple(j["shape"]))
                   for j in plan["jobs"]}
        tracer.write(spans_path, systems)
        result["trace"] = tracer.summary([r["scale"] for r in records])
    with open(results_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
