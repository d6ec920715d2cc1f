"""arrcensus benchmark: one workload, one seed, one fresh worker process.

    python3 perfbench/run.py --workload {count,atlas,freeness} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Set-up makes SETUP_REPEATS cold starts
(interpreter, `import arrcensus.cli`, writing the seeded inputs) and
reports their median as setup_s.  A fresh worker then runs the job list
with tracing off; run.py checks every answer afterwards and prints the
end-to-end metrics, one `name value unit` line each, then a JSON line.
Times are scaled to the nominal speed of a machine-speed probe run beside
them (probe.py); the raw wall-clock figures are printed alongside.
With --trace 1 a second worker runs the same list with spans around every
public library function and the JSON line carries the per-layer metrics
listed in BENCHMARK.json, plus the tracing overhead.  Spans and the full
per-function summary are kept under .perfbench/.

Exits 1 when any answer check fails, 2 when the checkout has no library.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 21
DEADLINE_S = 170  # the whole run, set-up and checks included

sys.path.insert(0, HERE)

from plan import WORKLOADS, shape_seen_share  # noqa: E402
from probe import PROBE_NOMINAL_MS, probe  # noqa: E402


def _child(args, deadline):
    """Run a child to completion; kill it if the run's deadline passes.

    The wait blocks instead of polling, so a cold start is timed to its
    exit, not to the next poll.
    """
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("run exceeded %d s" % DEADLINE_S)
    proc = subprocess.Popen([sys.executable] + args, cwd=ROOT)
    killer = threading.Timer(left, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
    if code:
        raise subprocess.CalledProcessError(code, args)


def setup(workload, seed, seconds, rundir, deadline):
    """Median of SETUP_REPEATS cold starts, in seconds at nominal speed.

    Each start is scaled by the machine-speed probes taken around it.
    Keeps the inputs of the first start.
    """
    samples, raw = [], []
    for k in range(SETUP_REPEATS):
        workdir = os.path.join(rundir, "inputs%d" % k)
        probes = [probe() for _ in range(3)]
        t0 = time.perf_counter()
        _child([os.path.join(HERE, "prepare.py"), workload, str(seed),
                str(seconds), workdir], deadline)
        raw.append(time.perf_counter() - t0)
        probes += [probe() for _ in range(3)]
        samples.append(raw[-1] * PROBE_NOMINAL_MS / statistics.median(probes))
        if k:
            shutil.rmtree(workdir)
    return (statistics.median(samples), statistics.median(raw),
            os.path.join(rundir, "inputs0"))


def run_worker(workdir, results, deadline, spans=None):
    args = [os.path.join(HERE, "worker.py"), workdir, results]
    _child(args + ([spans] if spans else []), deadline)
    with open(results) as fh:
        return json.load(fh)


def percentile_window(plan, ms, q, width=0.05):
    """Job kinds whose latency rank lies within q +- width."""
    order = sorted(range(len(ms)), key=ms.__getitem__)
    lo, hi = int((q - width) * len(ms)), int((q + width) * len(ms))
    kinds = Counter()
    for i in order[lo:hi + 1]:
        job = plan["jobs"][i]
        kinds["%s(%d,%d)" % (job["op"], *job["shape"])] += 1
    return ", ".join("%s x%d" % kv for kv in kinds.most_common())


def job_ms(result, scaled=True):
    return [j["ms"] * (j["scale"] if scaled else 1.0) for j in result["jobs"]]


def end_to_end(result, setup_s, scaled=True):
    ms = job_ms(result, scaled)
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    return {"jobs_per_s": 1000.0 * len(ms) / sum(ms),
            "job_ms.p50": statistics.median(ms),
            "job_ms.p90": deciles[8],
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "arrcensus", "cli.py")):
        sys.stderr.write("perfbench: no src/arrcensus in %s\n" % ROOT)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    base = os.path.join(ROOT, ".perfbench")
    tag = "%s-seed%d" % (args.workload, args.seed)
    rundir = os.path.join(base, "%s-%d" % (tag, os.getpid()))
    os.makedirs(rundir)
    try:
        setup_s, setup_raw, workdir = setup(
            args.workload, args.seed, args.seconds, rundir, deadline)
        with open(os.path.join(workdir, "plan.json")) as fh:
            plan = json.load(fh)
        plain = run_worker(workdir, os.path.join(rundir, "plain.json"),
                           deadline)
        traced = None
        if args.trace:
            traced = run_worker(workdir, os.path.join(rundir, "traced.json"),
                                deadline, os.path.join(base, tag + ".spans"))
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from checks import Checker
        failures = Checker(plan, workdir).run(plain["jobs"])
        if traced:
            failures += traced_mismatches(plain, traced)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted = len(plan["jobs"])
    failed = len({job_id for job_id, _ in failures})
    e2e = end_to_end(plain, setup_s)
    raw = end_to_end(plain, setup_raw, scaled=False)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    ms = job_ms(plain)
    for job_id, reason in failures[:20]:
        print("FAILED job %d %s: %s" % (job_id, plan["jobs"][job_id]["op"],
                                        reason))
    for name, value in e2e.items():
        print("%-12s %14.6f %-6s (raw wall clock %.6f)"
              % (name, value, units.get(name, ""), raw[name]))
    print("%-12s %14.6f ratio (%d failed of %d jobs)"
          % ("fail_ratio", failed / attempted, failed, attempted))
    print("samples      %d jobs in %d rounds, %d set-up starts"
          % (len(ms), plan["rounds"], SETUP_REPEATS))
    print("shape_seen   %.4f of jobs repeat an earlier (n,m) shape"
          % shape_seen_share(plan))
    print("p50 window   %s" % percentile_window(plan, ms, 0.5))
    print("p90 window   %s" % percentile_window(plan, ms, 0.9))

    if traced:
        layer = per_layer(plan, plain, traced, bench)
        with open(os.path.join(base, tag + ".summary.json"), "w") as fh:
            json.dump(layer["all"], fh, indent=1, sort_keys=True)
        for name in layer["absent"]:
            print("absent       %s (no such function)" % name)
        print("overhead     traced %.4f jobs/s vs %.4f untraced (%+.1f%%)"
              % (layer["all"]["trace.jobs_per_s"], e2e["jobs_per_s"],
                 layer["all"]["trace.overhead_pct"]))
        metrics = layer["metrics"]
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def _payload(rec):
    if rec["argv"] is None:
        return rec["out"]
    try:
        return json.loads(rec["out"])["payload"]
    except (ValueError, KeyError, TypeError):
        return None


def traced_mismatches(plain, traced):
    """The traced run must give the same answers as the untraced one."""
    return [(a["id"], "traced answer differs from untraced")
            for a, b in zip(plain["jobs"], traced["jobs"])
            if a["rc"] != b["rc"] or _payload(a) != _payload(b)]


def per_layer(plan, plain, traced, bench):
    summary = dict(traced["trace"])
    summary["trace.jobs_per_s"] = 1000.0 * len(traced["jobs"]) / sum(
        job_ms(traced))
    summary["trace.overhead_pct"] = 100.0 * (
        sum(job_ms(traced)) / sum(job_ms(plain)) - 1.0)
    summary["jobs.shape_seen_share"] = shape_seen_share(plan)
    metrics, absent = {}, []
    for m in bench["per_layer"]:
        if m["name"] in summary:
            metrics[m["name"]] = {"value": summary[m["name"]],
                                  "unit": m["unit"]}
        else:
            absent.append(m["name"])
    return {"all": summary, "metrics": metrics, "absent": absent}


if __name__ == "__main__":
    sys.exit(main())
