"""Self-test of the benchmark: work counts repeat exactly.

    python3 perfbench/selftest.py

For each workload, two traced runs with seed SEED must report identical
work counts: every `*.calls`, `chambers.cones`, `*.yield` and `*_per_*`
value of the full per-function summary.  Counts do not depend on the
machine, so they are the numbers a change can be judged on exactly.  A run
with seed SEED + 1 must pass every answer check.  Exits 1 on any mismatch
or failed run.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)

from plan import WORKLOADS  # noqa: E402

SEED = 1
SECONDS = 1  # the smallest run: plan.MIN_ROUNDS rounds of each mix


def is_count(name):
    if name.startswith("trace."):  # timings of the trace itself
        return False
    return (name.endswith(".calls") or name.endswith(".yield")
            or "_per_" in name or name == "chambers.cones")


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
    last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
    ok = proc.returncode == 0 and json.loads(last[0]).get("correct") is True
    if not ok:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    if not trace:
        return ok, None
    path = os.path.join(ROOT, ".perfbench",
                        "%s-seed%d.summary.json" % (workload, seed))
    with open(path) as fh:
        summary = json.load(fh)
    return ok, {k: v for k, v in summary.items() if is_count(k)}


def main():
    bad = 0
    for workload in WORKLOADS:
        ok1, first = run(workload, SEED, SECONDS, 1)
        ok2, second = run(workload, SEED, SECONDS, 1)
        ok3, _ = run(workload, SEED + 1, SECONDS, 0)
        differ = sorted(k for k in set(first) | set(second)
                        if first.get(k) != second.get(k))
        for k in differ:
            print("%s: %s differs: %s vs %s" % (workload, k, first.get(k),
                                                 second.get(k)))
        passed = ok1 and ok2 and ok3 and not differ
        print("%s: %s (%d work counts compared; answer checks %s on seeds "
              "%d and %d)" % (workload, "PASS" if passed else "FAIL",
                              len(first), "pass" if ok1 and ok2 and ok3
                              else "FAIL", SEED, SEED + 1))
        bad += not passed
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
