"""One cold start of the benchmark's set-up, timed by run.py.

    python3 perfbench/prepare.py WORKLOAD SEED SECONDS DIR

Starts an interpreter, imports `arrcensus.cli` as every CLI call must, and
writes the workload's seeded input files and plan.json into DIR.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import arrcensus.cli  # noqa: E402,F401  (import time is part of set-up)

from plan import build_plan, write_inputs  # noqa: E402

if __name__ == "__main__":
    workload, seed, seconds, workdir = sys.argv[1:5]
    write_inputs(build_plan(workload, int(seed), int(seconds)), workdir)
