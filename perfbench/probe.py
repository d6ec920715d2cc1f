"""Machine-speed probe: reports times at the probe's nominal speed.

The sandbox the benchmark runs in changes speed with other tenants' load,
by a quarter from one second to the next.  A fixed exact-arithmetic probe
runs next to the measured work, outside its timer, and every time is scaled
by PROBE_NOMINAL_MS over the median of the probes nearest to it.  The probe
is benchmark code; no change to the library can make it faster or slower.
"""

import gc
import statistics
import time
from fractions import Fraction

# the probe's 10th-percentile time on a quiet 2-core x86 sandbox
PROBE_NOMINAL_MS = 2.0
WINDOW = 2  # a job is scaled by the probes from i - WINDOW to i + WINDOW

_MATRIX = [[Fraction(i * 7 + j * 3 + 1, j + 2) for j in range(6)]
           for i in range(6)]


def det(rows):
    """Exact determinant of a square matrix of ints or Fractions."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    value = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            value = -value
        value *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return value


def probe():
    """Milliseconds for ten 6x6 rational determinants.

    Cyclic garbage collection is off while the probe runs, so the probe
    never pays for scanning the objects the library keeps alive: a change
    to the library's caches must not move the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(10):
            det(_MATRIX)
        return (time.perf_counter() - t0) * 1000.0
    finally:
        if enabled:
            gc.enable()


def scales(samples):
    """Per-sample factor: nominal over the median of the nearby probes."""
    out = []
    for i in range(len(samples)):
        near = samples[max(0, i - WINDOW):i + WINDOW + 1]
        out.append(PROBE_NOMINAL_MS / statistics.median(near))
    return out
