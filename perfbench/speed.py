"""Machine-speed calibration for the timed metrics.

The benchmark runs on shared hosts whose speed drifts by phases of minutes:
between two phases the same cold run took 1.7 s and then 3.1 s.  So ``run.py``
times this fixed piece of pure-Python work in its own process before every
sample, while no sample runs, and reports every time of the run rescaled by
``REFERENCE_S / median(calibration times)``: seconds on a machine that runs
the calibration in ``REFERENCE_S``.  The calibration uses no code of the
program, so a change to the program moves the rescaled times exactly as it
moves the raw ones; only the machine's drift is divided out.

The work mixes a tight integer loop with scattered reads of a 1 Mi-entry
list and dict writes, the interpreter and memory traffic the simulator's own
loops make.  The garbage collector is off while it runs, so the size of the
caller's heap does not enter the time.
"""

from __future__ import annotations

import gc
import time

#: Seconds the calibration takes at the reference speed (roughly its time on
#: a fast phase of a 2-vCPU cloud VM), so rescaled times read close to raw.
REFERENCE_S = 0.15

_SIZE = 1 << 20
_TABLE = [i * 3 for i in range(_SIZE)]


def calibrate() -> float:
    """Host seconds of one run of the fixed calibration work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        total = 0
        for i in range(600_000):
            total += i * i % 7
        mask = _SIZE - 1
        seen = {}
        for i in range(300_000):
            j = (i * 40503) & mask
            total += _TABLE[j]
            seen[j & 65535] = i
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
