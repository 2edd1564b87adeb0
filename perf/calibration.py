"""The frozen calibration kernel.

Host time on a shared sandbox drifts by tens of percent between
back-to-back runs of the same code.  Every timed section is therefore
bracketed by two probes of this fixed pure-Python loop, and a run
reports host seconds as ``raw * CAL_REF_S / fastest probe of the run``:
what the section would have cost on the host the benchmark landed on.

The kernel exercises what the simulator spends its time on -- heap
push/pop, generator resume, tuple construction, a filtered sum -- in a
working set small enough that its own timing is steady.  Its source is
FROZEN: editing it silently rescales every recorded number, so
``kernel_sha256()`` is pinned by perf/test_selfcheck.py and written into
every result document.
"""

from __future__ import annotations

import hashlib
import heapq
import inspect
import time

#: Seconds one kernel run took on the 2-core sandbox when the benchmark
#: landed.  A constant of the unit "calibrated second"; never re-measure.
CAL_REF_S = 0.104

#: Two adjacent calibrations further apart than this mark the repeat
#: between them as disturbed (another tenant had the core).
DISTURBED = 0.15


def kernel(n: int = 130_000) -> float:
    def ticker():
        i = 0
        while True:
            i += 1
            yield i

    push, pop = heapq.heappush, heapq.heappop
    resume = ticker().__next__
    heap: list = []
    rows: list = []
    total = 0.0
    for i in range(n):
        push(heap, ((i * 7919) % 1013, i))
        if len(heap) > 256:
            pop(heap)
        rows.append((resume(), i % 97, float(i)))
        if len(rows) == 1024:
            total += sum(r[2] for r in rows if r[1] < 50)
            rows.clear()
    return total


def calibrate() -> float:
    """Seconds one kernel run takes right now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def kernel_sha256() -> str:
    return hashlib.sha256(inspect.getsource(kernel).encode()).hexdigest()
