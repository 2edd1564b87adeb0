"""Workloads: TPC-H, the Wisconsin benchmark, and client drivers.

The paper evaluates with two datasets:

* a **4 GB TPC-H** database (standard dbgen/qgen) running queries
  Q1, Q4, Q6, Q8, Q12, Q13, Q14, Q19, and
* a **Wisconsin benchmark** database: two 8M-row 200-byte-tuple tables
  (BIG1, BIG2) and one 800K-row table (SMALL), total 4.5 GB.

Both are rebuilt here as scaled-down synthetic generators with the same
schemas and the value distributions the evaluated queries depend on.
Scale knobs live in :mod:`repro.harness.config`.
"""

from typing import Callable, Dict, Tuple

from repro.workloads.clients import ClosedLoopClient, mixed_tpch_factory, run_workload
from repro.workloads.metrics import WorkloadMetrics

__all__ = [
    "ClosedLoopClient",
    "WorkloadMetrics",
    "memo_tables",
    "mixed_tpch_factory",
    "run_workload",
]

Tables = Dict[str, Tuple[tuple, ...]]

#: Memo for generated datasets, one bounded map per generator (a key's
#: first element names it).  Generation is a pure function of the key,
#: and regenerating identical tables for every experiment data point
#: dominated macro wall-clock (DESIGN.md section 10).
_GENERATED: Dict[str, Dict[tuple, Tables]] = {"tpch": {}, "wisconsin": {}}
_GENERATED_MAX = 8


def memo_tables(key: tuple, build: Callable[[], Tables]) -> Tables:
    """``build()``'s tables, built once per *key*.

    ``build`` makes each table one tuple of row tuples, and every caller
    of a key gets those very tuples: immutable all the way down, they
    need no copy to stay independent of the memo, and a repeated build
    hands ``repro.storage.image.SameRows`` the object it was keyed by.
    """
    cache = _GENERATED[key[0]]
    cached = cache.get(key)
    if cached is None:
        cached = build()
        # Deterministic memo: the value is a pure function of the key
        # and eviction follows insertion order, so cell payloads cannot
        # observe whether the cache was warm.
        if len(cache) >= _GENERATED_MAX:
            cache.pop(next(iter(cache)))  # simlint: disable=IPR201
        cache[key] = cached  # simlint: disable=IPR201
    return dict(cached)
