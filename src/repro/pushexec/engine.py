"""The push-based fused engine.

:class:`~repro.baseline.engine.IteratorEngine` with a different plan
builder: same constructor, same ``execute`` driver (registration, abort
and teardown included), same :class:`~repro.results.QueryResult`.  The
operator tree it runs fuses each run of streaming operators into one
chain (:mod:`repro.pushexec.compiler`), so the engine is observationally
identical to the iterator engine inside the simulation -- same disk
reads, same CPU charges, same virtual timestamps -- while crossing fewer
host coroutine frames per batch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baseline.engine import IteratorEngine
from repro.pushexec.compiler import compile_plan


@dataclass
class PushEngine(IteratorEngine):
    """Push-based engine over a shared storage manager.

    Args:
        sm: the storage manager (shared across queries).
        work_mem_tuples: per-query memory budget, in tuples.
        name: label for reports and lock ownership.
    """

    name: str = "pushed"

    build = staticmethod(compile_plan)
