"""The push-based fused engine.

Drop-in interface-compatible with
:class:`~repro.baseline.engine.IteratorEngine`: same constructor shape,
same ``execute`` coroutine contract, same
:class:`~repro.results.QueryResult`.  Internally it compiles the plan
into push pipelines (:mod:`repro.pushexec.compiler`).

Because the compiled pipelines replay the iterator operators' exact
virtual-cost schedule, this engine is observationally identical to the
iterator engine inside the simulation -- same disk reads, same CPU
charges, same virtual timestamps -- while crossing far fewer host
coroutine frames per batch.

Fault handling mirrors the packet engine's contract: running queries are
registered in ``_active`` (so the fault injector's ``crash_query``
channel can target them), an abort interrupts the driving process, and
the teardown path closes the pipeline generators, drops any live spill
files and sweeps the query's locks -- pin/lock balance holds after any
injected fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from repro.baseline.operators import ExecContext
from repro.faults.errors import QueryAborted
from repro.hw.host import Host
from repro.pushexec.compiler import compile_plan, pull_batch
from repro.relational.plans import PlanNode
from repro.results import QueryResult
from repro.sim.errors import Interrupted
from repro.storage.manager import StorageManager


@dataclass
class _PushQuery:
    """Abort-state handle for one in-flight pushed query."""

    query_id: int
    ctx: ExecContext
    proc: Any = None
    aborted: bool = False
    abort_reason: Optional[str] = None
    failure: Optional[BaseException] = None


@dataclass
class PushEngine:
    """Push-based engine over a shared storage manager.

    Args:
        sm: the storage manager (shared across queries).
        work_mem_tuples: per-query memory budget, in tuples.
        name: label for reports and lock ownership.
    """

    sm: StorageManager
    work_mem_tuples: int = 50_000
    name: str = "pushed"
    _next_query_id: int = field(default=0, repr=False)
    _active: Dict[int, _PushQuery] = field(default_factory=dict, repr=False)
    active_queries: int = 0
    queries_completed: int = 0
    queries_aborted: int = 0

    @property
    def host(self) -> Host:
        return self.sm.host

    @property
    def sim(self):
        return self.sm.sim

    def execute(
        self,
        plan: PlanNode,
        query_id: Optional[int] = None,
        lineage=None,
    ) -> Generator:
        """Coroutine: run *plan* to completion; returns a QueryResult."""
        if query_id is None:
            self._next_query_id += 1
            query_id = self._next_query_id
        submitted = self.sim.now
        ctx = ExecContext(
            sm=self.sm,
            host=self.host,
            work_mem_tuples=self.work_mem_tuples,
            owner=("q", self.name, query_id),
            lineage=lineage,
        )
        pipeline = compile_plan(plan, ctx)
        gen = pipeline.generator()
        handle = _PushQuery(
            query_id=query_id, ctx=ctx, proc=self.sim.active_process
        )
        self.active_queries += 1
        self._active[query_id] = handle
        started = self.sim.now
        rows: List[tuple] = []
        try:
            while True:
                batch = yield from pull_batch(gen)
                if batch is None:
                    break
                rows.extend(batch)
                if lineage is not None:
                    yield from lineage.on_root_batch(batch)
        except BaseException as exc:
            # The interrupt/error already unwound the pipeline's own
            # yield-from chain (running its finally blocks); close() is
            # belt-and-suspenders for generators parked between pulls.
            gen.close()
            if handle.aborted and isinstance(exc, Interrupted):
                self.queries_aborted += 1
                raise handle.failure or QueryAborted(
                    query_id, handle.abort_reason or "aborted"
                ) from None
            raise
        finally:
            self._active.pop(query_id, None)
            self.active_queries -= 1
            self.queries_completed += 1
            for temp in list(ctx.temp_files):
                ctx.drop_temp(temp)
            self.sm.locks.release_all(ctx.owner)
        return QueryResult(
            query_id=query_id,
            rows=rows,
            submitted_at=submitted,
            started_at=started,
            finished_at=self.sim.now,
        )

    # ------------------------------------------------------------------
    def abort_query(self, handle: _PushQuery, reason: str,
                    failure: Optional[BaseException] = None) -> None:
        """Abort one in-flight query (fault-injector entry point):
        exactly-once; interrupts the driving process, whose unwind runs
        the pipeline teardown in ``execute``'s except/finally."""
        if handle.aborted:
            return
        handle.aborted = True
        handle.abort_reason = reason
        if failure is not None:
            handle.failure = failure
        self.sim.tracer.query_abort(handle, reason)
        if handle.proc is not None and handle.proc.alive:
            handle.proc.interrupt(reason)

    def run_query(self, plan: PlanNode) -> List[tuple]:
        """Convenience: spawn, run the clock, return the rows (tests)."""
        proc = self.sim.spawn(self.execute(plan), name="query")
        self.sim.run()
        return proc.value.rows
