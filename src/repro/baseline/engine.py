"""The query-centric iterator engine (Figure 5a).

One simulated process per query pulls batches through the operator tree
(:func:`~repro.baseline.operators.build_operator`, streaming runs fused)
and collects them.  No cross-query coordination exists above the buffer
pool -- this is precisely the sharing limitation the paper attacks.

Fault handling mirrors the packet engine's contract: running queries
are registered in ``_active`` (so the fault injector's ``crash_query``
channel can target them), an abort interrupts the driving process, and
the teardown path drops any live spill files and sweeps the query's
locks -- pin/lock balance holds after any injected fault or client
disconnect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from repro.baseline.operators import ExecContext, build_operator
from repro.faults.errors import QueryAborted
from repro.results import QueryResult
from repro.hw.host import Host
from repro.relational.plans import PlanNode
from repro.sim.errors import Interrupted
from repro.storage.manager import StorageManager


@dataclass
class _ActiveQuery:
    """Abort-state handle for one in-flight query."""

    query_id: int
    proc: Any = None
    aborted: bool = False
    abort_reason: Optional[str] = None
    failure: Optional[BaseException] = None


@dataclass
class IteratorEngine:
    """Conventional engine over a shared storage manager.

    Args:
        sm: the storage manager (shared across queries; its buffer pool is
            the only sharing mechanism).
        work_mem_tuples: per-query memory budget, in tuples.
        name: label ("baseline" or "dbms-x") for reports and lock
            ownership.
    """

    sm: StorageManager
    work_mem_tuples: int = 50_000
    name: str = "iterator"
    _next_query_id: int = field(default=0, repr=False)
    _active: Dict[int, _ActiveQuery] = field(default_factory=dict, repr=False)
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
        root = build_operator(plan, ctx)
        handle = _ActiveQuery(query_id=query_id, proc=self.sim.active_process)
        self.active_queries += 1
        self._active[query_id] = handle
        started = self.sim.now
        rows: List[tuple] = []
        try:
            while True:
                batch = yield from root.next_batch()
                if batch is None:
                    break
                rows.extend(batch)
                if lineage is not None:
                    yield from lineage.on_root_batch(batch)
        except Interrupted:
            if handle.aborted:
                self.queries_aborted += 1
                raise handle.failure or QueryAborted(
                    query_id, handle.abort_reason or "aborted"
                ) from None
            raise
        finally:
            # Every exit -- completion, fault, abort, client disconnect --
            # leaves no spill file and no lock behind.
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

    def abort_query(self, handle: _ActiveQuery, reason: str,
                    failure: Optional[BaseException] = None) -> None:
        """Abort one in-flight query (fault-injector entry point):
        exactly-once; interrupts the driving process, whose unwind runs
        the teardown in ``execute``'s finally."""
        if handle.aborted:
            return
        handle.aborted = True
        handle.abort_reason = reason
        if failure is not None:
            handle.failure = failure
        self.sim.tracer.query_abort(handle, reason, self.host.node)
        if handle.proc is not None and handle.proc.alive:
            handle.proc.interrupt(reason)

    def run_query(self, plan: PlanNode) -> List[tuple]:
        """Convenience: spawn, run the clock, return the rows (tests)."""
        proc = self.sim.spawn(self.execute(plan), name="query")
        self.sim.run()
        return proc.value.rows
