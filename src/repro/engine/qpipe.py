"""The QPipe engine facade.

Construction instantiates every micro-engine (whose worker pool starts
empty and spawns a worker per queued packet, up to its size), the
packet dispatcher, the OSP statistics block, and the deadlock detector.
Clients call :meth:`QPipeEngine.execute` (a coroutine) per query; the
engine splits the plan into packets and the client reads final results
from the root buffer -- exactly the lifecycle of section 4.4.

``osp_enabled=False`` turns every sharing mechanism off, yielding the
paper's **Baseline** system ("the BerkeleyDB-based QPipe implementation
with OSP disabled").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from repro.engine.buffers import SEGMENT_BOUNDARY, TupleBuffer
from repro.engine.dispatcher import PacketDispatcher
from repro.engine.engines import build_engines
from repro.engine.packets import PacketState, QueryContext
from repro.faults.errors import FaultError, QueryAborted
from repro.folding import FoldCoordinator
from repro.sim.errors import Interrupted
from repro.osp.deadlock import DeadlockDetector
from repro.osp.stats import OspStats
from repro.relational.plans import PlanNode
from repro.results import QueryResult
from repro.storage.manager import StorageManager


@dataclass
class QPipeConfig:
    """Engine-wide knobs."""

    #: Capacity of each intermediate buffer, in tuples.
    buffer_tuples: int = 4096
    #: Fan-out replay ring size (the Figure 4b buffering enhancement).
    replay_tuples: int = 2048
    #: Worker threads per micro-engine (the scan engine gets 4x).
    workers: int = 8
    #: Master OSP switch; False gives the paper's Baseline system.
    osp_enabled: bool = True
    #: Per-query work memory (sort heaps / hash tables), in tuples.
    work_mem_tuples: int = 50_000
    #: Seconds a shared scanner waits on one stalled consumer before
    #: detaching it (None: 5 page-service-times, computed at run time).
    scan_detach_patience: float = None
    #: Section 4.2's two-level scheduling: map micro-engine name -> number
    #: of dedicated CPU cores (e.g. {"sort": 1, "hashjoin": 2}).  Unlisted
    #: engines charge the host's shared CPU pool.  None partitions nothing.
    cpu_partitions: dict = None
    #: Section 4.3.1's late activation: a scan packet only attaches to
    #: the shared scanner once its consumer is ready to receive tuples.
    #: Disabling it lets eager scans fill their buffers and stall the
    #: shared scanner ("prevents queries from delaying each other").
    late_activation: bool = True
    #: When False, a scan may share an in-progress circular scan only if
    #: the scanner happens to be at page 0 (naive attach-at-start
    #: sharing); the ablation benchmarks quantify what wrap-around adds.
    circular_wraparound: bool = True
    #: Generalized sharing (repro.folding): fold *similar* concurrent
    #: queries -- a fold group on the table's circular scan filters each
    #: page once with the union of their predicates, predicate-subsumed
    #: scans take per-query residuals of the survivors, and
    #: Aggregate(TableScan) queries merge into one aggregation pass.  Off
    #: by default: folding changes which packets run (an aggregate
    #: member's operators never do), so the paper-reproduction figures
    #: keep the original OSP-only paths.
    fold_enabled: bool = False
    name: str = "qpipe"


class QPipeEngine:
    """One QPipe instance over one storage manager."""

    def __init__(self, sm: StorageManager, config: Optional[QPipeConfig] = None):
        self.sm = sm
        self.sim = sm.sim
        self.host = sm.host
        self.config = config or QPipeConfig()
        self.osp_enabled = self.config.osp_enabled
        self.osp_stats = OspStats()
        from repro.hw.cpu import CPU

        self.cpu_partitions = {
            name: CPU(self.sim, cores=cores, name=f"cpu-{name}")
            for name, cores in (self.config.cpu_partitions or {}).items()
        }
        self.engines = build_engines(self, self.config.workers)
        self.dispatcher = PacketDispatcher(self)
        self.folds = FoldCoordinator(self)
        self.deadlock_detector = DeadlockDetector(self)
        #: Open buffers in registration order (a dict as an ordered set);
        #: each buffer removes itself when it closes.
        self._buffers: Dict[TupleBuffer, None] = {}
        self._next_query_id = 0
        self.active_queries = 0
        self.queries_completed = 0
        self.queries_aborted = 0
        #: Currently executing queries by id (fault injection targets).
        self._active: Dict[int, QueryContext] = {}

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def fold_stats(self):
        return self.folds.stats

    # ------------------------------------------------------------------
    # Buffer registry (deadlock detection)
    # ------------------------------------------------------------------
    def register_buffer(self, buffer: TupleBuffer) -> None:
        self._buffers[buffer] = None
        buffer.registry = self._buffers

    def live_buffers(self) -> List[TupleBuffer]:
        return list(self._buffers)

    # ------------------------------------------------------------------
    # Query lifecycle
    # ------------------------------------------------------------------
    def execute(
        self,
        plan: PlanNode,
        query_id: Optional[int] = None,
        deadline: Optional[float] = None,
        lineage=None,
    ) -> Generator:
        """Coroutine: run *plan* to completion; returns a QueryResult.

        *deadline* is an absolute virtual instant (``sim.now`` units),
        not a budget from submission: at that instant the engine aborts
        the query if it is still running (:exc:`QueryAborted`).  Any
        abort -- deadline, injected fault, client interrupt -- tears the
        packet tree down, closes its buffers, and reclaims every pin and
        table lock before the error surfaces here.
        """
        if query_id is None:
            self._next_query_id += 1
            query_id = self._next_query_id
        query = QueryContext(
            query_id=query_id,
            plan=plan,
            sm=self.sm,
            host_machine=self.host,
            work_mem_tuples=self.config.work_mem_tuples,
            submitted_at=self.sim.now,
            engine=self,
            deadline=deadline,
            lineage=lineage,
        )
        self.active_queries += 1
        self._active[query_id] = query
        self.deadlock_detector.ensure_running()
        if deadline is not None:
            self.sim.spawn(
                self._deadline_watch(query), name=f"deadline-q{query_id}"
            )
        try:
            root = self.dispatcher.dispatch(query)
            rows: List[tuple] = []
            while True:
                batch = yield from root.get()
                if batch is None:
                    break
                if batch is SEGMENT_BOUNDARY:
                    continue
                rows.extend(batch)
                if lineage is not None:
                    yield from lineage.on_root_batch(batch)
        except BaseException as exc:
            if not query.aborted:
                if isinstance(exc, Interrupted):
                    # The client process died (disconnect): clean up the
                    # server side before letting the interrupt unwind.
                    self.abort_query(query, "client disconnected")
                else:
                    self.abort_query(
                        query,
                        type(exc).__name__,
                        exc if isinstance(exc, FaultError) else None,
                    )
            raise
        finally:
            query.finished = True
            self._active.pop(query_id, None)
            self.active_queries -= 1
            self.queries_completed += 1
        if query.aborted:
            raise query.failure or QueryAborted(
                query_id, query.abort_reason or "aborted"
            )
        return QueryResult(
            query_id=query_id,
            rows=rows,
            submitted_at=query.submitted_at,
            started_at=query.submitted_at,
            finished_at=self.sim.now,
        )

    # ------------------------------------------------------------------
    # Abort / cancellation
    # ------------------------------------------------------------------
    def cancel(self, query_id: int, reason: str = "cancelled") -> bool:
        """Explicitly cancel a running query; returns False if unknown."""
        query = self._active.get(query_id)
        if query is None or query.aborted:
            return False
        self.abort_query(query, reason)
        return True

    def abort_query(self, query, reason: str, failure=None) -> None:
        """Tear one query down: exactly-once, isolation-preserving.

        Ordering matters: (1) other queries' satellites riding this
        query's packets answer their host's early end
        (:meth:`Packet.end_satellites`) *before* any buffer closes under
        them; (2) this query's own satellite packets are cancelled and
        removed from their hosts; (3) the packet tree is cancelled
        root-down, interrupting workers and closing buffers so every
        consumer sees EOF; (4) a delay-0 sweep reclaims all the query's
        table locks after the interrupts have run their cleanup.
        """
        if query.aborted:
            return
        query.aborted = True
        query.abort_reason = reason
        if failure is not None:
            query.failure = failure
        self.queries_aborted += 1
        self.sim.tracer.query_abort(query, reason, self.host.node)

        for packet in query.packets:
            packet.end_satellites(early=True)

        for packet in query.packets:
            if packet.state is PacketState.SATELLITE:
                packet.host.satellites.remove(packet)
                packet.cancel(f"query aborted: {reason}")

        if query.packets:
            root = query.packets[0]
            root.cancel_subtree()
            root.cancel(f"query aborted: {reason}")

        # Interrupted workers release their own locks via finally blocks
        # (tolerantly); this sweep catches whatever they could not.  It
        # runs at delay 0 so the URGENT interrupt deliveries go first.
        self.sim.schedule(0.0, self._reclaim_locks, query)

    def _reclaim_locks(self, query) -> None:
        qid = query.query_id
        self.sm.locks.release_where(
            lambda owner: isinstance(owner, tuple)
            and len(owner) >= 2
            and owner[0] in ("q", "scan")
            and owner[1] == qid
        )

    def _deadline_watch(self, query) -> Generator:
        delay = max(0.0, query.deadline - self.sim.now)
        yield self.sim.timeout(delay)
        if not query.finished and not query.aborted:
            self.abort_query(
                query, f"deadline of {query.deadline:.3f}s exceeded"
            )

    def run_query(self, plan: PlanNode) -> List[tuple]:
        """Convenience: spawn, run the clock, return the rows (tests)."""
        proc = self.sim.spawn(self.execute(plan), name="qpipe-query")
        self.sim.run()
        return proc.value.rows
