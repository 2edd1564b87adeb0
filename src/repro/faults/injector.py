"""The fault injector: arms a :class:`FaultPlan` against a live engine.

The injector has two delivery channels:

* a **disk hook** installed on the host's :class:`~repro.hw.disk.Disk`.
  On every read the hook consumes the earliest armed matching disk fault
  and translates it into a :class:`FaultAction` (an error to raise, extra
  latency to charge) or a corruption mark on the
  :class:`~repro.storage.file.BlockStore` (which the buffer pool's
  checksum verification then trips over);
* **process-fault processes**, one per scheduled crash/disconnect, that
  sleep until their virtual timestamp and then pick a victim
  deterministically (sorted candidates, index modulo count).

Determinism: faults are consumed in disk-request order under a virtual
clock, victims are chosen by sorted ids -- two runs with the same plan,
seed and workload inject byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Set, Tuple

from repro.faults.errors import DiskReadError, QueryAborted
from repro.faults.plan import DiskFault, FaultPlan, LogFault, ProcessFault


@dataclass
class FaultAction:
    """What the disk hook tells the Disk to do for one read."""

    error: Optional[BaseException] = None
    extra_latency: float = 0.0


class FaultInjector:
    """Arms one :class:`FaultPlan` against one QPipe engine."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.engine = None
        self.sm = None
        self.sim = None
        #: Dead blocks: every further read of these fails permanently.
        self._dead_blocks: Set[Tuple[int, int]] = set()
        #: Armed disk faults with remaining counts, in schedule order.
        self._armed: List[List] = []  # [DiskFault, remaining_count]
        self._clients: List[Any] = []
        #: Live lineage logs eligible for log-device faults, in
        #: registration order (victims picked by sorted query id).
        self._lineage_logs: List[Any] = []
        #: Log of fired faults (for reports/tests); deterministic values.
        self.fired: List[dict] = []

    # ------------------------------------------------------------------
    def attach(self, engine) -> "FaultInjector":
        """Install the disk hook and start the process-fault timers."""
        self.engine = engine
        self.sm = engine.sm
        self.sim = engine.sim
        self._armed = [
            [fault, fault.count]
            for fault in sorted(
                self.plan.disk_faults,
                key=lambda f: (f.at, f.kind, f.table or "", f.count),
            )
        ]
        self.sm.host.disk.fault_hook = self._disk_hook
        for i, fault in enumerate(
            sorted(self.plan.process_faults,
                   key=lambda f: (f.at, f.kind, f.target))
        ):
            self.sim.spawn(
                self._process_fault(fault), name=f"fault-{fault.kind}-{i}"
            )
        for i, fault in enumerate(
            sorted(self.plan.log_faults,
                   key=lambda f: (f.at, f.kind, f.target))
        ):
            self.sim.spawn(
                self._log_fault(fault), name=f"fault-log-{fault.kind}-{i}"
            )
        return self

    def register_client(self, process) -> None:
        """Make a client process eligible for ``disconnect`` faults."""
        self._clients.append(process)

    def register_lineage_log(self, log) -> None:
        """Make a per-query lineage log eligible for log-device faults."""
        self._lineage_logs.append(log)

    # ------------------------------------------------------------------
    # Disk channel
    # ------------------------------------------------------------------
    def _table_file_id(self, table: Optional[str]) -> Optional[int]:
        if table is None:
            return None
        return self.sm.table_file_id(table)

    def _record(self, etype: str, **fields) -> None:
        entry = {"ts": self.sim.now, "type": etype}
        entry.update(fields)
        self.fired.append(entry)
        self.sim.tracer.fault(etype, **fields)

    def _disk_hook(self, file_id: int, block_no: int) -> Optional[FaultAction]:
        key = (file_id, block_no)
        if key in self._dead_blocks:
            return FaultAction(
                error=DiskReadError(file_id, block_no, transient=False)
            )
        now = self.sim.now
        for entry in self._armed:
            fault, remaining = entry
            if fault.at > now:
                continue
            scope = self._table_file_id(fault.table)
            if scope is not None and scope != file_id:
                continue
            entry[1] = remaining - 1
            if entry[1] <= 0:
                self._armed.remove(entry)
            return self._fire_disk(fault, file_id, block_no)
        return None

    def _fire_disk(
        self, fault: DiskFault, file_id: int, block_no: int
    ) -> Optional[FaultAction]:
        if fault.kind == "slow":
            self._record(
                "disk_slow", file=file_id, block=block_no,
                extra=fault.extra_latency,
            )
            return FaultAction(extra_latency=fault.extra_latency)
        if fault.kind == "error":
            self._record(
                "disk_error", file=file_id, block=block_no,
                transient=fault.transient,
            )
            if not fault.transient:
                self._dead_blocks.add((file_id, block_no))
            return FaultAction(
                error=DiskReadError(file_id, block_no,
                                    transient=fault.transient)
            )
        # "corrupt": the read itself succeeds but delivers a page that
        # fails its checksum; the mark lives on the BlockStore and the
        # buffer pool verifies after every read.
        self._record(
            "page_corrupt", file=file_id, block=block_no,
            transient=fault.transient,
        )
        self.sm.store.corrupt_block(
            file_id, block_no, permanent=not fault.transient
        )
        return None

    # ------------------------------------------------------------------
    # Process channel
    # ------------------------------------------------------------------
    def _process_fault(self, fault: ProcessFault):
        delay = max(0.0, fault.at - self.sim.now)
        yield self.sim.timeout(delay)
        if fault.kind == "crash_query":
            self._crash_query(fault)
        elif fault.kind == "crash_scanner":
            self._crash_scanner(fault)
        elif fault.kind == "disconnect":
            self._disconnect(fault)

    def _crash_query(self, fault: ProcessFault) -> None:
        active = getattr(self.engine, "_active", {})
        candidates = sorted(active)
        if not candidates:
            return
        query_id = candidates[fault.target % len(candidates)]
        query = active[query_id]
        self._record("query_crash", query=query_id)
        self.engine.abort_query(
            query,
            "injected process crash",
            QueryAborted(query_id, "injected process crash"),
        )

    def _crash_scanner(self, fault: ProcessFault) -> None:
        # An engine without micro-engines (IteratorEngine) has no shared
        # scanner threads to crash.
        engines = getattr(self.engine, "engines", None)
        fscan = engines.get("fscan") if engines is not None else None
        manager = getattr(fscan, "_circular", None)
        if manager is None or not manager.scans:
            return
        if fault.table is not None:
            scan = manager.scans.get(fault.table)
        else:
            tables = sorted(manager.scans)
            scan = manager.scans[tables[fault.target % len(tables)]]
        if scan is None:
            return
        proc = getattr(scan, "scanner_proc", None)
        if proc is None or not proc.alive:
            return
        self._record(
            "scanner_crash", table=scan.table, position=scan.current_page
        )
        proc.interrupt("injected scanner crash")

    def _disconnect(self, fault: ProcessFault) -> None:
        alive = sorted(
            (p for p in self._clients if p.alive), key=lambda p: p.name
        )
        if not alive:
            return
        victim = alive[fault.target % len(alive)]
        self._record("client_disconnect", client=victim.name)
        victim.interrupt("client disconnected")

    # ------------------------------------------------------------------
    # Log-device channel
    # ------------------------------------------------------------------
    def _log_fault(self, fault: LogFault):
        delay = max(0.0, fault.at - self.sim.now)
        yield self.sim.timeout(delay)
        logs = sorted(self._lineage_logs, key=lambda l: l.query_id)
        if not logs:
            return
        victim = logs[fault.target % len(logs)]
        if fault.kind == "error":
            victim.fail_next_flush = True
            victim.fail_transient = fault.transient
            self._record(
                "log_error", query=victim.query_id, transient=fault.transient
            )
        else:
            victim.tear_next_flush = True
            self._record("log_torn", query=victim.query_id)
