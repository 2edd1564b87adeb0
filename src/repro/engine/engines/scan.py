"""The file-scan micro-engine.

With OSP enabled, unordered scans are served by the circular-scan manager
(section 4.3.1): one dedicated scanner thread per relation, all concurrent
scan packets attached as consumers with their own termination points.

Ordered scans have a *spike* window of opportunity: they run standalone
(the 4.3.2 strategies for exploiting in-progress scans under merge joins
live in the index-scan micro-engine, where the paper's Figure 9 workload
puts them).

With OSP disabled (the Baseline configuration), every scan packet reads
its pages independently -- sharing happens only in the buffer pool.
"""

from __future__ import annotations

from typing import Generator

from repro.engine.micro_engine import MicroEngine
from repro.engine.packets import Packet
from repro.relational import compile
from repro.storage.locks import LockMode


class FScanEngine(MicroEngine):
    overlap_class = "linear"

    def __init__(self, name: str, engine, workers: int = 64):
        super().__init__(name, engine, workers=workers)
        # Created lazily so the engine facade can finish constructing.
        self._circular = None

    @property
    def circular(self):
        if self._circular is None:
            from repro.osp.circular import CircularScanManager

            self._circular = CircularScanManager(self.engine)
        return self._circular

    # ------------------------------------------------------------------
    def try_share(self, packet: Packet) -> bool:
        # Circular scans subsume queue-time sharing for unordered scans:
        # the packet always goes through serve(), which attaches it to the
        # shared scanner.  Exact-signature sharing would also be legal but
        # the circular path is strictly more general (different predicates
        # still share), so scans never attach at the queue.
        return False

    def serve(self, packet: Packet) -> Generator:
        packet.phase = "scan"
        group = packet.artifacts.get("fold_group")
        if group is not None:
            # A fold-group host: run the group's widened scan in canonical
            # page order (never circular -- skip-by-count redispatch of
            # fold members relies on it).
            yield from group.serve(packet)
            return
        if (
            self.engine.osp_enabled
            and not packet.plan.ordered
            and not packet.no_share
            and packet.plan.resume is None
        ):
            attached = yield from self.circular.serve(packet)
            if attached:
                return
        yield from self._standalone_scan(packet)

    # ------------------------------------------------------------------
    def _standalone_scan(self, packet: Packet) -> Generator:
        sm = self.engine.sm
        plan = packet.plan
        base = sm.catalog.table_schema(plan.table)
        post = compile.scan(plan.predicate, plan.project, base)
        # Section 4.3.4: a scan waits while the table is locked for writing.
        owner = ("scan", packet.query.query_id, packet.packet_id)
        num_pages = sm.num_pages(plan.table)
        if plan.resume is None:
            pages = range(num_pages)
        else:
            # Recovery: replay exactly the unconsumed suffix, continuing
            # the wrapped page order the crashed consumer was seeing.
            start, count = plan.resume
            pages = ((start + i) % num_pages for i in range(count))
        lineage = packet.query.lineage
        yield sm.locks.acquire(owner, plan.table, LockMode.SHARED)
        try:
            for block in pages:
                page = yield from sm.read_table_page(
                    plan.table, block, scan=True, stream=packet.stream
                )
                rows = page.rows()
                yield from self.charge(packet, len(rows))
                rows = post(rows)
                if lineage is not None:
                    # Before put(): the page entry must exist by the time
                    # the root sees the batch and computes its frontier.
                    lineage.scan_page(
                        packet.stream, plan.table, block, len(rows),
                        num_pages,
                    )
                if rows:
                    # Intentional blocking-while-holding: the table scan
                    # lock is held for the whole scan by design (QPipe's
                    # one-scan-at-a-time policy); backpressure here is the
                    # scan pacing itself, not a deadlock hazard -- the
                    # consumer never takes table locks.
                    yield from packet.output.put(rows)
        finally:
            # Tolerant: the abort path's lock sweep may get here first.
            sm.locks.release_if_held(owner, plan.table)
