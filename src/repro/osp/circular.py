"""Circular scans: shared table scans with per-consumer termination points.

Section 4.3.1: "we maintain a dedicated scan thread that is responsible
for scanning a particular relation. ... The scanner thread essentially
plays the role of the host packet and the newly arrived packet becomes a
satellite. ... When the scanner thread reaches the end-of-file for the
first time, it will keep scanning the relation from the beginning, to
serve the unread pages."

Each consumer attaches at the scanner's current position and detaches
after receiving exactly ``num_pages`` consecutive pages -- a full pass
over the relation regardless of where it joined.  Each consumer applies
its *own* predicate and projection, which is why scans with entirely
different selection predicates still share all their page reads (the
Figure 12 workload).

Late activation: a scan packet only attaches once its output buffer has
been flagged ready by its consumer, so queries cannot delay each other
by holding the shared scan back before they are ready to read.

A fold group (:mod:`repro.folding`) is state on the scan, and the
scanner is its host too: per page it runs the group's step -- one wide
filter whose survivors feed the group's aggregate banks and its scan
members, which are ordinary consumers here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List

from repro.engine.packets import Packet, PacketState
from repro.faults.errors import FaultError
from repro.relational import compile
from repro.sim import ChannelClosed, Event, Interrupted
from repro.storage.locks import LockMode
from repro.storage.streams import next_stream


@dataclass
class ScanConsumer:
    """One query's attachment to a circular scan."""

    packet: Packet
    #: ``page rows -> this consumer's rows``: its own predicate and
    #: projection, one generated comprehension per delivered page.
    post: Callable
    pages_remaining: int
    done: Event
    delivered_pages: int = 0
    #: The scan's ``visit_seq`` at this consumer's last delivered page.
    #: A restarted scanner re-reads the page it died on; consumers that
    #: already received it under the same visit are skipped, keeping
    #: delivery exactly-once across crashes.
    last_visit: int = -1
    #: Buffer-pool stream identity for this consumer's private catch-up
    #: scan (process-unique, never a recycled object id).
    stream: Any = field(default_factory=next_stream)
    #: Post-filter row count of the last page delivered to this consumer
    #: (what lineage records as the page's contribution to the output).
    last_out: int = 0


@dataclass
class CircularScan:
    """The scanner-thread state for one table."""

    table: str
    num_pages: int
    #: Deterministic scan instance number (lock-owner identity in traces).
    seq: int = 0
    current_page: int = 0
    consumers: List[ScanConsumer] = field(default_factory=list)
    running: bool = False
    total_pages_scanned: int = 0
    #: Monotonic page-visit counter (never wraps with current_page).
    visit_seq: int = 0
    #: The scanner process currently driving this scan (crash target).
    scanner_proc: Any = None
    #: Buffer-pool stream identity of the shared scanner itself.
    stream: Any = field(default_factory=next_stream)
    #: The open :class:`~repro.folding.FoldGroup` riding this scan, if any.
    fold: Any = None


class CircularScanManager:
    """Owns one circular scan per table, on demand."""

    def __init__(self, engine):
        self.engine = engine
        self.sim = engine.sim
        self.sm = engine.sm
        self.scans: Dict[str, CircularScan] = {}
        self._seq = 0

    # ------------------------------------------------------------------
    def serve(self, packet: Packet) -> Generator:
        """Coroutine (runs in an FScan worker): attach *packet* as a
        consumer and wait until its full pass completes.

        Returns False (without attaching) when wrap-around sharing is
        disabled and the scanner is already mid-file -- the caller then
        falls back to a standalone scan (the naive-sharing ablation).
        """
        plan = packet.plan
        table = plan.table
        base = self.sm.catalog.table_schema(table)
        post = compile.scan(plan.predicate, plan.project, base)
        # Late activation: wait for the consumer to flag readiness.
        if getattr(self.engine.config, "late_activation", True):
            yield from packet.primary_output.wait_activated()

        scan = self.scans.get(table)
        if (
            scan is not None
            and scan.running
            and scan.current_page != 0
            and not getattr(self.engine.config, "circular_wraparound", True)
        ):
            return False
        done = Event(self.sim)
        done.describe = f"circular scan of {table}"
        consumer = ScanConsumer(
            packet=packet,
            post=post,
            pages_remaining=self.sm.num_pages(table),
            done=done,
        )
        if scan is None or not scan.running:
            self.start(table, packet).consumers.append(consumer)
        else:
            # Attach at the scanner's current position; the new
            # termination point is one full cycle from here.
            scan.consumers.append(consumer)
            self.engine.osp_stats.record_attach("fscan-circular", packet)
            self.sim.tracer.osp(
                "circular_attach",
                packet=packet.packet_id,
                table=table,
                position=scan.current_page,
            )
        yield consumer.done
        return True

    def start(self, table: str, packet: Packet) -> CircularScan:
        """Register a scan of *table* and spawn its scanner thread; the
        caller attaches *packet* (a consumer or a fold member) before the
        scanner's first step."""
        scan = CircularScan(
            table=table, num_pages=self.sm.num_pages(table), seq=self._seq
        )
        self._seq += 1
        scan.running = True
        self.scans[table] = scan
        self.sim.tracer.osp(
            "circular_start", packet=packet.packet_id, table=table
        )
        scan.scanner_proc = self.sim.spawn(
            self._scanner(scan), name=f"scanner-{table}"
        )
        return scan

    # ------------------------------------------------------------------
    def _scanner(self, scan: CircularScan) -> Generator:
        """The dedicated scanner thread for one relation.

        The scanner is the *host* of every attached scan: its death must
        not fail its sharers.  A crash (interrupt) while consumers remain
        restarts the scan thread at the current position -- per-consumer
        ``last_visit`` marks keep page delivery exactly-once across the
        restart.  An unrecoverable storage fault aborts the consumers'
        queries with the typed error instead of hanging them.
        """
        sm = self.sm
        # Section 4.3.4: the shared scan holds a shared table lock, so it
        # (and all its satellites with it) waits out concurrent writers.
        owner = ("scanner", scan.table, scan.seq)
        try:
            yield sm.locks.acquire(owner, scan.table, LockMode.SHARED)
            yield from self._scan_loop(scan)
        except Interrupted:
            if (
                scan.consumers or scan.fold is not None
            ) and self.scans.get(scan.table) is scan:
                self.sim.tracer.osp(
                    "scanner_restart",
                    table=scan.table,
                    position=scan.current_page,
                    consumers=len(scan.consumers),
                )
                scan.scanner_proc = self.sim.spawn(
                    self._scanner(scan), name=f"scanner-{scan.table}"
                )
            else:
                self._unregister(scan)
                for consumer in list(scan.consumers):
                    self._finish(scan, consumer)
        except FaultError as exc:
            self.sim.tracer.fault(
                "scan_failed", table=scan.table, error=type(exc).__name__
            )
            self._unregister(scan)
            if scan.fold is not None:
                scan.fold.fail(exc)
            for consumer in list(scan.consumers):
                query = consumer.packet.query
                if query.engine is not None and not query.aborted:
                    query.engine.abort_query(query, str(exc), exc)
                self._finish(scan, consumer)
        finally:
            sm.locks.release_if_held(owner, scan.table)

    def _unregister(self, scan: CircularScan) -> None:
        scan.running = False
        if self.scans.get(scan.table) is scan:
            del self.scans[scan.table]

    def _scan_loop(self, scan: CircularScan) -> Generator:
        """Coroutine: read page after page, delivering each to every
        attached consumer -- filtered and projected per consumer -- in
        one loop body."""
        sm = self.sm
        charge = self.engine.engines["fscan"].charge
        while scan.consumers or scan.fold is not None:
            page = yield from sm.read_table_page(
                scan.table, scan.current_page, scan=True, stream=scan.stream
            )
            rows = page.rows()
            scan.total_pages_scanned += 1
            if scan.fold is not None:
                yield from scan.fold.take(scan, rows)
            shared_consumers = len(scan.consumers)
            if shared_consumers > 1:
                self.engine.osp_stats.shared_page_deliveries += (
                    shared_consumers - 1
                )
            patience = self._patience
            for consumer in list(scan.consumers):
                if consumer.done.triggered:
                    continue
                if consumer.last_visit == scan.visit_seq:
                    continue  # delivered before a mid-page scanner crash
                packet = consumer.packet
                if packet.output.closed or packet.query.aborted:
                    self._finish(scan, consumer)  # the consumer went away
                    continue
                yield from charge(packet, len(rows))
                out = consumer.post(rows)
                consumer.last_out = len(out)
                if out:
                    output = packet.primary_output
                    before = output.tuples_in
                    try:
                        accepted = yield from output.put_with_patience(
                            out, patience
                        )
                    except ChannelClosed:
                        self._finish(scan, consumer)
                        continue
                    except Interrupted:
                        # The scanner was killed mid-put.  If the batch
                        # slipped in before the interrupt landed, record
                        # the delivery so the restarted scanner skips this
                        # consumer for this page.
                        if output.tuples_in > before:
                            self._mark_delivered(scan, consumer)
                        raise
                    if not accepted:
                        # Section 3.3: do not hold everyone to the slowest
                        # consumer forever -- cut it loose.
                        self._detach(scan, consumer)
                        continue
                self._mark_delivered(scan, consumer)
                if consumer.pages_remaining <= 0:
                    self._finish(scan, consumer)
            # Carry no consumer (a finished one pins its query's packet
            # tree) and no batch across the next page read.
            consumer = packet = output = out = None
            scan.visit_seq += 1
            scan.current_page = (scan.current_page + 1) % scan.num_pages
        self._unregister(scan)

    @staticmethod
    def _mark_delivered(scan: CircularScan, consumer: ScanConsumer) -> None:
        consumer.last_visit = scan.visit_seq
        consumer.pages_remaining -= 1
        consumer.delivered_pages += 1
        # Lineage sees the delivery only once it is complete (the put
        # accepted), under the *consumer's* identity: each sharer of the
        # circular scan tracks its own wrapped page order from wherever
        # it attached.
        lineage = consumer.packet.query.lineage
        if lineage is not None:
            lineage.scan_page(
                consumer.packet.stream, scan.table, scan.current_page,
                consumer.last_out, scan.num_pages,
            )

    @property
    def _patience(self) -> float:
        """How long the scanner waits on one consumer before detaching it.

        Section 3.3: a consumer that cannot keep up must not hold the
        shared scan hostage -- "it will need to detach from the rest of
        the scans".  A few page-service-times of grace absorbs normal
        jitter without coupling everyone to a stalled pipeline.
        """
        disk = self.engine.host.config
        return 5.0 * (disk.disk_seek_time + disk.disk_transfer_time)

    def _detach(self, scan: CircularScan, consumer: ScanConsumer) -> None:
        """Cut a stalled consumer loose with a private catch-up scan."""
        if consumer in scan.consumers:
            scan.consumers.remove(consumer)
        self.engine.osp_stats.scan_detaches += 1
        self.sim.tracer.osp(
            "scan_detach",
            packet=consumer.packet.packet_id,
            table=scan.table,
            position=scan.current_page,
            remaining=consumer.pages_remaining,
        )
        self.sim.spawn(
            self._catchup(consumer, scan.table, scan.current_page,
                          scan.num_pages),
            name=f"catchup-{scan.table}",
        )

    def _catchup(
        self,
        consumer: ScanConsumer,
        table: str,
        start_page: int,
        num_pages: int,
    ) -> Generator:
        """A detached consumer's private scan over its remaining pages.

        Proceeds at the consumer's own pace (blocking puts) from the
        position where it fell off the shared scanner, wrapping at EOF.
        """
        sm = self.sm
        packet = consumer.packet
        page_no = start_page
        try:
            while consumer.pages_remaining > 0:
                page = yield from sm.read_table_page(
                    table, page_no, scan=True, stream=consumer.stream
                )
                status = yield from self._deliver_blocking(consumer, page.rows())
                if not status:
                    break
                consumer.pages_remaining -= 1
                consumer.delivered_pages += 1
                lineage = packet.query.lineage
                if lineage is not None:
                    lineage.scan_page(
                        packet.stream, table, page_no,
                        consumer.last_out, num_pages,
                    )
                page_no = (page_no + 1) % num_pages
        except ChannelClosed:
            pass
        except FaultError as exc:
            # A private catch-up scan failing affects only its own query.
            query = packet.query
            if query.engine is not None and not query.aborted:
                query.engine.abort_query(query, str(exc), exc)
        self._finish(None, consumer)

    def _deliver_blocking(self, consumer: ScanConsumer, rows) -> Generator:
        packet = consumer.packet
        if packet.output.closed:
            return False
        yield from self.engine.engines["fscan"].charge(packet, len(rows))
        out = consumer.post(rows)
        consumer.last_out = len(out)
        if out:
            try:
                yield from packet.primary_output.put(out)
            except ChannelClosed:
                return False
        return True

    def _finish(self, scan, consumer: ScanConsumer) -> None:
        if scan is not None and consumer in scan.consumers:
            scan.consumers.remove(consumer)
        packet = consumer.packet
        if (
            packet.state is PacketState.SATELLITE
            and consumer.pages_remaining <= 0
        ):
            packet.complete()  # a fold member: its pass is whole
        if not packet.output.closed:
            packet.output.close()
        if not consumer.done.triggered:
            consumer.done.succeed()
