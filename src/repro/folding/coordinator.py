"""Generalized sharing: fold similar concurrent queries into one scan.

OSP (section 4.3) shares *identical* in-progress work.  This layer folds
queries that are merely *similar*: when a new query's scan predicate is
subsumed by -- or unions cheaply with -- the predicate of a fold group
open on the same table, the dispatcher enrolls the query as a *fold
member* instead of dispatching its own scan.  Each member receives
exactly the rows its own predicate + projection would have produced,
via a per-member residual filter from the shared expression compiler
(:mod:`repro.relational.compile`).  Whole ``Aggregate(TableScan)``
queries additionally fold their aggregation into a shared accumulator
bank (one accumulator per distinct aggregate), so N similar aggregate
queries cost one scan and one aggregation pass.

A fold group is state on the table's circular scan
(:mod:`repro.osp.circular`), whose scanner thread "plays the role of the
host packet" (section 4.3.1) for the group as for every other consumer:
per page it evaluates the group's *wide* filter (the union of the
members' predicates) once, the banks take the survivors, and scan
members are ordinary scan consumers whose ``post`` is their residual
over those survivors.  So every unordered scan of a table, folded or
not, rides one physical scan.

Correctness model:

* Widening the predicate is only allowed while the group has filtered
  no page; after that, joiners must be subsumed by the wide predicate.
* A joiner catches up synchronously from the survivor ring -- the
  survivors of every page the group has filtered, bounded by
  ``replay_tuples`` -- and a scan member's ``pages_remaining`` drops by
  the pages the ring covered, so every member ends with the group, one
  full pass after it opened.
* A member's rows equal its unfolded run's: its residual is its own
  predicate + projection applied to survivors of a wider predicate, and
  only order-insensitive consumers (a bank, an order-insensitive parent)
  see the page order.
* A member's early end (LIMIT, cancel, deadline, crash) drops only that
  member.  A scanner crash restarts at the page it died on; the group's
  ``visit`` mark, like each consumer's ``last_visit``, keeps every page
  exactly-once.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Tuple

from repro.engine.engines.aggregates import FoldBank
from repro.engine.packets import Packet, PacketState
from repro.folding.stats import FoldStats
from repro.osp.circular import ScanConsumer
from repro.relational import compile
from repro.relational.expressions import Or
from repro.relational.plans import Aggregate, TableScan
from repro.sim import Event
from repro.sql.planner import (
    fold_union,
    predicate_implies,
    predicate_selectivity,
)


def _compile_residual(predicate, project, schema):
    """``survivors -> member rows``: the member's own filter + projection."""
    if predicate is None and project is None:
        return list  # a private copy: the survivors also live in the ring
    return compile.scan(predicate, project, schema)


def _term_count(predicate) -> int:
    if predicate is None:
        return 0
    if isinstance(predicate, Or):
        return len(predicate.terms)
    return 1


class FoldGroup:
    """One wide filter over one circular scan, shared by similar queries."""

    def __init__(self, coordinator: "FoldCoordinator", scan, predicate):
        self.coordinator = coordinator
        self.engine = coordinator.engine
        self.sim = self.engine.sim
        self.scan = scan
        self.table = scan.table
        self.num_pages = scan.num_pages
        #: The host the members' attach events name: the scanner thread.
        self.packet_id = f"scanner-{scan.table}"
        #: Union of every member's scan predicate (None matches all).
        self.wide = predicate
        self._wide_filter = None
        self._wide_dirty = True
        #: Member packets (aggregate roots and scan leaves) riding the
        #: scanner as satellites.
        self.satellites: List[Packet] = []
        #: Accumulator banks keyed by member scan signature.
        self.banks: Dict[str, FoldBank] = {}
        #: Aggregate members: (root packet, its bank, its signatures).
        self.aggs: List[Tuple[Packet, FoldBank, List[str]]] = []
        #: Survivor ring: ``(page, wide survivors)`` for every page the
        #: group filtered, in scan order, kept (bounded by
        #: ``replay_tuples``) so joiners catch up without re-reading.
        self.ring: List[Tuple[int, List[tuple]]] = []
        self.ring_rows = 0
        self.dropped = False
        self.pages_done = 0
        self.raw_rows = 0
        #: ``visit_seq`` of the last page taken, and that page's rows and
        #: survivors (what the scan members' residuals read).
        self.visit = -1
        self.rows = self.survivors = None
        scan.fold = self
        coordinator.stats.groups += 1
        self.sim.tracer.fold(
            "group_start", table=self.table, host=self.packet_id
        )

    # ------------------------------------------------------------------
    # Admission (called synchronously from the dispatcher)
    # ------------------------------------------------------------------
    def try_join(self, kind: str, packet: Packet, scan: Packet) -> bool:
        """Admit *packet* as a fold member if the window allows it."""
        stats = self.coordinator.stats
        pred = scan.plan.predicate

        def reject(reason: str) -> bool:
            stats.rejected[reason] += 1
            self.sim.tracer.fold(
                "reject", table=self.table,
                query=packet.query.query_id, reason=reason,
            )
            return False

        if self.dropped:
            return reject("ring-dropped")
        subsumed = predicate_implies(pred, self.wide)
        wide = self.wide
        if not subsumed:
            # Widening is only sound while no page has been filtered yet.
            if self.pages_done > 0:
                return reject("window-closed")
            wide = fold_union(self.wide, pred)

        # Window-of-opportunity cost rule: fold only when the residual
        # filtering the member adds is cheaper than the I/O it saves.
        cfg = self.engine.host.config
        remaining = self.num_pages - self.pages_done
        saved_io = remaining * cfg.disk_transfer_time
        if self.pages_done:
            rows_per_page = self.raw_rows / self.pages_done
        else:
            rows_per_page = (
                self.engine.sm.num_rows(self.table) / max(1, self.num_pages)
            )
        residual_cost = (
            remaining * rows_per_page
            * predicate_selectivity(wide)
            * cfg.cpu_per_tuple
        )
        if residual_cost >= saved_io:
            return reject("cost")

        replay: List[Tuple[int, List[tuple]]] = []
        if kind == "scan":
            # Pre-check that the catch-up fits the member's (fresh,
            # empty) buffer, so its non-blocking puts cannot fail.
            residual = self._residual(scan)
            replay = [(block, residual(rows)) for block, rows in self.ring]
            total = sum(len(rows) for _, rows in replay)
            if total > packet.primary_output.capacity:
                return reject("buffer-full")

        if wide is not self.wide:
            self.wide = wide
            self._wide_dirty = True
            self.sim.tracer.fold(
                "widen", table=self.table, host=self.packet_id,
                terms=_term_count(wide),
            )
        stats.members[kind] += 1
        stats.pages_saved += self.num_pages
        self.enroll(kind, packet, scan, subsumed, replay)
        return True

    def enroll(self, kind, packet, scan, subsumed=True, replay=()) -> None:
        """Attach *packet* to the scanner and catch it up from the ring."""
        # Attaching cancels an aggregate member's own scan child.
        packet.attach_to(
            self, f"fold-{kind}",
            host_pages=self.pages_done,
            subsumed=subsumed,
            ring_ok=not self.dropped,
        )
        if kind == "agg":
            self._enroll_agg(packet, scan)
            return
        lineage = packet.query.lineage
        for block, rows in replay:
            if lineage is not None:
                lineage.scan_page(
                    packet.stream, self.table, block, len(rows),
                    self.num_pages,
                )
            if rows:
                # Pre-checked; replay rides free of charge, mirroring the
                # fan-out ring replay.
                assert packet.primary_output.try_put(rows)
        # The ring covered every page up to ``visit``: the member skips
        # that visit and leaves one pass after the group's first page.
        self.scan.consumers.append(ScanConsumer(
            packet=packet,
            post=self._post(self._residual(scan)),
            pages_remaining=self.num_pages - self.pages_done,
            done=Event(self.sim),
            last_visit=self.visit,
        ))

    def _residual(self, scan: Packet):
        base = self.engine.sm.catalog.table_schema(self.table)
        return _compile_residual(scan.plan.predicate, scan.plan.project, base)

    def _post(self, residual):
        """A scan member's ``post``: its residual over this page's
        survivors.  A member cut loose onto a private catch-up scan
        reads its own pages, which the wide filter never saw."""
        stats = self.coordinator.stats

        def post(rows):
            if rows is not self.rows:
                return residual(rows)
            stats.residual_rows += len(self.survivors)
            return residual(self.survivors)

        return post

    def _enroll_agg(self, packet: Packet, scan: Packet) -> None:
        """Fold the member's aggregation into the group's shared bank."""
        bank = self.banks.get(scan.signature)
        if bank is None:
            bank = FoldBank(
                self._residual(scan),
                scan.plan.output_schema(self.engine.sm.catalog),
            )
            self.banks[scan.signature] = bank
            self.coordinator.stats.banks += 1
        sigs, replay = bank.enroll(packet.plan.aggs)
        if replay is not None:
            # Catch fresh accumulators up from the ring; the bank's other
            # states took every ring page live and must not see it twice.
            for _block, rows in self.ring:
                replay(bank.residual(rows))
        self.aggs.append((packet, bank, sigs))

    # ------------------------------------------------------------------
    # The scanner's per-page step
    # ------------------------------------------------------------------
    def take(self, scan, rows) -> Generator:
        """Filter one page for the group, before its consumers see it.

        Everything but the CPU charge happens at once, so a member
        joining while the scanner is charged or delivering finds the
        ring, the banks and ``visit`` in step.
        """
        if self.visit != scan.visit_seq:
            # Not a page a restarted scanner re-read after taking it.
            if not any(
                p.state is PacketState.SATELLITE for p in self.satellites
            ):
                self._close()  # every member left
                return
            self.visit = scan.visit_seq
            if self._wide_dirty:
                self._wide_dirty = False
                base = self.engine.sm.catalog.table_schema(self.table)
                self._wide_filter = (
                    None if self.wide is None
                    else compile.filter(self.wide, base)
                )
            wide = self._wide_filter
            survivors = wide(rows) if wide is not None else list(rows)
            self.rows, self.survivors = rows, survivors
            self.raw_rows += len(rows)
            self.pages_done += 1
            if not self.dropped:
                self.ring.append((scan.current_page, survivors))
                self.ring_rows += len(survivors)
                if self.ring_rows > self.engine.config.replay_tuples:
                    # The window closes for new members; existing ones
                    # already took every page so far.
                    self.dropped = True
                    self.ring = []
                    self.sim.tracer.fold(
                        "seal", table=self.table, host=self.packet_id,
                        reason="ring-overflow",
                    )
            work = len(rows)
            for bank in self.banks.values():
                bank_rows = bank.residual(survivors)
                self.coordinator.stats.residual_rows += len(survivors)
                bank.add_batch(bank_rows)
                work += len(bank_rows) * len(bank)
            charged = self.satellites[0]
            if self.pages_done == self.num_pages:
                self._complete()
            yield from self.engine.engines["fscan"].charge(charged, work)

    def _complete(self) -> None:
        """One full pass: each aggregate member gets its row and
        completes; the scan members take this last page as consumers."""
        members = sum(
            p.state is PacketState.SATELLITE for p in self.satellites
        )
        for packet, bank, sigs in self.aggs:
            if packet.state is not PacketState.SATELLITE:
                continue
            assert packet.primary_output.try_put([bank.result_for(sigs)])
            packet.complete()
            packet.output.close()
        self.sim.tracer.fold(
            "complete", table=self.table, host=self.packet_id,
            members=members, pages=self.num_pages,
        )
        self._close()

    def fail(self, exc: BaseException) -> None:
        """The scanner failed for good: the members' queries fail with it."""
        self._close()
        for packet in list(self.satellites):
            query = packet.query
            if query.engine is not None and not query.aborted:
                query.engine.abort_query(query, str(exc), exc)

    def _close(self) -> None:
        self.ring = []  # nobody joins a closed group
        if self.scan.fold is self:
            self.scan.fold = None


class FoldCoordinator:
    """Per-engine fold admission: at most one open group per table, on
    that table's circular scan."""

    def __init__(self, engine):
        self.engine = engine
        self.stats = FoldStats()

    # ------------------------------------------------------------------
    def try_fold(self, query, root: Packet) -> bool:
        """Fold *query* into the table's open group, or open one.

        Returns True when the **whole** packet tree was absorbed (an
        ``Aggregate(TableScan)`` member) and nothing must be enqueued.
        Scan-leaf members return False: the leaf is now a satellite and
        ``enqueue_tree`` (which only enqueues CREATED packets) dispatches
        the rest of the tree normally.
        """
        candidate = self._candidate(root)
        if candidate is None:
            return False
        kind, packet, scan = candidate
        table = scan.plan.table
        circular = self.engine.engines["fscan"].circular
        running = circular.scans.get(table)
        if running is None or running.fold is None:
            # First similar query: it opens a group on the scanner (which
            # it starts when none runs) as the group's first member.
            group = FoldGroup(
                self, running or circular.start(table, packet),
                scan.plan.predicate,
            )
            group.enroll(kind, packet, scan)
        elif not running.fold.try_join(kind, packet, scan):
            return False
        return kind == "agg"

    # ------------------------------------------------------------------
    def _candidate(self, root: Packet):
        """Classify the packet tree: how could this query fold?

        * ``Aggregate(TableScan)`` roots fold whole (merged aggregation).
        * Otherwise a tree with exactly one foldable unordered scan leaf
          under an order-insensitive parent folds that leaf (it receives
          the pages in scan order from the group's first page, which
          such parents accept).
        """
        plan = root.plan
        if (
            isinstance(plan, Aggregate)
            and isinstance(plan.child, TableScan)
            and root.children
            and self._scan_foldable(root.children[0])
        ):
            return "agg", root, root.children[0]
        leaves = [
            p for p in root.descendants()
            if isinstance(p.plan, TableScan)
            and p.order_insensitive_parent
            and self._scan_foldable(p)
        ]
        if len(leaves) == 1:
            return "scan", leaves[0], leaves[0]
        return None

    @staticmethod
    def _scan_foldable(packet: Packet) -> bool:
        plan = packet.plan
        return (
            isinstance(plan, TableScan)
            and plan.resume is None
            and not plan.ordered
            and not packet.no_share
        )
