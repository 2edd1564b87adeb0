"""Generalized sharing: fold similar concurrent queries into one scan.

OSP (section 4.3) shares *identical* in-progress work.  This layer folds
queries that are merely *similar*: when a new query's scan predicate is
subsumed by -- or unions cheaply with -- a scan another query already has
in flight or queued over the same table, the dispatcher attaches the new
query as a *fold member* instead of dispatching its own scan.  One wide
scan runs (the union of the members' predicates); each member receives
exactly the rows its own predicate + projection would have produced, via
a per-member residual filter from the shared expression compiler
(:mod:`repro.relational.compile`).  Whole ``Aggregate(TableScan)``
queries additionally fold their aggregation into a shared accumulator
bank (one accumulator per distinct aggregate over the same folded scan),
so N similar aggregate queries cost one scan and one aggregation pass.

Correctness model:

* The group's scan always runs **standalone in canonical page order**
  (0..N-1, never a mid-file circular attach).  That makes the generic
  skip-by-count redispatch sound if the host dies mid-fold: a member's
  private re-execution replays the same canonical order and skips the
  tuples already delivered.
* Widening the predicate is only allowed while **no page has been
  filtered yet** (``blocks_done == 0``); after that, joiners must be
  subsumed by the wide predicate and are caught up from the survivor
  ring -- the window-of-opportunity analogue of OSP's WoP.
* A member's rows are byte-identical to its unfolded run because the
  residual filter is the member's own full predicate + projection applied
  to the wide-scan survivors (wide ⊇ member), in canonical page order.
* Fold members are satellites of the host scan packet, answering its
  end through the one satellite lifecycle (``Packet.end_satellites``):
  completed by the group at end of file; unfolded and redispatched when
  the host ends early; cancelled on their own query's abort.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.engine.engines.aggregates import FoldBank
from repro.engine.packets import Packet, PacketState
from repro.folding.stats import FoldStats
from repro.relational import compile
from repro.relational.expressions import Or
from repro.relational.plans import Aggregate, TableScan
from repro.sql.planner import (
    fold_union,
    predicate_implies,
    predicate_selectivity,
)
from repro.storage.locks import LockMode


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


class _Member:
    """One query folded into a group."""

    __slots__ = ("kind", "packet", "residual", "delivered_upto", "bank",
                 "sigs")

    def __init__(self, kind: str, packet: Packet):
        self.kind = kind          # "scan" or "agg"
        self.packet = packet
        self.residual = None      # scan members: survivors -> member rows
        self.delivered_upto = 0   # scan members: next canonical block
        self.bank = None          # agg members: shared accumulator bank
        self.sigs = None          # agg members: its own AggSpec signatures


class FoldGroup:
    """One wide scan over one table, shared by similar queries."""

    def __init__(self, coordinator: "FoldCoordinator", host: Packet):
        self.coordinator = coordinator
        self.engine = coordinator.engine
        self.sim = self.engine.sim
        self.table = host.plan.table
        self.host = host
        self.host_query = host.query
        #: Union of every member's scan predicate (None matches all).
        self.wide = host.plan.predicate
        self._wide_dirty = True
        self._wide_filter = None
        self.members: List[_Member] = []
        #: Accumulator banks keyed by member scan signature.
        self.banks: Dict[str, FoldBank] = {}
        #: Survivor ring: ``ring[i]`` is block i's wide-scan survivors,
        #: kept (bounded by ``replay_tuples``) so late joiners inside the
        #: window can be caught up without re-reading pages.
        self.ring: List[Tuple[int, List[tuple]]] = []
        self.ring_rows = 0
        self.dropped = False
        self.blocks_done = 0
        self.raw_rows = 0
        self.num_pages = self.engine.sm.num_pages(self.table)
        self.started = False
        self.closed = False
        host.artifacts["fold_group"] = self
        coordinator.stats.groups += 1
        self.sim.tracer.fold(
            "group_start", table=self.table, host=host.packet_id
        )

    # ------------------------------------------------------------------
    # Admission (called synchronously from the dispatcher)
    # ------------------------------------------------------------------
    def dead(self) -> bool:
        return (
            self.closed
            or self.host_query.aborted
            or self.host.state in (PacketState.DONE, PacketState.CANCELLED)
        )

    def try_join(self, kind: str, packet: Packet, scan: Packet) -> bool:
        """Admit *packet* as a fold member if the window allows it."""
        stats = self.coordinator.stats
        tracer = self.sim.tracer
        pred = scan.plan.predicate

        def reject(reason: str) -> bool:
            stats.rejected[reason] += 1
            tracer.fold(
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
            if self.blocks_done > 0:
                return reject("window-closed")
            wide = fold_union(self.wide, pred)

        # Window-of-opportunity cost rule: fold only when the residual
        # filtering the member adds is cheaper than the I/O it saves.
        cfg = self.engine.host.config
        remaining = self.num_pages - self.blocks_done
        saved_io = remaining * cfg.disk_transfer_time
        if self.blocks_done:
            rows_per_page = self.raw_rows / self.blocks_done
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

        catalog = self.engine.sm.catalog
        base = catalog.table_schema(self.table)
        member = _Member(kind, packet)
        replay: Optional[List[Tuple[int, List[tuple]]]] = None
        if kind == "scan":
            member.residual = _compile_residual(
                pred, scan.plan.project, base
            )
            if self.blocks_done:
                # Synchronous catch-up from the survivor ring: pre-check
                # that everything fits the member's (fresh, empty) buffer
                # so the non-blocking puts below cannot partially fail.
                replay = [
                    (block, member.residual(rows))
                    for block, rows in self.ring
                ]
                total = sum(len(rows) for _, rows in replay)
                if total > packet.primary_output.capacity:
                    return reject("buffer-full")

        # -- admitted: widen, attach as a satellite, catch up ------------
        if wide is not self.wide:
            self.wide = wide
            self._wide_dirty = True
            tracer.fold(
                "widen", table=self.table, host=self.host.packet_id,
                terms=_term_count(wide),
            )
        # Attaching cancels an aggregate member's own scan child.
        packet.attach_to(
            self.host, f"fold-{kind}",
            host_pages=self.blocks_done,
            subsumed=subsumed,
            ring_ok=not self.dropped,
        )
        self.members.append(member)
        stats.members[kind] += 1
        stats.pages_saved += self.num_pages

        if kind == "scan":
            if replay:
                lineage = packet.query.lineage
                for block, rows in replay:
                    if lineage is not None:
                        lineage.scan_page(
                            packet.stream, self.table, block, len(rows),
                            self.num_pages,
                        )
                    if rows:
                        # Pre-checked above; replay rides free of charge,
                        # mirroring the fan-out ring replay.
                        assert packet.primary_output.try_put(rows)
            member.delivered_upto = self.blocks_done
        else:
            self._enroll_agg(member, scan, base, catalog)
        return True

    def _enroll_agg(self, member: _Member, scan: Packet, base, catalog):
        """Fold the member's aggregation into the group's shared bank."""
        stats = self.coordinator.stats
        bank = self.banks.get(scan.signature)
        if bank is None:
            bank = FoldBank(
                _compile_residual(scan.plan.predicate, scan.plan.project,
                                  base),
                scan.plan.output_schema(catalog),
                frontier=self.blocks_done,
            )
            self.banks[scan.signature] = bank
            stats.banks += 1
        member.bank = bank
        member.sigs, replay = bank.enroll(member.packet.plan.aggs)
        if replay is not None and bank.upto:
            # Catch fresh accumulators up from the survivor ring; states
            # already in the bank cover this prefix and must not see it
            # twice.  ``bank.upto`` (not ``blocks_done``) bounds the
            # replay so a join landing mid-page stays exactly-once.
            for block, rows in self.ring[:bank.upto]:
                replay(bank.residual(rows))

    # ------------------------------------------------------------------
    # The wide scan (runs as the host packet's serve coroutine)
    # ------------------------------------------------------------------
    def serve(self, packet: Packet) -> Generator:
        try:
            yield from self._scan()
        finally:
            self._close()

    def _wide_fn(self, base):
        if self._wide_dirty:
            self._wide_dirty = False
            self._wide_filter = (
                None if self.wide is None
                else compile.filter(self.wide, base)
            )
        return self._wide_filter

    def _scan(self) -> Generator:
        sm = self.engine.sm
        host = self.host
        plan = host.plan
        base = sm.catalog.table_schema(self.table)
        host_residual = _compile_residual(plan.predicate, plan.project, base)
        mengine = self.engine.engines[host.engine_name]
        lineage = host.query.lineage
        # Section 4.3.4 as in the standalone scan: one table lock for the
        # whole pass; members do not lock individually (like satellites).
        owner = ("scan", host.query.query_id, host.packet_id)
        self.started = True
        yield sm.locks.acquire(owner, self.table, LockMode.SHARED)
        try:
            for block in range(self.num_pages):
                # Recompiled lazily: the predicate may have widened during
                # the previous page's I/O (only while blocks_done == 0).
                wide = self._wide_fn(base)
                page = yield from sm.read_table_page(
                    self.table, block, scan=True, stream=host.stream
                )
                rows = page.rows()
                self.raw_rows += len(rows)
                yield from mengine.charge(host, len(rows))
                survivors = wide(rows) if wide is not None else list(rows)
                self._remember(block, survivors)
                host_rows = host_residual(survivors)
                if lineage is not None:
                    lineage.scan_page(
                        host.stream, self.table, block, len(host_rows),
                        self.num_pages,
                    )
                if host_rows:
                    # Same intentional blocking-while-holding as the
                    # standalone scan: backpressure is the pacing.
                    yield from host.output.put(host_rows)
                yield from self._deliver(block, survivors, mengine)
            yield from self._finish()
        finally:
            sm.locks.release_if_held(owner, self.table)

    def _remember(self, block: int, survivors: List[tuple]) -> None:
        self.blocks_done = block + 1
        if self.dropped:
            return
        self.ring.append((block, survivors))
        self.ring_rows += len(survivors)
        if self.ring_rows > self.engine.config.replay_tuples:
            # The window closes for new members; existing ones already
            # hold every block up to their own frontier.
            self.dropped = True
            self.ring = []
            self.ring_rows = 0
            self.sim.tracer.fold(
                "seal", table=self.table, host=self.host.packet_id,
                reason="ring-overflow",
            )

    def _deliver(self, block: int, survivors, mengine) -> Generator:
        stats = self.coordinator.stats
        for member in list(self.members):
            if member.kind != "scan":
                continue
            packet = member.packet
            if packet.state is not PacketState.SATELLITE:
                continue  # cancelled or redispatched; not ours any more
            if member.delivered_upto != block:
                continue  # ring replay already covered this block
            member.delivered_upto = block + 1
            rows = member.residual(survivors)
            stats.residual_rows += len(survivors)
            yield from mengine.charge(packet, len(survivors))
            lineage = packet.query.lineage
            if lineage is not None:
                lineage.scan_page(
                    packet.stream, self.table, block, len(rows),
                    self.num_pages,
                )
            if rows:
                yield from packet.output.put(rows)
        for bank in list(self.banks.values()):
            if bank.upto != block:
                continue  # fresh bank; the ring replay covered this block
            bank.upto = block + 1
            live = [
                m for m in self.members
                if m.kind == "agg" and m.bank is bank
                and m.packet.state is PacketState.SATELLITE
            ]
            if not live:
                continue
            rows = bank.residual(survivors)
            stats.residual_rows += len(survivors)
            yield from mengine.charge(live[0].packet, len(rows) * len(bank))
            bank.add_batch(rows)

    def _finish(self) -> Generator:
        """Group EOF: emit merged-aggregate results, close member outputs.

        Members are completed *here*, not by the host's end-of-file
        sweep (``Packet.end_satellites``): closing a scan member's buffer
        can finish its consumer (and the whole member query) before the
        host packet itself completes, and the parent's early-finish
        cleanup would then silently cancel a satellite that delivered
        everything.  Completing each member the moment its EOF goes out
        closes the lifecycle race; the host sweep skips them (no longer
        SATELLITE).
        """
        delivered = 0
        for member in list(self.members):
            packet = member.packet
            if packet.state is not PacketState.SATELLITE:
                continue
            delivered += 1
            if member.kind == "agg":
                row = member.bank.result_for(member.sigs)
                yield from packet.output.put([row])
            packet.complete()
            if packet.output is not None and not packet.output.closed:
                packet.output.close()
        self.sim.tracer.fold(
            "complete", table=self.table, host=self.host.packet_id,
            members=delivered, pages=self.num_pages,
        )

    # ------------------------------------------------------------------
    # Failure paths
    # ------------------------------------------------------------------
    def unfold(self) -> None:
        """The host scan ended early mid-fold (early stop, cancel, abort,
        crash or deadline).

        Emits the unfold evidence and closes the group; the host-end
        sweep that calls this (``Packet.end_satellites``) then
        redispatches every member through the skip-by-count path (sound
        here because delivery was in canonical page order).
        """
        stats = self.coordinator.stats
        tracer = self.sim.tracer
        for member in list(self.members):
            if member.packet.state is PacketState.SATELLITE:
                stats.unfolds += 1
                tracer.fold(
                    "unfold", packet=member.packet.packet_id,
                    host=self.host.packet_id, reason="host failed mid-fold",
                )
        self._close()

    def _close(self) -> None:
        if self.closed:
            return
        self.closed = True
        registry = self.coordinator._groups
        if registry.get(self.table) is self:
            del registry[self.table]


class FoldCoordinator:
    """Per-engine registry of fold groups (one open group per table)."""

    def __init__(self, engine):
        self.engine = engine
        self.stats = FoldStats()
        self._groups: Dict[str, FoldGroup] = {}

    # ------------------------------------------------------------------
    def try_fold(self, query, root: Packet) -> bool:
        """Fold *query* into an open group, or open one around its scan.

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
        group = self._groups.get(table)
        if group is not None and group.dead():
            del self._groups[table]
            group = None
        if group is None:
            # First similar query: its scan becomes the group host and
            # dispatches normally (FScanEngine routes it back to the
            # group's wide-scan loop via the fold_group artifact).
            self._groups[table] = FoldGroup(self, scan)
            return False
        if group.host_query is query:
            return False
        if not group.try_join(kind, packet, scan):
            return False
        return kind == "agg"

    # ------------------------------------------------------------------
    def _candidate(self, root: Packet):
        """Classify the packet tree: how could this query fold?

        * ``Aggregate(TableScan)`` roots fold whole (merged aggregation).
        * Otherwise a tree with exactly one foldable unordered scan leaf
          under an order-insensitive parent folds that leaf (residual
          delivery order is canonical, which such parents accept).
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
