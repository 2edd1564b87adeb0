"""The index-scan micro-engine, including the section 4.3.2 strategies.

Two access paths:

* **Clustered** -- the heap file is stored in key order, so the scan
  descends the B+tree once to find the starting page and then reads the
  heap sequentially, emitting rows in key order ("clustered index scans
  are similar to file scans", section 3.2).
* **Unclustered** -- the paper's two phases: probe the index and build
  the full matching RID list (*full* overlap), sort it by page number
  (unless key order is required), then fetch the data pages.

When an *ordered* index scan arrives too late to attach generically (the
host has shipped output beyond its replay window) but its merge-join's
parent is order-insensitive, the OSP coordinator applies the two-pass
strategy of section 4.3.2: the newcomer piggybacks on the in-progress
fetch from its current position to the end (segment A), then fetches the
pages it missed (segment B), separated by a SEGMENT_BOUNDARY marker that
tells the merge-join to restart its other input.  A worst-case cost
check -- the non-shared relation is read twice -- gates the manoeuvre.
"""

from __future__ import annotations

from typing import Generator, List

from repro.engine.buffers import TupleBuffer
from repro.engine.micro_engine import MicroEngine
from repro.engine.packets import Packet
from repro.faults.errors import FaultError
from repro.relational import compile
from repro.sim import ChannelClosed
from repro.storage.page import RID, rid_runs


class IScanEngine(MicroEngine):
    overlap_class = "full"  # phase 1; phase 2 is linear/spike

    # ------------------------------------------------------------------
    def serve(self, packet: Packet) -> Generator:
        info = self.engine.sm.catalog.index(packet.plan.table,
                                            packet.plan.index)
        if info.clustered:
            yield from self._serve_clustered(packet)
        else:
            yield from self._serve_unclustered(packet)

    # -- helpers ----------------------------------------------------------
    def _post(self, packet: Packet):
        """``rows -> rows``: the plan's predicate + projection."""
        plan = packet.plan
        base = self.engine.sm.catalog.table_schema(plan.table)
        return compile.scan(plan.predicate, plan.project, base)

    # ------------------------------------------------------------------
    # Clustered path
    # ------------------------------------------------------------------
    def _serve_clustered(self, packet: Packet) -> Generator:
        plan = packet.plan
        post = self._post(packet)
        packet.phase = "rid_list"
        # One tree descent for ``lo``: the heap page where the range
        # begins (0 for an unbounded scan).
        start_page = yield from self.engine.sm.clustered_start_page(
            plan.table, plan.index, plan.lo
        )
        packet.artifacts["kind"] = "clustered"
        packet.artifacts["start_page"] = start_page
        packet.artifacts["cursor"] = start_page
        packet.phase = "fetch"
        yield from self._fetch_clustered(
            packet, start_page, None, post,
            output=packet.output, track_cursor=True,
        )

    def _fetch_clustered(
        self,
        packet: Packet,
        start_page: int,
        stop_page,
        post,
        output,
        track_cursor: bool,
    ) -> Generator:
        """Coroutine: sequential key-ordered heap read of
        ``[start_page, stop_page)`` honouring the plan's key range."""
        sm = self.engine.sm
        plan = packet.plan
        num_pages = sm.num_pages(plan.table)
        end = num_pages if stop_page is None else stop_page
        info = sm.catalog.index(plan.table, plan.index)
        page_no = start_page
        while page_no < end:
            page = yield from sm.read_table_page(
                plan.table, page_no, scan=True, stream=packet.stream
            )
            rows = page.rows()
            yield from self.charge(packet, len(rows))
            rows = info.clip(rows, plan.lo, plan.hi)
            if rows is None:
                break
            rows = post(rows)
            if rows:
                yield from output.put(rows)
            page_no += 1
            if track_cursor:
                packet.artifacts["cursor"] = page_no

    # ------------------------------------------------------------------
    # Unclustered path (the paper's two-phase scan)
    # ------------------------------------------------------------------
    def _serve_unclustered(self, packet: Packet) -> Generator:
        sm = self.engine.sm
        plan = packet.plan
        post = self._post(packet)
        packet.phase = "rid_list"
        pairs = yield from sm.index_range(
            plan.table, plan.index, plan.lo, plan.hi
        )
        rids = [rid for _key, rid in pairs]
        if not plan.ordered:
            rids.sort()  # ascending page number: one visit per page
        packet.artifacts["kind"] = "rids"
        packet.artifacts["rids"] = rids
        packet.artifacts["cursor"] = 0
        packet.phase = "fetch"
        yield from self._fetch_rids(
            packet, rids, 0, len(rids), post,
            output=packet.output, track_cursor=True,
        )

    def _fetch_rids(
        self,
        packet: Packet,
        rids: List[RID],
        start: int,
        stop: int,
        post,
        output,
        track_cursor: bool = False,
    ) -> Generator:
        """Coroutine: fetch rows for ``rids[start:stop]``, one page
        visit per run of consecutive same-page RIDs.

        With ``track_cursor`` the cursor advances *after* each delivered
        group -- the invariant the 4.3.2 attach relies on to bound its
        prefix pass exactly.
        """
        sm = self.engine.sm
        table = packet.plan.table
        for block, slots, end in rid_runs(rids, start, stop):
            page = yield from sm.read_table_page(
                table, block, scan=True, stream=packet.stream
            )
            group = page.live(slots)
            yield from self.charge(packet, len(group))
            group = post(group)
            if group:
                yield from output.put(group)
            if track_cursor:
                packet.artifacts["cursor"] = end

    # ------------------------------------------------------------------
    # OSP: generic sharing plus the order-sensitive split
    # ------------------------------------------------------------------
    def try_share(self, packet: Packet) -> bool:
        if super().try_share(packet):
            return True
        return self._try_split_share(packet)

    def _remaining_pages(self, host: Packet) -> int:
        kind = host.artifacts.get("kind")
        cursor = host.artifacts.get("cursor", 0)
        if kind == "clustered":
            total = self.engine.sm.num_pages(host.plan.table)
            return max(0, total - cursor)
        if kind == "rids":
            rids = host.artifacts["rids"]
            return len({rid.block_no for rid in rids[cursor:]})
        return 0

    def _try_split_share(self, packet: Packet) -> bool:
        split = packet.artifacts.get("mj_split")
        if split is None:
            return False
        host = None
        for candidate in self.active:
            if candidate.query is packet.query or candidate.query.aborted:
                continue
            if candidate.signature != packet.signature:
                continue
            if candidate.phase != "fetch" or not candidate.active:
                continue
            host = candidate
            break
        if host is None:
            return False
        # Worst-case cost check (section 4.3.2): sharing saves the pages
        # of the not-yet-fetched suffix but forces a second read of the
        # non-shared relation.
        saved = self._remaining_pages(host)
        extra = split.get("other_pages", 0)
        if saved <= extra:
            self.engine.osp_stats.mj_splits_rejected += 1
            self.sim.tracer.osp(
                "mj_split_rejected",
                packet=packet.packet_id,
                host=host.packet_id,
                saved=saved,
                extra=extra,
            )
            return False

        split["host_ended_early"] = False
        packet.attach_to(host, "mj-split", saved=saved, extra=extra)
        # Only one input of a merge-join may be segmented: with both
        # sides split the two-pass union would no longer cover the full
        # cross product of matches.  Disable the sibling's eligibility.
        mergejoin = split["mergejoin"]
        for sibling in mergejoin.children:
            if sibling is not packet:
                sibling.artifacts.pop("mj_split", None)
        self.engine.osp_stats.mj_splits += 1
        self.engine.osp_stats.record_attach(self.name, packet)
        self.sim.spawn(
            self._split_relay(host, packet), name="iscan-split-relay"
        )
        return True

    def _split_relay(self, host: Packet, packet: Packet) -> Generator:
        """Segment A from the host, a boundary marker, then segment B.

        Segment A is the host's output from the cursor captured at
        attach to the end of file.  A host that ends early (an early
        stop, cancel, abort, crash or deadline) leaves part of it unread:
        the relay reads that suffix privately, from the captured cursor,
        skipping the tuples the host already delivered.
        """
        post = self._post(packet)
        seg_a = TupleBuffer(
            self.sim,
            capacity_tuples=self.engine.config.buffer_tuples,
            name=f"q{packet.query.query_id}:iscan-segA",
            producer=host,
            consumer=packet,
        )
        self.engine.register_buffer(seg_a)
        boundary = {}

        def capture():
            boundary["kind"] = host.artifacts.get("kind")
            boundary["cursor"] = host.artifacts.get("cursor", 0)
            boundary["rids"] = host.artifacts.get("rids")
            boundary["start_page"] = host.artifacts.get("start_page", 0)

        yield from host.output.attach(seg_a, replay=False, on_attached=capture)
        out = packet.primary_output
        split = packet.artifacts["mj_split"]
        try:
            while True:
                batch = yield from seg_a.get()
                if batch is None:
                    break
                yield from out.put(batch)
            # The rest outlives the host: hold neither it nor segment A.
            host = seg_a = None
            if split["host_ended_early"]:
                out.skip_tuples = out.tuples_in
                yield from self._fetch(packet, boundary, post, out, suffix=True)
            yield from out.put_marker()
            # Segment B: the pages the satellite missed before attaching.
            yield from self._fetch(packet, boundary, post, out, suffix=False)
        except ChannelClosed:
            pass  # the consumer closed: end quietly
        except FaultError as exc:
            if not packet.query.aborted:
                self.engine.abort_query(packet.query, str(exc), exc)
        finally:
            if seg_a is not None:
                seg_a.close()  # let the host deliver past a gone relay
            out.close()
            packet.complete()

    def _fetch(self, packet, boundary, post, out, suffix: bool) -> Generator:
        """Coroutine: the split's private read of the host's access path,
        from the captured cursor to the end (*suffix*) or from the start
        up to it (segment B)."""
        cursor = boundary["cursor"]
        if boundary["kind"] == "clustered":
            start, stop = (cursor, None) if suffix else (
                boundary["start_page"], cursor)
            yield from self._fetch_clustered(
                packet, start, stop, post, output=out, track_cursor=False,
            )
        else:
            rids = boundary["rids"]
            start, stop = (cursor, len(rids)) if suffix else (0, cursor)
            yield from self._fetch_rids(
                packet, rids, start, stop, post, output=out,
            )
