"""The join micro-engines: hash join, merge join, nested-loop join.

Overlap classes (section 3.2):

* hash join -- *full* during the build phase (no output yet, so the
  generic rule shares everything), *step* during probe (replay ring);
* merge join -- *step*, plus the section 4.3.2 segmented-input handling:
  a SEGMENT_BOUNDARY on one input makes the join restart its other input
  and merge the next segment (two joins whose union is the answer);
* nested-loop join -- *step*.
"""

from __future__ import annotations

from typing import Dict, Generator, List

from repro.engine.buffers import SEGMENT_BOUNDARY, TupleBuffer
from repro.engine.micro_engine import MicroEngine
from repro.engine.packets import Packet
from repro.relational import compile
from repro.relational.joins import MergeCursor, cross, next_match


class HashJoinEngine(MicroEngine):
    overlap_class = "full"  # build; probe is step

    def serve(self, packet: Packet) -> Generator:
        plan = packet.plan
        catalog = self.engine.sm.catalog
        lschema = plan.left.output_schema(catalog)
        rschema = plan.right.output_schema(catalog)
        insert = compile.hash_build(plan.left_key, lschema)
        probe = compile.hash_probe(plan.right_key, rschema, "inner")
        left_in, right_in = packet.inputs

        packet.phase = "build"
        table: Dict = {}
        count = 0
        while True:
            batch = yield from left_in.get()
            if batch is None:
                break
            if batch is SEGMENT_BOUNDARY:
                continue
            yield from self.charge(packet, len(batch))
            count += len(batch)
            insert(table, batch)
        if count > packet.query.work_mem_tuples:
            lsplit = compile.partition(plan.left_key, lschema)
            rsplit = compile.partition(plan.right_key, rschema)
            yield from self._grace_join(
                packet, table, insert, probe, lsplit, rsplit
            )
            return

        packet.phase = "probe"
        while True:
            batch = yield from right_in.get()
            if batch is None:
                break
            if batch is SEGMENT_BOUNDARY:
                continue
            yield from self.charge(packet, len(batch))
            pending = probe(table, batch)
            # Pipelined: matches ship as soon as they are produced, so
            # the probe phase's step window closes honestly.
            if pending:
                yield from packet.output.put(pending)

    def _grace_join(
        self, packet, table, insert, probe, lsplit, rsplit
    ) -> Generator:
        """Partitioned fallback when the build side overflows memory."""
        query = packet.query
        sm = self.engine.sm
        packet.phase = "partition"
        lrows = compile.table_rows(table)
        # The rows live on in lrows and then on temp pages: the caller's
        # reference must not keep the table through every partition.
        table.clear()
        rrows = yield from packet.inputs[1].drain()
        nparts = max(2, -(-len(lrows) // max(1, query.work_mem_tuples // 2)))

        def spill(buckets, label, parts):
            for bucket in buckets:
                part = sm.create_temp_file(64, label=label)
                # Registered before the (interruptible) write so the
                # caller's fault sweep sees a half-written partition.
                parts.append(part)
                yield from sm.write_run(part, bucket)

        yield from self.charge(packet, len(lrows) + len(rrows))
        lparts: List = []
        rparts: List = []
        try:
            yield from spill(lsplit(lrows, nparts), "hjL", lparts)
            yield from spill(rsplit(rrows, nparts), "hjR", rparts)

            packet.phase = "probe"
            for p in range(nparts):
                lpart_rows: List[tuple] = []
                for block in range(lparts[p].num_pages):
                    page = yield from sm.read_temp_page(lparts[p], block)
                    lpart_rows.extend(page.rows())
                sub: Dict = {}
                insert(sub, lpart_rows)
                pending: List[tuple] = []
                for block in range(rparts[p].num_pages):
                    page = yield from sm.read_temp_page(rparts[p], block)
                    rows = page.rows()
                    yield from self.charge(packet, len(rows))
                    pending += probe(sub, rows)
                if pending:
                    yield from packet.output.put(pending)
        finally:
            for part in lparts + rparts:
                sm.drop_temp_file(part)


class _Input:
    """One merge-join input buffer as a :class:`MergeCursor`.

    Section 4.3.2: a SEGMENT_BOUNDARY ends the cursor's *segment*
    (``cursor.ended`` with ``eos`` still False), None ends the stream.
    """

    def __init__(self, buffer: TupleBuffer, row_key):
        self.buffer = buffer
        self.eos = False
        self.boundary_seen = False
        self.cursor = MergeCursor(self._pull, row_key)

    def _pull(self) -> Generator:
        batch = yield from self.buffer.get()
        if batch is SEGMENT_BOUNDARY:
            self.boundary_seen = True
            return None
        self.eos = batch is None
        return batch

    @property
    def segment_ended(self) -> bool:
        return self.cursor.ended and not self.eos

    def finish_segment(self) -> Generator:
        """Coroutine: when this input is a split satellite still inside
        its first segment, read on to the boundary.  The other input ran
        dry first, so the rest of the segment matches nothing -- but the
        pass over the missed prefix is still owed.  An unsplit input is
        left where it is: draining it would read its table to the end."""
        if (
            self.boundary_seen
            or self.eos
            or self.buffer.producer.mechanism != "mj-split"
        ):
            return
        while (yield from self._pull()) is not None:
            pass
        self.cursor.rows.clear()
        self.cursor.ended = True

    def abandon(self) -> None:
        """Stop reading a pass's leftover input; closing the buffer lets
        its producer detach and finish without blocking."""
        self.cursor.rows.clear()
        self.buffer.close()


class MergeJoinEngine(MicroEngine):
    overlap_class = "step"

    def serve(self, packet: Packet) -> Generator:
        plan = packet.plan
        catalog = self.engine.sm.catalog
        lkey = plan.left.output_schema(catalog).key_of([plan.left_key])
        rkey = plan.right.output_schema(catalog).key_of([plan.right_key])
        left = _Input(packet.inputs[0], lkey)
        right = _Input(packet.inputs[1], rkey)

        packet.phase = "merge"
        while True:
            # One pass; pipelined: each matched group ships immediately.
            while True:
                match = yield from next_match(left.cursor, right.cursor)
                if match is None:
                    break
                lgroup, rgroup = match
                yield from self.charge(packet, len(lgroup) * len(rgroup))
                yield from packet.output.put(cross(lgroup, rgroup))
            yield from left.finish_segment()
            yield from right.finish_segment()
            if left.segment_ended:
                # Section 4.3.2: the left input delivered an out-of-order
                # segment pair; restart the right subtree and join again.
                right.abandon()
                right = _Input(self._restart(packet, plan.right), rkey)
                left.cursor.ended = False
            elif right.segment_ended:
                left.abandon()
                left = _Input(self._restart(packet, plan.left), lkey)
                right.cursor.ended = False
            else:
                break

    def _restart(self, packet: Packet, child_plan) -> TupleBuffer:
        buffer = self.engine.dispatcher.dispatch_subtree(
            packet.query, child_plan
        )
        # An input and a child like the first: when the join ends before
        # reading it out, _release_inputs closes and cancels it -- or its
        # producer would block on the full buffer for good, pinning a
        # pool worker and its query's packet tree.
        packet.inputs.append(buffer)
        packet.children.append(buffer.producer)
        packet.query.bump("mj_restarts")
        return buffer


class NLJoinEngine(MicroEngine):
    overlap_class = "step"

    def serve(self, packet: Packet) -> Generator:
        plan = packet.plan
        sm = self.engine.sm
        schema = plan.output_schema(sm.catalog)
        matching = compile.filter(plan.predicate, schema)
        left_in, right_in = packet.inputs

        packet.phase = "materialize"
        rrows = yield from right_in.drain()
        right_schema = plan.right.output_schema(sm.catalog)
        mat = sm.create_temp_file(right_schema.row_width, label="nlj")
        try:
            yield from sm.write_run(mat, rrows)

            packet.phase = "join"
            while True:
                batch = yield from left_in.get()
                if batch is None:
                    break
                if batch is SEGMENT_BOUNDARY:
                    continue
                pending: List[tuple] = []
                for block in range(mat.num_pages):
                    page = yield from sm.read_temp_page(mat, block)
                    rows = page.rows()
                    yield from self.charge(packet, len(batch) * len(rows))
                    pending += matching(cross(batch, rows))
                if pending:
                    yield from packet.output.put(pending)
        finally:
            sm.drop_temp_file(mat)
