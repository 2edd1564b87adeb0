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

from collections import deque
from typing import Dict, Generator, List

from repro.engine.buffers import SEGMENT_BOUNDARY, TupleBuffer
from repro.engine.micro_engine import MicroEngine
from repro.engine.packets import Packet
from repro.relational import compile

OUT_BATCH = 256


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
        lrows = [row for rows in table.values() for row in rows]
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


class _Cursor:
    """Batch-buffered reader over one merge-join input stream."""

    def __init__(self, buffer: TupleBuffer):
        self.buffer = buffer
        self.rows: deque = deque()
        self.eos = False
        self.segment_ended = False

    def begin_next_segment(self) -> None:
        self.segment_ended = False

    def refill(self) -> Generator:
        """Coroutine: ensure a row is available or a segment/stream end
        is flagged."""
        while not self.rows and not self.eos and not self.segment_ended:
            batch = yield from self.buffer.get()
            if batch is None:
                self.eos = True
            elif batch is SEGMENT_BOUNDARY:
                self.segment_ended = True
            else:
                self.rows.extend(batch)

    @property
    def exhausted(self) -> bool:
        return not self.rows and (self.eos or self.segment_ended)


class MergeJoinEngine(MicroEngine):
    overlap_class = "step"

    def serve(self, packet: Packet) -> Generator:
        plan = packet.plan
        catalog = self.engine.sm.catalog
        lkey = plan.left.output_schema(catalog).key_of([plan.left_key])
        rkey = plan.right.output_schema(catalog).key_of([plan.right_key])
        left = _Cursor(packet.inputs[0])
        right = _Cursor(packet.inputs[1])

        packet.phase = "merge"
        while True:
            yield from self._merge_pass(packet, left, right, lkey, rkey)
            if left.segment_ended and not left.eos:
                # Section 4.3.2: the left input delivered an out-of-order
                # segment pair; restart the right subtree and join again.
                self._abandon(right)
                right = yield from self._restart(packet, plan.right)
                left.begin_next_segment()
            elif right.segment_ended and not right.eos:
                self._abandon(left)
                left = yield from self._restart(packet, plan.left)
                right.begin_next_segment()
            else:
                break

    @staticmethod
    def _abandon(cursor: _Cursor) -> None:
        """Stop reading a pass's leftover input; closing the buffer lets
        its producer detach and finish without blocking."""
        cursor.rows.clear()
        cursor.buffer.close()

    def _restart(self, packet: Packet, child_plan) -> Generator:
        buffer = self.engine.dispatcher.dispatch_subtree(
            packet.query, child_plan
        )
        packet.query.bump("mj_restarts")
        return _Cursor(buffer)
        yield  # pragma: no cover - coroutine signature consistency

    def _merge_pass(self, packet, left, right, lkey, rkey) -> Generator:
        query = packet.query
        pending: List[tuple] = []
        while True:
            yield from left.refill()
            yield from right.refill()
            if left.exhausted or right.exhausted:
                break
            lk, rk = lkey(left.rows[0]), rkey(right.rows[0])
            if lk < rk:
                left.rows.popleft()
            elif rk < lk:
                right.rows.popleft()
            else:
                lgroup = yield from self._take_group(left, lkey, lk)
                rgroup = yield from self._take_group(right, rkey, rk)
                yield from self.charge(packet, len(lgroup) * len(rgroup))
                for lrow in lgroup:
                    for rrow in rgroup:
                        pending.append(lrow + rrow)
                # Pipelined: each matched group ships immediately.
                if pending:
                    yield from packet.output.put(pending)
                    pending = []

    def _take_group(self, cursor: _Cursor, key, value) -> Generator:
        group: List[tuple] = []
        while True:
            while cursor.rows and key(cursor.rows[0]) == value:
                group.append(cursor.rows.popleft())
            if cursor.rows:
                return group
            yield from cursor.refill()
            if not cursor.rows:
                return group


class SemiJoinEngine(MicroEngine):
    """EXISTS / NOT EXISTS: *full* overlap while the right key set builds,
    *step* once left rows start flowing out."""

    overlap_class = "full"

    def serve(self, packet: Packet) -> Generator:
        from repro.relational.plans import AntiJoin

        plan = packet.plan
        catalog = self.engine.sm.catalog
        insert = compile.key_set(
            plan.right_key, plan.right.output_schema(catalog)
        )
        probe = compile.hash_probe(
            plan.left_key,
            plan.left.output_schema(catalog),
            "anti" if isinstance(plan, AntiJoin) else "semi",
        )
        left_in, right_in = packet.inputs

        packet.phase = "build"
        keys = set()
        while True:
            batch = yield from right_in.get()
            if batch is None:
                break
            if batch is SEGMENT_BOUNDARY:
                continue
            yield from self.charge(packet, len(batch))
            insert(keys, batch)

        packet.phase = "probe"
        while True:
            batch = yield from left_in.get()
            if batch is None:
                break
            if batch is SEGMENT_BOUNDARY:
                continue
            yield from self.charge(packet, len(batch))
            kept = probe(keys, batch)
            if kept:
                yield from packet.output.put(kept)


class OuterJoinEngine(MicroEngine):
    """Hash left-outer join: build right (*full*), probe left (*step*),
    padding unmatched left rows with NULLs."""

    overlap_class = "full"

    def serve(self, packet: Packet) -> Generator:
        plan = packet.plan
        catalog = self.engine.sm.catalog
        rschema = plan.right.output_schema(catalog)
        insert = compile.hash_build(plan.right_key, rschema)
        probe = compile.hash_probe(
            plan.left_key,
            plan.left.output_schema(catalog),
            "outer",
            pad=len(rschema),
        )
        left_in, right_in = packet.inputs

        packet.phase = "build"
        table: Dict = {}
        while True:
            batch = yield from right_in.get()
            if batch is None:
                break
            if batch is SEGMENT_BOUNDARY:
                continue
            yield from self.charge(packet, len(batch))
            insert(table, batch)

        packet.phase = "probe"
        while True:
            batch = yield from left_in.get()
            if batch is None:
                break
            if batch is SEGMENT_BOUNDARY:
                continue
            yield from self.charge(packet, len(batch))
            pending = probe(table, batch)
            if pending:
                yield from packet.output.put(pending)


class NLJoinEngine(MicroEngine):
    overlap_class = "step"

    def serve(self, packet: Packet) -> Generator:
        plan = packet.plan
        query = packet.query
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
                    pending += matching(
                        [lrow + rrow for lrow in batch for rrow in rows]
                    )
                if pending:
                    yield from packet.output.put(pending)
        finally:
            sm.drop_temp_file(mat)
