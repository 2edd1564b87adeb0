"""Projection and update micro-engines.

Updates are the one operation that must never be shared (section 3.2:
"update statements cannot be shared since that would violate the
transactional semantics").  The update micro-engine carries no OSP
functionality at all (section 4.3.4) and routes everything through the
storage manager's table locks.
"""

from __future__ import annotations

from typing import Generator

from repro.engine.buffers import SEGMENT_BOUNDARY
from repro.engine.micro_engine import MicroEngine
from repro.engine.packets import Packet
from repro.relational import compile
from repro.relational.plans import DeleteRows, InsertRows, UpdateRows
from repro.storage.locks import LockMode
from repro.storage.page import RID


class ProjectEngine(MicroEngine):
    overlap_class = "linear"

    def serve(self, packet: Packet) -> Generator:
        plan = packet.plan
        child_schema = plan.child.output_schema(self.engine.sm.catalog)
        project = compile.project(
            plan.names if plan.exprs is None else plan.exprs, child_schema
        )
        source = packet.inputs[0]
        while True:
            batch = yield from source.get()
            if batch is None:
                break
            if batch is SEGMENT_BOUNDARY:
                # Projection preserves segment structure for its parent.
                yield from packet.primary_output.put_marker()
                continue
            yield from self.charge(packet, len(batch))
            yield from packet.output.put(project(batch))


class FilterEngine(MicroEngine):
    overlap_class = "linear"

    def serve(self, packet: Packet) -> Generator:
        plan = packet.plan
        matching = compile.filter(
            plan.predicate, plan.child.output_schema(self.engine.sm.catalog)
        )
        source = packet.inputs[0]
        while True:
            batch = yield from source.get()
            if batch is None:
                break
            if batch is SEGMENT_BOUNDARY:
                yield from packet.primary_output.put_marker()
                continue
            yield from self.charge(packet, len(batch))
            kept = matching(batch)
            if kept:
                yield from packet.output.put(kept)


class LimitEngine(MicroEngine):
    overlap_class = "linear"

    def serve(self, packet: Packet) -> Generator:
        plan = packet.plan
        source = packet.inputs[0]
        to_skip, remaining = plan.offset, plan.count
        while remaining > 0:
            batch = yield from source.get()
            if batch is None:
                return
            if batch is SEGMENT_BOUNDARY:
                continue
            if to_skip:
                drop = min(to_skip, len(batch))
                batch = batch[drop:]
                to_skip -= drop
            if not batch:
                continue
            batch = batch[:remaining]
            remaining -= len(batch)
            yield from self.charge(packet, len(batch))
            yield from packet.output.put(batch)
        # Early exit: the (closed) inputs are released by the base class.


class DistinctEngine(MicroEngine):
    overlap_class = "step"

    def serve(self, packet: Packet) -> Generator:
        source = packet.inputs[0]
        seen = set()
        while True:
            batch = yield from source.get()
            if batch is None:
                return
            if batch is SEGMENT_BOUNDARY:
                continue
            yield from self.charge(packet, len(batch))
            fresh = []
            for row in batch:
                if row not in seen:
                    seen.add(row)
                    fresh.append(row)
            if fresh:
                yield from packet.output.put(fresh)


class UpdateEngine(MicroEngine):
    """No OSP; exclusive table locks; see section 4.3.4."""

    overlap_class = "none"

    def try_share(self, packet: Packet) -> bool:
        return False  # updates are never shared

    def serve(self, packet: Packet) -> Generator:
        plan = packet.plan
        # Writes invalidate any cached results over this table.
        self.engine.result_cache.invalidate_table(plan.table)
        if isinstance(plan, InsertRows):
            yield from self._insert(packet, plan)
        elif isinstance(plan, UpdateRows):
            yield from self._update(packet, plan)
        elif isinstance(plan, DeleteRows):
            yield from self._delete(packet, plan)
        else:
            raise TypeError(f"update engine got {type(plan).__name__}")

    def _insert(self, packet: Packet, plan: InsertRows) -> Generator:
        sm = self.engine.sm
        owner = ("q", packet.query.query_id, packet.packet_id)
        packet.phase = "lock"
        yield sm.locks.acquire(owner, plan.table, LockMode.EXCLUSIVE)
        packet.phase = "write"
        try:
            for row in plan.rows:
                yield from sm.insert_row(plan.table, row)
        finally:
            # Tolerant: the abort path's lock sweep may get here first.
            sm.locks.release_if_held(owner, plan.table)
        yield from packet.output.put([(len(plan.rows),)])

    def _delete(self, packet: Packet, plan: DeleteRows) -> Generator:
        sm = self.engine.sm
        owner = ("q", packet.query.query_id, packet.packet_id)
        schema = sm.catalog.table_schema(plan.table)
        matching = compile.filter_items(plan.predicate, schema)
        packet.phase = "lock"
        yield sm.locks.acquire(owner, plan.table, LockMode.EXCLUSIVE)
        packet.phase = "write"
        removed = 0
        try:
            info = sm.catalog.table(plan.table)
            for block in range(info.num_pages):
                page = yield from sm.read_table_page(plan.table, block)
                for slot, row in matching(page.slots()):
                    yield from sm.delete_row(plan.table, RID(block, slot))
                    removed += 1
        finally:
            sm.locks.release_if_held(owner, plan.table)
        yield from packet.output.put([(removed,)])

    def _update(self, packet: Packet, plan: UpdateRows) -> Generator:
        sm = self.engine.sm
        owner = ("q", packet.query.query_id, packet.packet_id)
        schema = sm.catalog.table_schema(plan.table)
        matching = compile.filter_items(plan.predicate, schema)
        packet.phase = "lock"
        yield sm.locks.acquire(owner, plan.table, LockMode.EXCLUSIVE)
        packet.phase = "write"
        changed = 0
        try:
            info = sm.catalog.table(plan.table)
            for block in range(info.num_pages):
                page = yield from sm.read_table_page(plan.table, block)
                for slot, row in matching(page.slots()):
                    yield from sm.update_row(
                        plan.table, RID(block, slot), plan.apply(row)
                    )
                    changed += 1
        finally:
            sm.locks.release_if_held(owner, plan.table)
        yield from packet.output.put([(changed,)])
