"""The sort micro-engine.

Phases (section 3.2): the *sort* phase is a full overlap -- identical
packets attach via the generic rule and receive the complete output --
and the *emit* phase is linear thanks to the materialisation enhancement:
the host retains its sorted result while it remains active, so a late
satellite gets a private re-emission from the start instead of missing
the window entirely.
"""

from __future__ import annotations

from typing import Generator, List

from repro.engine.micro_engine import MicroEngine
from repro.engine.packets import Packet
from repro.faults.errors import FaultError
from repro.relational import BATCH_ROWS
from repro.relational.sort import RunMerge, sort_comparisons
from repro.sim import ChannelClosed


class SortEngine(MicroEngine):
    overlap_class = "full"  # sort phase; emit phase is linear

    # ------------------------------------------------------------------
    def serve(self, packet: Packet) -> Generator:
        plan = packet.plan
        query = packet.query
        sm = self.engine.sm
        child_schema = plan.child.output_schema(sm.catalog)
        key = child_schema.key_of(plan.keys)
        reverse = plan.descending

        packet.phase = "sort"
        budget = query.work_mem_tuples
        runs = []
        buffer: List[tuple] = []
        source = packet.inputs[0]
        try:
            while True:
                batch = yield from source.get()
                if batch is None:
                    break
                buffer.extend(batch)
                if len(buffer) >= budget:
                    yield from self._spill(
                        packet, buffer, key, reverse, runs
                    )
                    buffer = []
            if runs:
                if buffer:
                    yield from self._spill(
                        packet, buffer, key, reverse, runs
                    )
                merge = RunMerge(
                    [run.num_pages for run in runs], key, reverse
                )
                result = yield from merge.pull(sm.read_temp_page, runs)
                # Materialised, so the merged rows are charged once.
                yield from self.charge(packet, len(result))
        finally:
            # Sweeps the spilled runs on faults too; on the normal path
            # this fires right after the merge.
            for run in runs:
                sm.drop_temp_file(run)
        if not runs:
            yield from self._sort(packet, buffer, key, reverse)
            result = buffer

        # Materialisation function: retain the sorted result for late
        # satellites while this packet is active.
        packet.artifacts["sorted_result"] = result
        packet.phase = "emit"
        for start in range(0, len(result), BATCH_ROWS):
            yield from packet.output.put(result[start:start + BATCH_ROWS])

    def _sort(self, packet: Packet, rows, key, reverse) -> Generator:
        yield from self.charge(packet, sort_comparisons(len(rows)))
        rows.sort(key=key, reverse=reverse)

    def _spill(self, packet, rows, key, reverse, runs) -> Generator:
        yield from self._sort(packet, rows, key, reverse)
        schema = packet.plan.output_schema(self.engine.sm.catalog)
        run = self.engine.sm.create_temp_file(schema.row_width, "sortrun")
        # Registered before the (interruptible) write so the caller's
        # fault sweep sees a half-written run.
        runs.append(run)
        yield from self.engine.sm.write_run(run, rows)

    # ------------------------------------------------------------------
    # OSP: generic full/step sharing plus materialised re-emission
    # ------------------------------------------------------------------
    def try_share(self, packet: Packet) -> bool:
        if super().try_share(packet):
            return True
        for host in self.active:
            if host.query is packet.query or host.query.aborted:
                continue
            if host.signature != packet.signature:
                continue
            result = host.artifacts.get("sorted_result")
            if result is None or not host.active:
                continue
            # Emit phase: re-emit the materialised result from the start.
            packet.attach_to(host, "sort-reemit", materialized=True)
            self.engine.osp_stats.sort_reemissions += 1
            self.engine.osp_stats.record_attach(self.name, packet)
            self.sim.spawn(
                self._reemit(packet, result), name="sort-reemit"
            )
            return True
        return False

    def _reemit(self, packet: Packet, result: List[tuple]) -> Generator:
        """Re-emit the host's materialised result; it needs no host any
        more, so only its own consumer's close ends it early."""
        out = packet.primary_output
        try:
            yield from self.charge(packet, len(result))
            for start in range(0, len(result), BATCH_ROWS):
                yield from out.put(result[start:start + BATCH_ROWS])
        except ChannelClosed:
            pass  # the consumer closed: end quietly
        except FaultError as exc:
            if not packet.query.aborted:
                self.engine.abort_query(packet.query, str(exc), exc)
        finally:
            out.close()
            packet.complete()
