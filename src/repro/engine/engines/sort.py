"""The sort micro-engine.

Phases (section 3.2): the *sort* phase is a full overlap -- identical
packets attach via the generic rule and receive the complete output --
and the *emit* phase is linear thanks to the materialisation enhancement:
the host retains its sorted result while it remains active, so a late
satellite gets a private re-emission from the start instead of missing
the window entirely.
"""

from __future__ import annotations

from math import log2
from typing import Generator, List

from repro.engine.micro_engine import MicroEngine
from repro.engine.packets import Packet, PacketState
from repro.faults.errors import FaultError
from repro.relational import BATCH_ROWS


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
                result = yield from self._merge_runs(
                    packet, runs, key, reverse
                )
        finally:
            # Sweeps the spilled runs on faults too; on the normal path
            # this fires right after _merge_runs returns, the same point
            # the drop loop used to live.
            for run in runs:
                sm.drop_temp_file(run)
        if not runs:
            yield from self._sort_cpu(packet, len(buffer))
            buffer.sort(key=key, reverse=reverse)
            result = buffer

        # Materialisation function: retain the sorted result for late
        # satellites while this packet is active.
        packet.artifacts["sorted_result"] = result
        packet.phase = "emit"
        for start in range(0, len(result), BATCH_ROWS):
            yield from packet.output.put(result[start:start + BATCH_ROWS])

    def _sort_cpu(self, packet: Packet, n: int) -> Generator:
        if n <= 0:
            return
        comparisons = int(n * max(1.0, log2(max(2, n))))
        yield from self.charge(packet, 
            comparisons, factor=self.engine.host.config.sort_cpu_factor
        )

    def _spill(self, packet, rows, key, reverse, runs) -> Generator:
        yield from self._sort_cpu(packet, len(rows))
        rows.sort(key=key, reverse=reverse)
        schema = packet.plan.output_schema(self.engine.sm.catalog)
        run = self.engine.sm.create_temp_file(schema.row_width, "sortrun")
        # Registered before the (interruptible) write so the caller's
        # fault sweep sees a half-written run.
        runs.append(run)
        yield from self.engine.sm.write_run(run, rows)

    def _merge_runs(self, packet, runs, key, reverse) -> Generator:
        """Coroutine: k-way merge of spilled runs, charging page reads."""
        sm = self.engine.sm
        cursors = []
        for run in runs:
            cursors.append({"run": run, "block": 0, "rows": [], "idx": 0})

        def exhausted(cursor):
            return (
                cursor["idx"] >= len(cursor["rows"])
                and cursor["block"] >= cursor["run"].num_pages
            )

        result: List[tuple] = []
        for cursor in cursors:
            if cursor["run"].num_pages:
                page = yield from sm.read_temp_page(cursor["run"], 0)
                cursor["rows"] = page.rows()
                cursor["block"] = 1
        while True:
            best = None
            for cursor in cursors:
                if cursor["idx"] >= len(cursor["rows"]):
                    if cursor["block"] < cursor["run"].num_pages:
                        page = yield from sm.read_temp_page(
                            cursor["run"], cursor["block"]
                        )
                        cursor["rows"] = page.rows()
                        cursor["idx"] = 0
                        cursor["block"] += 1
                    else:
                        continue
                row = cursor["rows"][cursor["idx"]]
                rank = key(row)
                better = (
                    best is None
                    or (rank > best[0] if reverse else rank < best[0])
                )
                if better:
                    best = (rank, cursor)
            if best is None:
                break
            cursor = best[1]
            result.append(cursor["rows"][cursor["idx"]])
            cursor["idx"] += 1
        yield from self.charge(packet, len(result))
        return result

    # ------------------------------------------------------------------
    # OSP: generic full/step sharing plus materialised re-emission
    # ------------------------------------------------------------------
    def try_share(self, packet: Packet) -> bool:
        if super().try_share(packet):
            return True
        for host in self.active:
            if host.query is packet.query:
                continue
            if host.signature != packet.signature:
                continue
            result = host.artifacts.get("sorted_result")
            if result is None or not host.active:
                continue
            # Emit phase: re-emit the materialised result from the start.
            packet.state = PacketState.SATELLITE
            # Completed by its own re-emit process, not the host's sweeps.
            packet.self_serving = True
            packet.host = host
            host.satellites.append(packet)
            self.sim.tracer.packet_attach(
                packet, host, "sort-reemit", materialized=True
            )
            packet.cancel_subtree()
            self.engine.osp_stats.sort_reemissions += 1
            self.engine.osp_stats.record_attach(self.name, packet)
            self.sim.spawn(
                self._reemit(packet, result), name="sort-reemit"
            )
            return True
        return False

    def _reemit(self, packet: Packet, result: List[tuple]) -> Generator:
        out = packet.primary_output
        try:
            yield from self.charge(packet, len(result))
            for start in range(0, len(result), BATCH_ROWS):
                yield from out.put(result[start:start + BATCH_ROWS])
        except FaultError as exc:
            if not packet.query.aborted:
                self.engine.abort_query(packet.query, str(exc), exc)
        finally:
            out.close()
            if packet.state is PacketState.SATELLITE:
                packet.state = PacketState.DONE
                self.sim.tracer.packet_complete(packet)
