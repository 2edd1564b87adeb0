"""The streaming and update micro-engines.

Filter, project, limit, distinct and the probe side of the semi / anti /
left-outer joins are one ``serve``: a stage
(:mod:`repro.relational.stages`) between a ``get`` and a ``put``.  What
differs per micro-engine is data -- the overlap class, and whether the
operator keeps section 4.3.2's segment structure for its parent.

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
from repro.relational.stages import PROBES, build_stage


class StreamEngine(MicroEngine):
    """One streaming operator per packet: charge, apply, ship."""

    #: Whether a SEGMENT_BOUNDARY on the input is passed on (the
    #: operator preserves segment structure) or swallowed.
    forwards_markers = False

    def serve(self, packet: Packet) -> Generator:
        plan = packet.plan
        catalog = self.engine.sm.catalog
        probing = isinstance(plan, PROBES)
        stage = build_stage(
            plan,
            plan.children[0].output_schema(catalog),
            plan.right.output_schema(catalog) if probing else None,
        )
        if probing:
            packet.phase = "build"
            right_in = packet.inputs[1]
            while True:
                batch = yield from right_in.get()
                if batch is None:
                    break
                if batch is SEGMENT_BOUNDARY:
                    continue
                yield from self.charge(packet, len(batch))
                stage.build(batch)
            packet.phase = "probe"
        source = packet.inputs[0]
        # A satisfied LIMIT stops reading; its (closed) inputs are
        # released by the base class.
        while not stage.finished:
            batch = yield from source.get()
            if batch is None:
                break
            if batch is SEGMENT_BOUNDARY:
                if self.forwards_markers:
                    yield from packet.primary_output.put_marker()
                continue
            if stage.charged:
                yield from self.charge(packet, len(batch))
            batch = stage.apply(batch)
            if not stage.charged:
                # LIMIT is charged per row it ships, not per row it sees.
                yield from self.charge(packet, len(batch))
            if batch:
                yield from packet.output.put(batch)


class ProjectEngine(StreamEngine):
    overlap_class = "linear"
    forwards_markers = True


class FilterEngine(StreamEngine):
    overlap_class = "linear"
    forwards_markers = True


class LimitEngine(StreamEngine):
    overlap_class = "linear"


class DistinctEngine(StreamEngine):
    overlap_class = "step"


class ProbeEngine(StreamEngine):
    """Semi / anti (EXISTS / NOT EXISTS) and hash left-outer joins:
    *full* overlap while the right input builds, *step* once left rows
    start flowing out."""

    overlap_class = "full"


class UpdateEngine(MicroEngine):
    """No OSP; exclusive table locks; see section 4.3.4."""

    overlap_class = "none"

    def try_share(self, packet: Packet) -> bool:
        return False  # updates are never shared

    def serve(self, packet: Packet) -> Generator:
        plan = packet.plan
        packet.phase = "write"
        affected = yield from self.engine.sm.apply_dml(
            plan, ("q", packet.query.query_id, packet.packet_id)
        )
        yield from packet.output.put([(affected,)])
