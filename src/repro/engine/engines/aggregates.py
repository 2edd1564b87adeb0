"""The aggregation micro-engines.

* Single aggregates are a *full* overlap: no output exists until the very
  end, so the generic sharing rule admits satellites for the operator's
  whole lifetime (Figure 4a).
* Group-by is *step* (it produces multiple results); hash grouping is
  blocking here, so output starts only after input is consumed, and the
  fan-out replay ring (buffering enhancement) keeps the window open a
  while into emission.
"""

from __future__ import annotations

from typing import Dict, Generator, List

from repro.engine.buffers import SEGMENT_BOUNDARY
from repro.engine.micro_engine import MicroEngine
from repro.engine.packets import Packet
from repro.relational import BATCH_ROWS, compile

#: How many consumed input batches between lineage checkpoints of the
#: accumulator state (one batch per delivered scan page upstream).
CHECKPOINT_EVERY = 8


class AggEngine(MicroEngine):
    overlap_class = "full"

    def serve(self, packet: Packet) -> Generator:
        plan = packet.plan
        query = packet.query
        child_schema = plan.child.output_schema(self.engine.sm.catalog)
        update = compile.agg_update(plan.aggs, child_schema)
        states = [spec.make_state() for spec in plan.aggs]
        source = packet.inputs[0]
        lineage = query.lineage
        consumed = 0
        batches = 0

        packet.phase = "aggregate"
        while True:
            batch = yield from source.get()
            if batch is None:
                break
            if batch is SEGMENT_BOUNDARY:
                continue
            yield from self.charge(packet, len(batch) * len(states))
            update(states, batch)
            consumed += len(batch)
            batches += 1
            if lineage is not None and batches % CHECKPOINT_EVERY == 0:
                # Write-ahead checkpoint: accumulator snapshot at an
                # input frontier; recovery replays only the unconsumed
                # page suffix into the restored states.
                yield from lineage.checkpoint(
                    consumed,
                    [(s.count, s.total, s.best) for s in states],
                )
        packet.phase = "emit"
        yield from packet.output.put(
            [tuple(state.result() for state in states)]
        )


class FoldBank:
    """Merged-aggregation accumulators for one folded scan signature.

    The fold group (repro.folding) feeds each page's residual rows
    through :meth:`add_batch` exactly once; members enrolling the same
    aggregate (by :meth:`AggSpec.signature`) share one accumulator,
    which is the "one aggregation, per-query projections" half of query
    folding.  Accumulators created later (``fresh``) are caught up from
    the group's survivor ring.
    """

    __slots__ = ("residual", "_schema", "_specs", "_states", "_fold")

    def __init__(self, residual, schema):
        #: ``survivors -> member scan rows`` (the folded scan's own
        #: predicate + projection, shared by every member of this bank).
        self.residual = residual
        #: Schema of the residual's output: what the aggregates read.
        self._schema = schema
        self._specs: List = []
        self._states: Dict[str, object] = {}
        self._fold = None

    def enroll(self, specs):
        """Register one member's aggregates; dedupe by signature.

        Returns ``(sigs, replay)``: the member's own signature list (its
        result row is ``result_for(sigs)``) and, when new accumulators
        were created, a ``rows -> None`` fold into just those -- the
        caller replays history through it -- else None.
        """
        sigs: List[str] = []
        fresh: List = []
        for spec in specs:
            sig = spec.signature()
            sigs.append(sig)
            if sig not in self._states:
                self._states[sig] = spec.make_state()
                fresh.append(spec)
        if not fresh:
            return sigs, None
        self._specs += fresh
        self._fold = None  # recompiled over the grown spec list
        fold = compile.agg_update(fresh, self._schema)
        states = [self._states[spec.signature()] for spec in fresh]
        return sigs, lambda rows: fold(states, rows)

    def add_batch(self, rows) -> None:
        if self._fold is None:
            self._fold = compile.agg_update(self._specs, self._schema)
        self._fold(list(self._states.values()), rows)

    def result_for(self, sigs) -> tuple:
        return tuple(self._states[sig].result() for sig in sigs)

    def __len__(self) -> int:
        return len(self._specs)


class GroupByEngine(MicroEngine):
    overlap_class = "step"

    def serve(self, packet: Packet) -> Generator:
        plan = packet.plan
        query = packet.query
        child_schema = plan.child.output_schema(self.engine.sm.catalog)
        update = compile.group_update(
            plan.aggs, plan.group_cols, child_schema
        )
        weight = max(1, len(plan.aggs))
        source = packet.inputs[0]

        packet.phase = "group"
        groups: Dict[tuple, list] = {}
        while True:
            batch = yield from source.get()
            if batch is None:
                break
            if batch is SEGMENT_BOUNDARY:
                continue
            yield from self.charge(packet, len(batch) * weight)
            update(groups, batch)
        packet.phase = "emit"
        result: List[tuple] = [
            key + tuple(state.result() for state in states)
            for key, states in sorted(groups.items())
        ]
        for start in range(0, len(result), BATCH_ROWS):
            yield from packet.output.put(result[start:start + BATCH_ROWS])
