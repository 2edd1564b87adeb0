"""Pipeline-deadlock detection and resolution (section 4.3.3).

Simultaneous pipelining turns query plans into a shared dataflow graph;
fan-out producers run at the speed of their slowest consumer, so loops in
the combined plans can deadlock (the crossed-scans scenario of section
3.3).  Following the paper (and its companion report [30]), we build a
waits-for graph from *buffer states* alone:

* a producer blocked on a **full** buffer waits for that buffer's
  consumer packet;
* a consumer blocked on an **empty** buffer waits for its producer packet.

A cycle is a real deadlock.  We resolve it by *materialising* one buffer
on the cycle -- removing its back-pressure, which is the in-simulation
equivalent of spilling the stream to disk -- choosing the candidate with
the lowest estimated materialisation cost (fewest tuples currently
queued, the proxy we have for the paper's "optimal set of nodes").
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Set

from repro.engine.buffers import TupleBuffer
from repro.engine.packets import PacketState


#: Seconds between detector sweeps while queries are active.
PERIOD = 1.0


class DeadlockDetector:
    """Periodic waits-for-graph scan over the engine's live buffers."""

    def __init__(self, engine):
        self.engine = engine
        self.sim = engine.sim
        #: Names of the materialised buffers, in resolution order (names,
        #: not buffers: a buffer would pin its producer and consumer
        #: packets, and every row they hold, for the detector's life).
        self.resolved: List[str] = []
        self._running = False

    def ensure_running(self) -> None:
        """Start the periodic sweep; it parks itself once the engine goes
        idle (or starves) so the simulation can drain."""
        if not self._running:
            self._running = True
            self.sim.spawn(self._loop(), name="deadlock-detector")

    def _loop(self) -> Generator:
        while self.engine.active_queries > 0:
            yield self.sim.timeout(PERIOD)
            if self.check_once() is None and self.sim.idle:
                # Starved: no cycle to break and nothing but this sweep
                # would ever run again (a query waiting on a lock nobody
                # releases, say).  Re-arming would spin forever; stopping
                # lets the simulation drain and report the waits.
                break
        self._running = False

    # ------------------------------------------------------------------
    def check_once(self) -> Optional[List[TupleBuffer]]:
        """One detection pass; returns the cycle's buffers if one was
        found (after resolving it), else None."""
        buffers = self.engine.live_buffers()
        for buf in buffers:
            if buf.producer_blocked:
                break
        else:
            # The common sweep: nothing to materialise (see below), so no
            # graph is built at all.
            return None
        # Build the waits-for graph over packet nodes.
        edges: Dict[object, Set[object]] = {}
        blocking_buffer: Dict[tuple, TupleBuffer] = {}
        for buf in buffers:
            producer, consumer = buf.producer, buf.consumer
            if producer is None or consumer is None:
                continue
            blocked_full = buf.full and buf.blocked_producers()
            blocked_empty = buf.empty and buf.blocked_consumers()
            if not (blocked_full or blocked_empty):
                continue
            # Stale edge: a completed/aborted endpoint is not waiting on
            # anything; treating it as a node would manufacture phantom
            # cycles (and materialise innocent buffers) during teardown.
            if self._stale(producer) or self._stale(consumer):
                continue
            if blocked_full:
                edges.setdefault(producer, set()).add(consumer)
                blocking_buffer[(producer, consumer)] = buf
            if blocked_empty:
                edges.setdefault(consumer, set()).add(producer)
        if not blocking_buffer:
            # Only a full buffer with a blocked producer can be
            # materialised; without one no cycle has a resolution.
            return None
        cycle = self._find_cycle(edges)
        if cycle is None:
            return None
        # Candidate resolutions: the full buffers along the cycle.
        candidates = []
        for i, node in enumerate(cycle):
            succ = cycle[(i + 1) % len(cycle)]
            buf = blocking_buffer.get((node, succ))
            if buf is not None:
                candidates.append(buf)
        if not candidates:
            return None
        victim = min(candidates, key=lambda buf: buf.level)
        self.sim.tracer.osp(
            "deadlock_resolved",
            buffer=victim.name,
            level=victim.level,
            cycle_size=len(cycle),
        )
        victim.materialize()
        self.resolved.append(victim.name)
        self.engine.osp_stats.deadlocks_resolved += 1
        return candidates

    @staticmethod
    def _stale(packet) -> bool:
        state = getattr(packet, "state", None)
        if state in (PacketState.DONE, PacketState.CANCELLED):
            return True
        query = getattr(packet, "query", None)
        return query is not None and getattr(query, "aborted", False)

    @staticmethod
    def _find_cycle(edges: Dict[object, Set[object]]) -> Optional[list]:
        """A cycle in the waits-for graph, as a node list, or None."""
        WHITE, GREY, BLACK = 0, 1, 2
        color: Dict[object, int] = {}
        parent: Dict[object, object] = {}

        def visit(node) -> Optional[list]:
            color[node] = GREY
            for succ in edges.get(node, ()):
                state = color.get(succ, WHITE)
                if state == GREY:
                    # Unwind the grey path succ -> ... -> node.
                    cycle = [succ]
                    cursor = node
                    while cursor != succ:
                        cycle.append(cursor)
                        cursor = parent[cursor]
                    cycle.reverse()
                    return cycle
                if state == WHITE:
                    parent[succ] = node
                    found = visit(succ)
                    if found is not None:
                        return found
            color[node] = BLACK
            return None

        for node in list(edges):
            if color.get(node, WHITE) == WHITE:
                found = visit(node)
                if found is not None:
                    return found
        return None
