"""Query packets and per-query context.

"In QPipe, a query packet represents work a query needs to perform at a
given micro-engine" (section 4.3).  The packet dispatcher creates one
packet per plan node; each packet knows its input buffers (fed by child
packets), its fan-out output, and its canonical signature -- the encoded
argument list that overlap detection compares.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from repro.engine.buffers import FanOut, TupleBuffer
from repro.relational.plans import PlanNode
from repro.storage.streams import next_stream


class PacketState(enum.Enum):
    CREATED = "created"
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    #: Attached to a host packet; its own operator never runs.
    SATELLITE = "satellite"
    #: Terminated before its end: an ancestor became a satellite or
    #: stopped early, or its query aborted.
    CANCELLED = "cancelled"


@dataclass(eq=False)
class QueryContext:
    """Execution context shared by all packets of one query."""

    query_id: int
    plan: PlanNode
    sm: Any  # StorageManager
    host_machine: Any  # Host
    work_mem_tuples: int = 50_000
    submitted_at: float = 0.0
    packets: List["Packet"] = field(default_factory=list)
    #: The owning QPipeEngine (None in unit tests that fake the context);
    #: abort paths use it to rescue satellites and sweep locks.
    engine: Any = None
    #: Abort state: set exactly once by QPipeEngine.abort_query.
    aborted: bool = False
    abort_reason: Optional[str] = None
    #: The originating failure (a FaultError), re-raised to the client.
    failure: Optional[BaseException] = None
    #: Absolute virtual instant (not a budget from submission) at which
    #: the engine aborts the query if it is still running.
    deadline: Optional[float] = None
    #: Set when execute() returns/raises; stops the deadline watchdog.
    finished: bool = False
    #: Optional :class:`~repro.lineage.tracker.LineageTracker`; scan
    #: operators report delivered pages through it (None: no recording).
    lineage: Any = None

    def cpu(self, tuples: int, factor: float = 1.0) -> Generator:
        """Coroutine: charge CPU for processing *tuples* tuples.

        Hands back the burst itself, so a charge is one generator frame.
        """
        host = self.host_machine
        return host.cpu.burst(tuples * host.config.cpu_per_tuple * factor)


@dataclass(eq=False)
class Packet:
    """Work for one query at one micro-engine."""

    query: QueryContext
    plan: PlanNode
    signature: str
    engine_name: str
    #: Deterministic id ("q<query>p<n>") assigned by the dispatcher;
    #: this is what trace events refer to (never Python object ids, so
    #: identical runs yield byte-identical traces).
    packet_id: str = ""
    inputs: List[TupleBuffer] = field(default_factory=list)
    output: Optional[FanOut] = None
    children: List["Packet"] = field(default_factory=list)
    parent: Optional["Packet"] = None
    state: PacketState = PacketState.CREATED
    #: The host this packet attached to (when it became a satellite):
    #: another query's packet, or a fold group's circular scanner.
    host: Any = None
    #: How it attached: the trace's ``generic``, ``sort-reemit`` or
    #: ``mj-split`` -- what :meth:`end_satellites` does with it when its
    #: host ends -- or ``fold-scan`` / ``fold-agg``, whose host is a
    #: circular scanner (repro.folding), not a packet.
    mechanism: str = ""
    #: Other queries' packets riding this one as their host; each
    #: answers this packet's end through :meth:`end_satellites`.
    satellites: List["Packet"] = field(default_factory=list)
    #: The worker process currently serving this packet.
    worker: Any = None
    #: Operator phase label maintained by the serving micro-engine
    #: ("build"/"probe", "sort"/"emit", ...), consulted by WoP checks.
    phase: str = "pending"
    #: True when the packet's parent does not require this node's output
    #: in any particular order (enables the section 4.3.2 strategies).
    order_insensitive_parent: bool = False
    #: Artifacts a host retains for late satellites (e.g. the sorted
    #: result a Sort keeps so phase-2 arrivals can re-emit it).
    artifacts: Dict[str, Any] = field(default_factory=dict)
    #: Forbid sharing for this packet (no try_share, no circular attach).
    #: Set on subtrees rebuilt after a host crash when a delivered-tuple
    #: prefix must be skipped: skip-by-count is only sound when the
    #: re-execution produces tuples in the same canonical order, which a
    #: mid-file circular attach would not.
    no_share: bool = False
    #: The generic-attach delivery process feeding this satellite's
    #: buffer from the host fan-out; redispatch interrupts it so a
    #: half-finished replay cannot race the private re-execution.
    attach_proc: Any = None
    #: Buffer-pool scan-stream identity, one per packet for its whole
    #: life (the OSP attach paths reuse it across passes).  Drawn from
    #: the process-wide counter rather than id(packet) so a recycled
    #: object address can never match a dead scan's ring entries
    #: (see repro.storage.streams).
    stream: Any = field(default_factory=next_stream)

    @property
    def active(self) -> bool:
        return self.state in (PacketState.QUEUED, PacketState.RUNNING)

    @property
    def primary_output(self) -> TupleBuffer:
        return self.output.primary

    def descendants(self) -> List["Packet"]:
        out: List[Packet] = []
        stack = list(self.children)
        while stack:
            packet = stack.pop()
            out.append(packet)
            stack.extend(packet.children)
        return out

    def attach_to(self, host, mechanism: str, **window) -> None:
        """Become a satellite of *host*, a packet or a fold group (Figure
        6b): record the attach with its window-of-opportunity evidence,
        then terminate this packet's own subtree, whose work the host now
        does."""
        self.state = PacketState.SATELLITE
        self.host = host
        self.mechanism = mechanism
        host.satellites.append(self)
        self.query.sm.sim.tracer.packet_attach(self, host, mechanism, **window)
        self.cancel_subtree()

    def complete(self) -> None:
        """A satellite's output is whole: mark it done (exactly once)."""
        if self.state is PacketState.SATELLITE:
            self.state = PacketState.DONE
            self.query.sm.sim.tracer.packet_complete(self)

    def end_satellites(self, early: bool) -> None:
        """The satellite lifecycle: this host reached its end of file
        (*early* False) or ended before it -- an early stop, a cancel, an
        abort, a crash or a deadline.  The one sweep every host end runs;
        the mechanism each satellite attached with decides its answer
        (DESIGN §7).  Idempotent: a satellite answers while attached."""
        if early and self.state is PacketState.DONE:
            return  # its satellites answered its end of file already
        for sat in list(self.satellites):
            if sat.state is not PacketState.SATELLITE:
                continue
            if sat.mechanism == "sort-reemit":
                continue  # it re-emits a materialised result
            if sat.mechanism == "mj-split":
                # Its relay reads on to the boundary; after an early end
                # it reads the host's unread suffix privately first.
                sat.artifacts["mj_split"]["host_ended_early"] |= early
            elif not early:
                sat.complete()  # generic
            elif self.query.engine is not None:
                # Generic: re-execute privately, skip-by-count.
                self.query.engine.dispatcher.redispatch(sat)

    def cancel(self, reason: str) -> None:
        """Cancel this packet unless it already ended: not attachable any
        more, its satellites answer its early end, then its worker is
        interrupted and its output closed so nothing blocks on it."""
        if self.state in (PacketState.DONE, PacketState.CANCELLED):
            return
        self.state = PacketState.CANCELLED
        self.end_satellites(early=True)
        self.query.sm.sim.tracer.packet_cancel(self, reason)
        if self.worker is not None and self.worker.alive:
            self.worker.interrupt(reason)
            self.worker = None
        if self.output is not None:
            self.output.close()

    def cancel_subtree(self) -> None:
        """Terminate every descendant packet (Figure 6b, step 2).

        Running workers are interrupted; queued packets are flagged so
        their micro-engine skips them; the buffers between them are closed
        so nothing blocks forever.
        """
        for packet in self.descendants():
            packet.cancel("subtree cancelled")

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"<Packet q{self.query.query_id}:{self.engine_name} "
            f"{self.state.value} {self.phase}>"
        )
