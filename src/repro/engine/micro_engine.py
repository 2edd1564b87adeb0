"""The micro-engine base class.

A micro-engine (Figure 6a) owns:

* an incoming packet queue,
* a pool of worker processes serving packets from the queue, spawned on
  demand: until the pool is full each queued packet starts the next
  worker and hands it the packet, after that packets queue, and
* its OSP hooks -- the overlap test and attach procedure the coordinator
  invokes whenever a new packet queues up.

The *generic* sharing rule implemented here covers the full and step
overlap classes of Figure 4a, including the buffering enhancement of
Figure 4b:

* a satellite may attach while the host has produced **no output yet**
  (this is the whole lifetime for full-overlap operators such as a single
  aggregate or a hash-join build, and the pre-first-tuple window of step
  operators), or
* after output started, while everything produced so far is still in the
  host fan-out's bounded replay ring (buffering widens the window).

Operators with richer windows (sort materialisation, circular scans,
order-sensitive splits) override the hooks.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.engine.packets import Packet, PacketState
from repro.faults.errors import FaultError
from repro.sim import Channel, ChannelClosed, Interrupted, Process


class MicroEngine:
    """Base micro-engine: queue, workers, generic OSP hooks."""

    #: Overlap classification from Figure 4a ("linear", "step", "full",
    #: "spike") -- informational; the WoP model tests use it.
    overlap_class = "step"

    def __init__(self, name: str, engine, workers: int = 16):
        self.name = name
        self.engine = engine  # QPipeEngine
        self.sim = engine.sim
        self.workers = workers
        self.queue = Channel(self.sim, capacity=float("inf"), name=f"{name}-q")
        #: Packets queued or running here, inspected for overlaps.
        self.active: List[Packet] = []
        self.packets_served = 0
        self.packets_shared = 0
        #: Spawned workers, by index; never more than ``workers``.
        self._worker_procs: List[Process] = []

    # ------------------------------------------------------------------
    # Packet intake
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> None:
        """Queue *packet*, first giving OSP a chance to attach it."""
        if packet.state is PacketState.CANCELLED or packet.query.aborted:
            return
        if (
            self.engine.osp_enabled
            and not packet.no_share
            and self.try_share(packet)
        ):
            self.packets_shared += 1
            self.engine.osp_stats.record_attach(self.name, packet)
            return
        packet.state = PacketState.QUEUED
        self.active.append(packet)
        self.sim.tracer.packet_enqueue(packet)
        spawned = len(self._worker_procs)
        if spawned < self.workers:
            # Start the next worker with this packet.  A pool spawned
            # whole and parked at t=0 in index order makes the same
            # assignment -- its FIFO of parked workers offers a
            # never-used one first -- for the same one kernel entry (the
            # hand-off's wake-up; here the new process's first step).
            self._worker_procs.append(self.sim.spawn(
                self._worker_loop(spawned, packet),
                name=f"{self.name}-w{spawned}",
            ))
        else:
            assert self.queue.try_put(packet)

    def _worker_loop(self, index: int, packet: Packet) -> Generator:
        """Serve *packet*, the one this worker was spawned for, then
        every packet the queue hands it."""
        while True:
            # Skipped when cancelled, attached, or aborted while waiting.
            if packet.state is PacketState.QUEUED and not packet.query.aborted:
                packet.state = PacketState.RUNNING
                # Expose this worker's process so cancel_subtree can
                # interrupt it.
                packet.worker = self._worker_procs[index]
                self.packets_served += 1
                self.sim.tracer.packet_dispatch(packet)
                try:
                    yield from self._serve_wrapper(packet)
                except Interrupted:
                    # Cancellation by the OSP coordinator: clean up quietly.
                    if packet.output is not None:
                        packet.output.close()
                except FaultError as exc:
                    # An operator-level fault fails this *query*, not the
                    # simulation: tear the query down and keep serving.
                    if packet.output is not None:
                        packet.output.close()
                    # Detach ourselves first so the teardown's interrupt
                    # sweep does not kill this pool worker.
                    packet.worker = None
                    self.engine.abort_query(packet.query, str(exc), exc)
                finally:
                    packet.worker = None
                    if packet in self.active:
                        self.active.remove(packet)
                    if packet.state is PacketState.RUNNING:
                        packet.state = PacketState.DONE
                        self.sim.tracer.packet_complete(packet)
                        packet.end_satellites(early=False)
            # Cleared before each wait: an idle worker must not pin the
            # packet it last saw -- nor, through it, the query's fan-outs,
            # buffers and rows.
            packet = None
            packet = yield self.queue.get()

    def _serve_wrapper(self, packet: Packet) -> Generator:
        try:
            yield from self.serve(packet)
        except (FaultError, Interrupted):
            # The host is dying with incomplete output.  Its satellites
            # answer *before* the finally below closes the fan-out, or
            # they would see a premature EOF and silently return
            # truncated results.
            packet.end_satellites(early=True)
            raise
        finally:
            if packet.output is not None and not packet.output.closed:
                packet.output.close()
            self._release_inputs(packet)

    @staticmethod
    def _release_inputs(packet: Packet) -> None:
        """Close unread inputs so abandoned producers never block forever.

        An operator may finish without draining every input (e.g. a merge
        join whose one side ran out).  Closing the input buffer makes the
        producer's next put detach it; a child whose output nobody reads
        any more (no open buffers, no satellites) is cancelled outright.
        """
        for buffer in packet.inputs:
            if not buffer.closed:
                buffer.close()
        for child in packet.children:
            if child.state in (PacketState.DONE, PacketState.CANCELLED):
                continue
            if child.satellites:
                continue
            output = child.output
            if output is not None and all(b.closed for b in output.buffers):
                child.cancel_subtree()
                child.cancel("parent finished early")

    # ------------------------------------------------------------------
    # The operator itself
    # ------------------------------------------------------------------
    def serve(self, packet: Packet) -> Generator:
        """Coroutine: run the relational operator for *packet*.

        Subclasses read ``packet.inputs`` and write ``packet.output``.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # OSP hooks (the per-micro-engine sharing mechanism of section 4.3)
    # ------------------------------------------------------------------
    def try_share(self, packet: Packet) -> bool:
        """Attach *packet* to an in-progress overlapping packet if legal.

        Returns True when the packet became a satellite and must not be
        queued.
        """
        host = self.find_host(packet)
        if host is None:
            return False
        self.attach_satellite(host, packet)
        return True

    def find_host(self, packet: Packet) -> Optional[Packet]:
        for host in self.active:
            if host is packet or host.query is packet.query:
                continue
            if host.query.aborted:
                continue
            if host.signature != packet.signature:
                continue
            if not self.can_attach(host, packet):
                continue
            return host
        return None

    def can_attach(self, host: Packet, packet: Packet) -> bool:
        """The generic window-of-opportunity test (see module docstring)."""
        if not host.active:
            return False
        if host.output is None or host.output.closed:
            return False
        if host.output.total_tuples == 0:
            return True
        return host.output.can_replay()

    def attach_satellite(self, host: Packet, packet: Packet) -> None:
        """Figure 6b: attach, kill the satellite's subtree, replay, fan out."""
        # The WoP evidence this attach decision rested on; the
        # InvariantChecker re-validates it when replaying the trace.
        packet.attach_to(
            host,
            "generic",
            host_tuples=host.output.total_tuples,
            can_replay=host.output.can_replay(),
        )
        # Promised now, attached later: the host may close in between.
        host.output.promise_replay(packet.primary_output)
        packet.attach_proc = self.sim.spawn(
            self._attach_proc(host, packet),
            name=f"{self.name}-attach",
        )

    def _attach_proc(self, host: Packet, packet: Packet) -> Generator:
        """Feed the satellite's buffer from the host's fan-out; the host's
        end completes or redispatches it (:meth:`Packet.end_satellites`)."""
        try:
            yield from host.output.attach(packet.primary_output, replay=True)
        except ChannelClosed:
            packet.primary_output.close()

    # ------------------------------------------------------------------
    # Helpers for operator implementations
    # ------------------------------------------------------------------
    def charge(self, packet: Packet, tuples: int) -> Generator:
        """Coroutine: charge CPU for *tuples* on the host's shared pool.

        Hands back the burst itself, so a charge is one generator frame.
        """
        return packet.query.cpu(tuples)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<µEngine {self.name} active={len(self.active)}>"
