"""Intermediate tuple buffers between micro-engines.

A :class:`TupleBuffer` carries *batches* (lists of rows) with a capacity
counted in tuples; full buffers block the producer, empty ones block the
consumer -- the paper's "intermediate buffers regulate the data flow".

A :class:`FanOut` wraps one producer's output for simultaneous pipelining:
it copies every batch to all attached buffers (the host query's and every
satellite's), so "if any of the consumers is slower than the producer, all
queries will eventually adjust ... to the speed of the slowest consumer"
(section 4.3).  It also keeps a bounded *replay ring* of recent output --
the buffering enhancement function of Figure 4b -- so a step-overlap
operator can admit a satellite after its first tuples were produced, as
long as nothing has been dropped from the ring.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from repro.sim import (
    AnyOf,
    Channel,
    ChannelClosed,
    Gate,
    Interrupted,
    Lock,
    Simulator,
)

#: Marker batch separating two ordered segments in one stream, used by
#: the section 4.3.2 order-sensitive scan strategy: the merge-join sees
#: the marker, restarts its other input, and joins the next segment.
SEGMENT_BOUNDARY = ("__segment_boundary__",)


class FanOutClosed(RuntimeError):
    """A replaying attach reached a closed :class:`FanOut`.

    A closed fan-out has released its replay ring, so it can no longer
    hand a late satellite the complete output; the attach must have been
    promised (:meth:`FanOut.promise_replay`) while the fan-out was open.
    """


class TupleBuffer:
    """A bounded batch queue from one producer packet to one consumer.

    ``get`` returns ``None`` at end-of-stream (after ``close``).  The
    buffer also carries a late-activation gate: producers may wait on
    :meth:`wait_activated`, and the gate opens automatically on the
    consumer's first ``get`` (section 4.3.1's late activation policy --
    "no scan packet is initiated until its output buffer is flagged as
    ready to receive tuples").
    """

    __slots__ = (
        "sim", "name", "producer", "consumer", "_channel", "_gate",
        "tuples_in", "tuples_out", "skip_tuples", "registry", "__weakref__",
    )

    def __init__(
        self,
        sim: Simulator,
        capacity_tuples: int = 2048,
        name: str = "buf",
        producer: Any = None,
        consumer: Any = None,
    ):
        self.sim = sim
        self.name = name
        self.producer = producer
        self.consumer = consumer
        self._channel = Channel(sim, capacity=capacity_tuples, name=name)
        self._gate = Gate(sim)
        self.tuples_in = 0
        self.tuples_out = 0
        #: Tuples to silently drop from the front of the stream.  After a
        #: host crash a rescued satellite's subtree re-executes from
        #: scratch; the prefix its consumer already received (exactly
        #: ``tuples_in`` at detach time) is consumed here instead of
        #: being delivered twice.  ``tuples_in`` keeps counting in
        #: *logical stream* positions, so a second crash recomputes a
        #: correct skip.
        self.skip_tuples = 0
        #: The live-buffer registry this buffer is listed in (a dict used
        #: as an ordered set); close() removes it, so a finished query's
        #: buffers are never pinned by the deadlock detector's registry.
        self.registry = None

    # -- producer side ----------------------------------------------------
    def wait_activated(self) -> Generator:
        """Coroutine: block until the consumer signals readiness."""
        yield self._gate.wait()

    def activate(self) -> None:
        """Flag the buffer ready (normally implicit in the first get)."""
        self._gate.open()

    def put(self, batch: List[tuple]) -> Generator:
        """Coroutine: enqueue one batch (blocks while full).

        Batches larger than the buffer's capacity are split into
        capacity-sized chunks so operators can emit at their preferred
        granularity regardless of the configured buffer size.
        """
        if not batch:
            return
        batch = self._consume_skip(batch)
        if not batch:
            return
        capacity = self._channel.capacity
        if capacity != float("inf") and len(batch) > capacity:
            step = max(1, int(capacity))
            for start in range(0, len(batch), step):
                yield from self.put(batch[start:start + step])
            return
        accept = self._channel.put(batch, size=len(batch), owner=self.producer)
        try:
            yield accept
        except Interrupted:
            # Exact accounting: if the batch slipped in before the
            # interrupt landed it will reach the consumer and must
            # count; a still-pending one is withdrawn and must not.
            if not self._channel.cancel_put(accept) and accept.triggered and accept.ok:
                self.tuples_in += len(batch)
            raise
        self.tuples_in += len(batch)

    def _consume_skip(self, batch: List[tuple]) -> List[tuple]:
        if self.skip_tuples <= 0 or batch is SEGMENT_BOUNDARY:
            return batch
        if len(batch) <= self.skip_tuples:
            self.skip_tuples -= len(batch)
            return []
        batch = batch[self.skip_tuples:]
        self.skip_tuples = 0
        return batch

    def try_put(self, batch: List[tuple]) -> bool:
        if not batch:
            return True
        batch = self._consume_skip(batch)
        if not batch:
            return True
        ok = self._channel.try_put(batch, size=len(batch))
        if ok:
            self.tuples_in += len(batch)
        return ok

    def put_marker(self) -> Generator:
        """Coroutine: enqueue a SEGMENT_BOUNDARY marker (section 4.3.2)."""
        yield self._channel.put(SEGMENT_BOUNDARY, size=1, owner=self.producer)

    def put_with_patience(self, batch: List[tuple], patience: float) -> Generator:
        """Coroutine: like put, but give up after *patience* seconds.

        Returns True when the batch was accepted, False on timeout -- and
        False guarantees *nothing* was delivered: the batch was withdrawn
        whole, so the caller may safely re-deliver it later.  The
        circular-scan manager uses this to detach consumers that stall
        the shared scanner (section 3.3: a scan that blocks "will need to
        detach from the rest of the scans").

        A batch larger than the buffer's capacity cannot be withdrawn
        whole, so patience applies to its first capacity-sized chunk
        only: if that chunk times out, nothing was delivered and False is
        returned; once it is accepted the remainder goes through a plain
        blocking :meth:`put`, keeping delivery exactly-once even when the
        patience deadline and the channel accept land on the same
        timestamp.
        """
        if not batch:
            return True
        batch = self._consume_skip(batch)
        if not batch:
            return True
        channel = self._channel
        rest = None
        if channel.capacity != float("inf") and len(batch) > channel.capacity:
            step = max(1, int(channel.capacity))
            batch, rest = batch[:step], batch[step:]
        # Exactly-once under the deadline/accept race: the channel takes
        # the chunk synchronously (``try_put`` returns True, or
        # ``accept.triggered`` is set), so if the patience deadline and
        # the accept land on the same timestamp the chunk is either
        # counted (accepted first) or withdrawn before it can be accepted
        # -- never both.  An accept nobody will wait on is never built.
        if not channel.try_put(batch, len(batch)):
            accept = channel.put(batch, size=len(batch), owner=self.producer)
            if not accept.triggered:
                deadline = self.sim.timeout(patience)
                try:
                    yield AnyOf(self.sim, [accept, deadline])
                except Interrupted:
                    # A crashed scanner must not leave its page pending in
                    # the channel: withdraw it (or count it if it slipped
                    # in) so restart-time delivery stays exactly-once.
                    if (
                        not channel.cancel_put(accept)
                        and accept.triggered
                        and accept.ok
                    ):
                        self.tuples_in += len(batch)
                    raise
                if not accept.triggered:
                    channel.cancel_put(accept)
                    return False
            if not accept.ok:
                raise accept.value
        self.tuples_in += len(batch)
        if rest:
            yield from self.put(rest)
        return True

    def close(self) -> None:
        self._channel.close()
        if self.registry is not None:
            self.registry.pop(self, None)
            self.registry = None

    # -- consumer side ----------------------------------------------------
    def get(self) -> Generator:
        """Coroutine: the next batch, a SEGMENT_BOUNDARY, or None at EOS."""
        self._gate.open()
        try:
            batch = yield self._channel.get(owner=self.consumer)
        except ChannelClosed:
            return None
        if batch is not SEGMENT_BOUNDARY:
            self.tuples_out += len(batch)
        return batch

    def drain(self) -> Generator:
        """Coroutine: all remaining rows as one list."""
        rows: List[tuple] = []
        while True:
            batch = yield from self.get()
            if batch is None:
                return rows
            if batch is SEGMENT_BOUNDARY:
                continue
            rows.extend(batch)

    # -- introspection (deadlock detector) ---------------------------------
    @property
    def closed(self) -> bool:
        return self._channel.closed

    @property
    def full(self) -> bool:
        return self._channel.full

    @property
    def empty(self) -> bool:
        return self._channel.empty

    @property
    def level(self) -> float:
        return self._channel.level

    @property
    def capacity(self) -> float:
        return self._channel.capacity

    @property
    def producer_blocked(self) -> bool:
        return self._channel.producer_blocked

    def blocked_producers(self) -> list:
        return self._channel.blocked_producers()

    def blocked_consumers(self) -> list:
        return self._channel.blocked_consumers()

    def materialize(self) -> None:
        """Remove back-pressure (deadlock resolution, section 4.3.3)."""
        self._channel.force_capacity(float("inf"))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<TupleBuffer {self.name} {self._channel.level}/{self.capacity}>"


class FanOut:
    """One producer, N consumer buffers, with a bounded replay ring.

    The producer writes through :meth:`put`; the OSP coordinator attaches
    satellite buffers with :meth:`attach` (replaying ring contents first)
    and the operator closes everything with :meth:`close`.

    Once closed, the fan-out admits no new satellite, so :meth:`close`
    releases the replay ring -- except for the replays already promised
    to satellites whose attach has not run yet, which keep it until the
    last of them attaches or detaches.
    """

    __slots__ = (
        "sim", "name", "buffers", "replay_tuples", "_ring", "_ring_size",
        "total_tuples", "dropped_from_ring", "closed", "_lock", "_promised",
        "__weakref__",
    )

    def __init__(
        self,
        sim: Simulator,
        primary: TupleBuffer,
        replay_tuples: int = 1024,
        name: str = "fanout",
    ):
        self.sim = sim
        self.name = name
        self.buffers: List[TupleBuffer] = [primary]
        self.replay_tuples = replay_tuples
        self._ring: List[List[tuple]] = []
        self._ring_size = 0
        self.total_tuples = 0
        self.dropped_from_ring = False
        self.closed = False
        #: Satellite buffers admitted for a replay their attach still owes.
        self._promised: List[TupleBuffer] = []
        # Serialises put against attach so a satellite's replay never
        # races with (and misses) a concurrent live batch.
        self._lock = Lock(sim)

    @property
    def primary(self) -> TupleBuffer:
        return self.buffers[0]

    def can_replay(self) -> bool:
        """Whether every tuple ever produced is still in the replay ring."""
        return not self.dropped_from_ring

    def put(self, batch: List[tuple]) -> Generator:
        """Coroutine: copy *batch* to every attached buffer (in order).

        Blocks until the slowest consumer accepts it.  Buffers whose
        consumer went away (closed underneath us) are detached silently.
        """
        if not batch:
            return
        yield self._lock.acquire()
        try:
            self.total_tuples += len(batch)
            self._remember(batch)
            for buffer in list(self.buffers):
                if buffer.closed:
                    self.detach(buffer)
                    continue
                try:
                    yield from buffer.put(batch)
                except ChannelClosed:
                    self.detach(buffer)
        finally:
            self._lock.release()

    def _remember(self, batch: List[tuple]) -> None:
        self._ring.append(batch)
        self._ring_size += len(batch)
        while self._ring_size > self.replay_tuples and len(self._ring) > 1:
            dropped = self._ring.pop(0)
            self._ring_size -= len(dropped)
            self.dropped_from_ring = True
        if self._ring_size > self.replay_tuples:
            self.dropped_from_ring = True

    def promise_replay(self, buffer: TupleBuffer) -> None:
        """Admit *buffer* for a replaying :meth:`attach` that runs later.

        The admission decision and the attach are separate simulator
        steps; the producer may finish and close in between.  The promise
        keeps the ring alive until *buffer* attaches (or detaches), so
        the satellite still receives the complete output.
        """
        self._promised.append(buffer)

    def attach(
        self,
        buffer: TupleBuffer,
        replay: bool = True,
        on_attached=None,
    ) -> Generator:
        """Coroutine: add a satellite buffer, replaying ring contents.

        The caller must have verified :meth:`can_replay` when the
        satellite needs the complete output so far (step overlap).
        ``on_attached`` runs while the fan-out lock is still held, so the
        caller can capture the producer's exact progress at the moment of
        attachment (the 4.3.2 split uses this to bound its prefix pass
        without duplicating or losing a page).  A replaying attach on a
        closed fan-out raises :exc:`FanOutClosed` unless it was promised.
        """
        yield self._lock.acquire()
        try:
            if replay and self.closed and buffer not in self._promised:
                raise FanOutClosed(f"{self.name}: replay after close")
            if replay:
                for batch in list(self._ring):
                    # Intentional blocking-while-holding: replay must be
                    # atomic w.r.t. new puts or the satellite would see a
                    # gap; the satellite's consumer is live, bounding the
                    # wait by its drain rate.
                    yield from buffer.put(list(batch))  # simlint: disable=IPR102
            if not self.closed:
                self.buffers.append(buffer)
            if on_attached is not None:
                on_attached()
            if self.closed:
                buffer.close()
        finally:
            self._forget_promise(buffer)
            self._lock.release()

    def detach(self, buffer: TupleBuffer) -> None:
        if buffer in self.buffers:
            self.buffers.remove(buffer)
        self._forget_promise(buffer)

    def _forget_promise(self, buffer: TupleBuffer) -> None:
        if buffer in self._promised:
            self._promised.remove(buffer)
            if self.closed and not self._promised:
                self._release_ring()

    def reset_replay(self) -> None:
        """Forget all replay/progress state.

        Called when a rescued satellite is promoted to drive this
        fan-out with a fresh producer: the new producer restarts the
        stream from tuple zero, so the old ring and counters would
        corrupt later attach (window-of-opportunity) decisions.
        """
        self._release_ring()
        self.total_tuples = 0
        self.dropped_from_ring = False

    def _release_ring(self) -> None:
        self._ring = []
        self._ring_size = 0

    def close(self) -> None:
        self.closed = True
        for buffer in self.buffers:
            buffer.close()
        if not self._promised:
            self._release_ring()

    # -- introspection ------------------------------------------------------
    def any_full(self) -> Optional[TupleBuffer]:
        for buffer in self.buffers:
            if buffer.full and not buffer.closed:
                return buffer
        return None

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<FanOut {self.name} x{len(self.buffers)}>"
