"""Synchronisation primitives in virtual time.

These are the building blocks for QPipe's producer/consumer plumbing:

* :class:`Channel` -- a bounded FIFO; the paper's "intermediate buffers"
  that regulate dataflow between micro-engines are built on it.
* :class:`Resource` -- a counted resource with a FIFO wait queue; the disk
  and the CPU cores are Resources.
* :class:`Gate` -- a broadcast open/close latch; used for the late-activation
  policy of scan packets (section 4.3.1).
* :class:`Semaphore`, :class:`Lock` -- classic shapes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.sim.errors import SimulationError
from repro.sim.kernel import PENDING, Event, Simulator


def _abandoned(event: Event) -> bool:
    """True when nobody will ever resume from *event*.

    A process interrupted while suspended deregisters its callback but
    its wait-queue entry survives; granting such an entry would leak the
    resource (or deliver an item) to a dead process.
    """
    return event.triggered or event.abandoned


class ChannelClosed(SimulationError):
    """Raised by a drained ``get`` (or any ``put``) on a closed channel."""


class _Parked:
    """What a party blocked on a channel waits for, as ``Event.describe``:
    built once per channel and side, formatted only by diagnostics."""

    __slots__ = ("_side", "_channel")

    def __init__(self, side: str, channel: "Channel"):
        self._side = side
        self._channel = channel

    def __str__(self) -> str:
        return f"{self._side} on channel {self._channel.name}"


class Channel:
    """A bounded FIFO queue of items, each with a size in abstract units.

    ``put`` returns an event that fires once the item has been accepted
    (possibly after blocking while the channel is full); ``get`` returns an
    event that fires with the next item.  Closing the channel lets pending
    and future ``get`` calls drain the remaining items, after which they
    fail with :exc:`ChannelClosed`.

    The channel exposes its instantaneous state (``empty`` / ``full`` and
    the identities of blocked producers and consumers) because the OSP
    deadlock detector (paper section 4.3.3) builds its waits-for graph
    from exactly this information.

    Fast paths (DESIGN.md section 10): when the peer side is not blocked
    -- a put with free space and no queued producers, a get with a ready
    item and no queued consumers -- the transfer completes immediately
    without entering the :meth:`_balance` matching loop.  The returned
    event is triggered with the same sequence number `_balance` would
    have assigned, so wakeup order is byte-identical either way (the
    `_balance`-only reference lives in ``tests/sim_reference.py``).  An
    item offered while consumers are parked (the buffer is then empty)
    goes straight to the longest-parked live one, as `_balance` would.
    """

    __slots__ = (
        "sim", "capacity", "name", "_items", "_used", "_putters",
        "_getters", "_closed", "total_put", "total_got",
        "_put_wait", "_get_wait",
    )

    def __init__(self, sim: Simulator, capacity: float, name: str = "chan"):
        if capacity <= 0:
            raise ValueError(f"channel capacity must be positive: {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: deque = deque()  # (item, size)
        self._used = 0.0
        self._putters: deque = deque()  # (event, item, size, owner)
        self._getters: deque = deque()  # (event, owner)
        self._closed = False
        self._put_wait = _Parked("put", self)
        self._get_wait = _Parked("get", self)
        # Cumulative statistics for the harness.
        self.total_put = 0
        self.total_got = 0

    # -- state inspection (used by the deadlock detector) ---------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def empty(self) -> bool:
        return not self._items

    @property
    def full(self) -> bool:
        return self._used >= self.capacity

    @property
    def level(self) -> float:
        return self._used

    @property
    def producer_blocked(self) -> bool:
        """A producer is parked here because the channel is full."""
        return bool(self._putters) and self._used >= self.capacity

    def blocked_producers(self) -> list:
        return [owner for (_e, _i, _s, owner) in self._putters]

    def blocked_consumers(self) -> list:
        return [owner for (_e, owner) in self._getters]

    # -- operations ------------------------------------------------------
    def put(self, item: Any, size: float = 1.0, owner: Any = None) -> Event:
        """Enqueue *item*; the returned event fires once accepted."""
        event = Event(self.sim)
        event.describe = self._put_wait
        if self._closed:
            event.fail(ChannelClosed(f"put on closed channel {self.name}"))
            return event
        if size > self.capacity:
            event.fail(
                ValueError(
                    f"item size {size} exceeds capacity {self.capacity} "
                    f"of channel {self.name}"
                )
            )
            return event
        if not self._putters and self._used + size <= self.capacity:
            # Fast path: space is free and nobody is queued ahead, so
            # `_balance` would accept this put first thing.  Succeed in the
            # same order it would have: accept the item, then serve the
            # blocked consumer the new item unblocks.
            event.succeed()
            if not (self._getters and self._hand_off(item)):
                self._items.append((item, size))
                self._used += size
                self.total_put += 1
            return event
        self._putters.append((event, item, size, owner))
        self._balance()
        return event

    def get(self, owner: Any = None) -> Event:
        """Dequeue the next item; the returned event fires with it."""
        event = Event(self.sim)
        event.describe = self._get_wait
        if self._items and not self._getters:
            # Fast path: an item is ready and no consumer is queued ahead,
            # so `_balance` would serve this get immediately.  Freed space
            # may in turn admit a blocked producer, in that order.  A dead
            # producer at the head of the queue may hide one that already
            # fits; `_balance` admits that one before serving any get.
            if self._putters and _abandoned(self._putters[0][0]):
                self._balance()
            item, size = self._items.popleft()
            self._used -= size
            self.total_got += 1
            event.succeed(item)
            if self._putters:
                self._balance()
            return event
        self._getters.append((event, owner))
        if self._items or self._putters or self._closed:
            self._balance()  # else parking on an empty buffer moves nothing
        return event

    def cancel_put(self, event: Event) -> bool:
        """Withdraw a still-pending put (impatient producers).

        Returns True when the put was withdrawn; False when it had
        already been accepted (too late to cancel).
        """
        if event.triggered:
            return False
        for entry in self._putters:
            if entry[0] is event:
                self._putters.remove(entry)
                # A smaller put queued behind the withdrawn one may fit now.
                self._balance()
                return True
        return False

    def try_put(self, item: Any, size: float = 1.0) -> bool:
        """Non-blocking put; returns False instead of waiting."""
        if self._closed or self._used + size > self.capacity or self._putters:
            return False
        if not (self._getters and self._hand_off(item)):
            self._items.append((item, size))
            self._used += size
            self.total_put += 1
        return True

    def close(self) -> None:
        """Close the channel; drains remaining items to future getters."""
        if self._closed:
            return
        self._closed = True
        # Producers still blocked lose: they can never deliver.
        while self._putters:
            event, _item, _size, _owner = self._putters.popleft()
            event.fail(ChannelClosed(f"channel {self.name} closed under put"))
        self._balance()

    def force_capacity(self, capacity: float) -> None:
        """Grow the capacity in place (deadlock-resolution materialisation).

        The deadlock detector resolves a pipeline deadlock by effectively
        materialising one buffer: here that means removing its back-pressure
        by granting it (near-)unbounded capacity.
        """
        if capacity < self.capacity:
            raise ValueError("capacity can only be grown, never shrunk")
        self.capacity = capacity
        self._balance()

    # -- internal ---------------------------------------------------------
    def _hand_off(self, item: Any) -> bool:
        """Give an accepted *item* to the longest-parked live consumer.

        Consumers park only on an empty buffer, so this is the item
        `_balance` would append and at once pop for that consumer.
        """
        getters = self._getters
        while getters:
            event, _owner = getters.popleft()
            if event._value is PENDING and not event.abandoned:
                self.total_put += 1
                self.total_got += 1
                event.succeed(item)
                return True
        return False

    def _balance(self) -> None:
        """Match blocked producers/consumers against the buffer state."""
        progress = True
        while progress:
            progress = False
            # Move waiting puts into the buffer while space remains.
            while self._putters:
                event, item, size, _owner = self._putters[0]
                if _abandoned(event):
                    # Producer died while blocked: its item is withdrawn.
                    self._putters.popleft()
                    progress = True
                    continue
                if self._used + size > self.capacity:
                    break
                self._putters.popleft()
                self._items.append((item, size))
                self._used += size
                self.total_put += 1
                event.succeed()
                progress = True
            # Serve waiting gets from the buffer.
            while self._getters and self._items:
                event, _owner = self._getters.popleft()
                if _abandoned(event):
                    continue
                item, size = self._items.popleft()
                self._used -= size
                self.total_got += 1
                event.succeed(item)
                progress = True
        if self._closed and not self._items:
            while self._getters:
                event, _owner = self._getters.popleft()
                event.fail(ChannelClosed(f"channel {self.name} drained"))

    def __repr__(self):  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"<Channel {self.name} {state} {self._used}/{self.capacity} "
            f"items={len(self._items)}>"
        )


class _Grant(Event):
    """A ``request()`` grant that hands its unit back if nobody takes it.

    An uncontended grant is triggered at once but its requester only
    resumes after the now-queue flush; a requester interrupted in that
    gap never reaches its ``try:``, so the unit must come back here.
    """

    __slots__ = ("_resource",)

    def __init__(self, resource: "Resource"):
        Event.__init__(self, resource.sim)
        self._resource = resource
        self.describe = resource  # formatted only by diagnostics

    def remove_callback(self, callback) -> None:
        Event.remove_callback(self, callback)
        if self.abandoned and self.triggered and not self.processed:
            self._resource.release()


class _Hold(Event):
    """One whole service on a resource: grant, occupy, release."""

    __slots__ = ("_resource", "_duration", "_entry")

    def __init__(self, resource: "Resource", duration: Any):
        # Event.__init__ written out: one is built per device service.
        self.sim = resource.sim
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self.abandoned = False
        self.describe = resource  # formatted only by diagnostics
        self._resource = resource
        self._duration = duration
        #: The completion's kernel entry while the unit is held.
        self._entry: Optional[list] = None

    def remove_callback(self, callback) -> None:
        Event.remove_callback(self, callback)
        if self.abandoned and self._entry is not None:
            # Interrupted mid-service: the unit comes back at this instant
            # (a hold abandoned while still queued is skipped by release()).
            entry, self._entry = self._entry, None
            self.sim.cancel(entry)
            self._resource.release()


class Resource:
    """A counted resource with a FIFO wait queue (e.g. disk, CPU cores).

    A device service is one event (DESIGN.md section 10)::

        service = yield resource.hold(service_time)

    The three-step form shares the same queue, for holders that do more
    than wait while they own the unit::

        grant = yield resource.request()
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release(grant)
    """

    __slots__ = (
        "sim", "capacity", "name", "_in_use", "_waiters",
        "total_acquisitions", "busy_time", "_last_change",
    )

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"resource capacity must be >= 1: {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: deque = deque()
        self.total_acquisitions = 0
        self.busy_time = 0.0
        self._last_change = 0.0

    def __str__(self) -> str:
        return f"resource {self.name}"

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def _account(self) -> None:
        now = self.sim._now
        self.busy_time += self._in_use * (now - self._last_change)
        self._last_change = now

    def request(self) -> Event:
        """Acquire one unit; the returned event fires with a grant token."""
        event = _Grant(self)
        if self._in_use < self.capacity and not self._waiters:
            self._account()
            self._in_use += 1
            self.total_acquisitions += 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def hold(self, duration: Any) -> Event:
        """Occupy one unit for *duration* virtual seconds, queueing FIFO.

        The whole service is ONE kernel entry, scheduled when the unit is
        granted: when it fires the unit is released (which starts the
        next waiter's service at that instant) and then the holder
        resumes with the service time as the event's value.  *duration*
        may be a callable; it is evaluated at grant time, so a device
        model sees its state as of the hand-over, not as of the queueing.
        Abandoning the event (an interrupt while queued or mid-service)
        gives the unit back at that instant -- no ``finally`` needed.
        """
        event = _Hold(self, duration)
        if self._in_use < self.capacity and not self._waiters:
            # _account() written out: an uncontended grant is
            # `hold -> schedule` and nothing else.
            sim = self.sim
            now = sim._now
            self.busy_time += self._in_use * (now - self._last_change)
            self._last_change = now
            self._in_use += 1
            self.total_acquisitions += 1
            if callable(duration):
                duration = event._duration = duration()
            event._entry = sim.schedule(duration, self._complete, event)
        else:
            self._waiters.append(event)
        return event

    def _complete(self, event: _Hold) -> None:
        event._entry = None
        if self._waiters or self._in_use <= 0:
            self.release()
        else:
            # release() with nobody queued, written out.
            now = self.sim._now
            self.busy_time += self._in_use * (now - self._last_change)
            self._last_change = now
            self._in_use -= 1
        event._value = event._duration
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

    def release(self, _grant: Any = None) -> None:
        """Release one unit, waking the longest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name}")
        self._account()
        self._in_use -= 1
        while self._waiters:
            event = self._waiters.popleft()
            if event._value is not PENDING or event.abandoned:
                continue  # waiter was interrupted and gave up
            self._in_use += 1
            self.total_acquisitions += 1
            if event.__class__ is _Hold:
                # A queued hold's service starts now: its one kernel entry.
                duration = event._duration
                if callable(duration):
                    duration = event._duration = duration()
                event._entry = self.sim.schedule(
                    duration, self._complete, event
                )
            else:
                event.succeed(self)
            break

    def utilization(self) -> float:
        """Time-averaged utilisation in [0, capacity]."""
        self._account()
        if self.sim.now == 0:
            return 0.0
        return self.busy_time / self.sim.now


class Gate:
    """A broadcast latch: processes wait until the gate is opened.

    Opening is sticky; a wait on an already-open gate completes
    immediately.  The scan micro-engine's *late activation* policy parks
    scan packets on a gate that opens when their output buffer is ready.
    """

    __slots__ = ("sim", "_open", "_waiters")

    def __init__(self, sim: Simulator, opened: bool = False):
        self.sim = sim
        self._open = opened
        self._waiters: list = []

    @property
    def is_open(self) -> bool:
        return self._open

    def wait(self) -> Event:
        event = Event(self.sim)
        event.describe = "gate"
        if self._open:
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def open(self) -> None:
        if self._open:
            return
        self._open = True
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            if not event.triggered:
                event.succeed()


class Semaphore:
    """A counting semaphore with FIFO wakeup."""

    __slots__ = ("sim", "_value", "_waiters")

    #: ``Event.describe`` of a blocked acquire.
    _WAIT = "semaphore"

    def __init__(self, sim: Simulator, value: int = 1):
        if value < 0:
            raise ValueError(f"semaphore value must be >= 0: {value}")
        self.sim = sim
        self._value = value
        self._waiters: deque = deque()

    @property
    def value(self) -> int:
        return self._value

    def acquire(self) -> Event:
        event = Event(self.sim)
        event.describe = self._WAIT
        if self._value > 0 and not self._waiters:
            self._value -= 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        while self._waiters:
            event = self._waiters.popleft()
            if _abandoned(event):
                continue
            event.succeed()
            return
        self._value += 1


class Lock(Semaphore):
    """A mutex (binary semaphore)."""

    __slots__ = ()

    _WAIT = "lock"

    def __init__(self, sim: Simulator):
        super().__init__(sim, value=1)
