"""The discrete-event simulation kernel: events, processes, and the clock.

The kernel follows the classic event-heap design.  A :class:`Simulator`
owns a priority queue of ``(time, priority, seq, callback)`` entries.
Processes are plain Python generators that ``yield`` awaitables
(:class:`Event` subclasses); the kernel resumes them with the event's value
via ``generator.send`` (or ``generator.throw`` on failure/interrupt).

Sub-coroutines compose with ``yield from``; the kernel never needs to know
about them because the outer generator transparently forwards their yields.

Wall-clock fast path (DESIGN.md section 10): the dominant scheduling
operation is the *zero-delay* entry -- every triggered event queues its
callback flush at the current time.  Those entries bypass the heap into a
FIFO *now-queue*: because the clock never moves backwards and sequence
numbers grow monotonically, the now-queue is already sorted by the
``(time, priority, seq)`` contract, so the run loop only has to compare
its front against the heap top to pop in exactly the order the pure heap
would have produced.  The pure-heap ``schedule`` lives on as a test
reference (``tests/sim_reference.py``); the differential tests patch it
in and assert byte-identical traces either way.
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from repro.obs.tracer import NULL_TRACER
from repro.sim.errors import Interrupted, SimulationError, StarvationError

#: Events scheduled with URGENT run before NORMAL ones at the same timestamp.
#: Used for interrupts so a killed process never executes another step.
URGENT = 0
NORMAL = 1

PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *untriggered*.  Calling :meth:`succeed` or :meth:`fail`
    triggers it exactly once; all registered callbacks then run at the
    current simulation time.  Processes wait on an event simply by yielding
    it from their generator.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "abandoned", "describe")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list] = []
        self._value: Any = PENDING
        self._ok = True
        #: Set when the last waiter deregistered (it was interrupted):
        #: nothing will ever resume from this event, so wait queues must
        #: not grant it a resource or deliver it an item.
        self.abandoned = False
        #: Optional description of what waiting on this event means ("get
        #: on channel X"): text, or an object whose ``str()`` is the text,
        #: so the hot paths never format it.  Starvation diagnostics use it.
        self.describe: Any = None

    @property
    def triggered(self) -> bool:
        """Whether the event has fired (value available)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event value read before the event fired")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering *value* to waiters."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._value = value
        sim = self.sim
        sim.schedule(0.0, sim._flush_event, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception; waiters have it thrown in."""
        if self.triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim.schedule(0.0, self.sim._flush_event, self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run *callback(event)* when the event fires.

        If the event has already been processed the callback is scheduled
        to run immediately (at the current simulation time) rather than
        being silently dropped.
        """
        if self.callbacks is not None:
            self.callbacks.append(callback)
        else:
            self.sim.schedule(0.0, callback, self)

    def remove_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.callbacks is not None and callback in self.callbacks:
            self.callbacks.remove(callback)
            if not self.callbacks:
                self.abandoned = True

    def __repr__(self):  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed virtual-time delay."""

    __slots__ = ("delay", "_payload", "_entry")

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Event.__init__ written out: one is built per buffer-pool hit.
        self.sim = sim
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self.abandoned = False
        self.describe = None
        self.delay = delay
        self._payload = value if value is not None else delay
        # Bypass succeed(): schedule the callback flush directly at now+delay.
        self._entry = sim.schedule(delay, self._flush)

    def _flush(self) -> None:
        self._value = self._payload
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)

    def remove_callback(self, callback) -> None:
        super().remove_callback(callback)
        if not self.callbacks:
            # Nobody is waiting any more (the waiter was interrupted):
            # drop the heap entry so the clock does not drain to the
            # orphaned deadline.
            self.sim.cancel(self._entry)


class AnyOf(Event):
    """Fires when the first of several events fires.

    The value is a dict mapping each *fired* event to its value (only the
    ones that have fired by the time the condition is processed).
    """

    __slots__ = ("_events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.triggered:
                self._on_fire(event)
                break
            event.add_callback(self._on_fire)

    def _on_fire(self, _event: Event) -> None:
        if self.triggered:
            return
        if not _event.ok:
            self.fail(_event.value)
            return
        self.succeed(
            {ev: ev.value for ev in self._events if ev.triggered and ev.ok}
        )


class AllOf(Event):
    """Fires when every one of several events has fired.

    The value is a dict mapping each event to its value.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.succeed({})
            return
        for event in self._events:
            if event.triggered:
                self._on_fire(event)
            else:
                event.add_callback(self._on_fire)

    def _on_fire(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed({ev: ev.value for ev in self._events})


class Process(Event):
    """A running coroutine; itself an event that fires on termination.

    The wrapped generator yields :class:`Event` instances.  When a yielded
    event fires, the kernel resumes the generator with the event's value
    (or throws the exception when the event failed).  When the generator
    returns, the process event succeeds with the return value; when it
    raises, the process event fails with the exception (and the simulation
    aborts if nobody is waiting on it, so bugs do not pass silently).
    """

    __slots__ = ("name", "generator", "_target", "_interrupts", "_wake")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator,
        name: str = "process",
    ):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        self.name = name
        self.generator = generator
        self._target: Optional[Event] = None
        self._interrupts: list = []
        #: The one callback this process ever registers: ``_resume`` bound
        #: once, not once per step.
        self._wake = self._resume
        sim.schedule(0.0, self._wake, None)

    @property
    def alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :exc:`Interrupted` into the process as soon as possible.

        A process may be interrupted while suspended on any event; the
        event's callback is deregistered so the process does not later
        resume twice.  Interrupting a terminated process is a no-op, which
        lets the OSP coordinator kill operator subtrees without racing
        against their natural completion.
        """
        if self.triggered:
            return
        self.sim.tracer.proc("interrupt", self.name)
        self._interrupts.append(Interrupted(cause))
        if self._target is not None:
            self._target.remove_callback(self._wake)
            self._target = None
            self.sim.schedule(0.0, self._deliver_interrupt, priority=URGENT)

    def _deliver_interrupt(self) -> None:
        if self.triggered or not self._interrupts:
            return
        self._throw(self._interrupts.pop(0))

    def _resume(self, event: Optional[Event]) -> None:
        """Advance the generator one step with *event*'s outcome and re-arm.

        This runs once per process step and is the kernel's single hottest
        call site: the send path is written out here in one frame and
        allocates nothing.  ``sim.active_process`` names this process
        while its generator runs (attribute writes only), so code deep
        inside an ``execute()`` coroutine can learn which process is
        driving it without threading the handle through every call
        signature.
        """
        if self._value is not PENDING:
            return
        self._target = None
        if self._interrupts:
            self._throw(self._interrupts.pop(0))
            return
        if event is None:
            payload = None
        elif event._ok:
            payload = event._value
        else:
            self._throw(event._value)
            return
        sim = self.sim
        prev = sim.active_process
        sim.active_process = self
        try:
            target = self.generator.send(payload)
        except BaseException as exc:
            sim.active_process = prev
            self._exit(exc)
            return
        sim.active_process = prev
        if isinstance(target, Event) and target.sim is sim:
            self._target = target
            callbacks = target.callbacks
            if callbacks is not None:
                callbacks.append(self._wake)
            else:
                sim.schedule(0.0, self._wake, target)
        else:
            self._bad_yield(target)

    def _throw(self, exc: BaseException) -> None:
        """The rare step: throw *exc* (interrupt, failed event) instead."""
        sim = self.sim
        prev = sim.active_process
        sim.active_process = self
        try:
            target = self.generator.throw(exc)
        except BaseException as raised:
            sim.active_process = prev
            self._exit(raised)
            return
        sim.active_process = prev
        if isinstance(target, Event) and target.sim is sim:
            self._target = target
            target.add_callback(self._wake)
        else:
            self._bad_yield(target)

    def _exit(self, exc: BaseException) -> None:
        """The generator ended by raising *exc*: settle the process event."""
        if isinstance(exc, StopIteration):
            self.succeed(exc.value)
        elif isinstance(exc, Interrupted):
            # An uncaught interrupt is a normal way for a process to die:
            # the process event succeeds with None rather than failing.
            self._ok = True
            self._value = None
            self.sim.schedule(0.0, self.sim._flush_event, self)
        else:
            self.fail(exc)
            self.sim._register_crash(self, exc)

    def _bad_yield(self, target: Any) -> None:
        if isinstance(target, Event):
            error = SimulationError("event belongs to a different simulator")
        else:
            error = TypeError(f"{self.name} yielded non-event {target!r}")
        self.fail(error)
        self.sim._register_crash(self, error)

    def __repr__(self):  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name} {state}>"


class Simulator:
    """The virtual clock and event loop.

    Typical use::

        sim = Simulator()

        def worker():
            yield sim.timeout(5.0)
            return "done"

        proc = sim.spawn(worker(), name="worker")
        sim.run()
        assert sim.now == 5.0 and proc.value == "done"
    """

    #: Compact the queues once at least this many cancelled entries are
    #: pending *and* they outnumber the live ones (see :meth:`cancel`).
    COMPACT_MIN_DEAD = 64

    def __init__(self):
        self._now = 0.0
        self._heap: list = []
        #: Zero-delay NORMAL entries in FIFO order.  Appended at the
        #: current time with monotonically growing sequence numbers, the
        #: queue is inherently sorted by ``(time, priority, seq)``; the
        #: run loop merges it against the heap top, so draining it first
        #: is exactly order-preserving (no heap round-trip per entry).
        self._now_queue: deque = deque()
        self._seq = 0
        self._dead = 0  # lazily-cancelled entries still queued
        self._crashes: list = []
        self.process_count = 0
        #: The process whose generator is currently being stepped (None
        #: between steps).  Lets coroutine-shaped engine entry points
        #: (e.g. IteratorEngine.execute) learn their own driving process so
        #: an abort can interrupt it.
        self.active_process = None
        #: Observability hook; replaced by :class:`repro.obs.Tracer` when
        #: tracing is on.  The null tracer's hooks are allocation-free.
        self.tracer = NULL_TRACER

    @property
    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self._now

    @property
    def idle(self) -> bool:
        """Whether no live entry is queued: unless the running callback
        schedules one, nothing will ever run again."""
        return len(self._heap) + len(self._now_queue) == self._dead

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable,
        *args: Any,
        priority: int = NORMAL,
    ) -> list:
        """Run ``callback(*args)`` after *delay* virtual seconds.

        Returns an opaque entry token that :meth:`cancel` accepts.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        entry = [self._now + delay, priority, self._seq, callback, args, True]
        if delay == 0.0 and priority == NORMAL:
            self._now_queue.append(entry)
        else:
            heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, entry: list) -> None:
        """Cancel a scheduled callback (lazy deletion; no clock effect).

        Dead entries are counted and the queues compacted once they
        outnumber the live ones, so cancel-heavy workloads (chaos runs,
        impatient puts) cannot grow the heap without bound.
        """
        if entry[5]:
            entry[5] = False
            self._dead += 1
            if (
                self._dead >= self.COMPACT_MIN_DEAD
                and self._dead * 2 > len(self._heap) + len(self._now_queue)
            ):
                self._compact()

    def _compact(self) -> None:
        """Drop lazily-cancelled entries from both queues.

        In place: the run loop holds references to the two containers.
        Filtering preserves relative order, and re-heapifying a set of
        entries with unique ``(time, priority, seq)`` keys reproduces the
        exact pop order of the unfiltered heap, so compaction is
        invisible to virtual time.
        """
        self._heap[:] = [e for e in self._heap if e[5]]
        heapq.heapify(self._heap)
        live = [e for e in self._now_queue if e[5]]
        self._now_queue.clear()
        self._now_queue.extend(live)
        self._dead = 0

    @staticmethod
    def _flush_event(event: Event) -> None:
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

    def _register_crash(self, process: Process, exc: BaseException) -> None:
        self._crashes.append((process, exc))

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def spawn(self, generator: Generator, name: str = "process") -> Process:
        """Start a new process running *generator*."""
        self.process_count += 1
        process = Process(self, generator, name=f"{name}#{self.process_count}")
        self.tracer.proc("spawn", process.name)
        return process

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing *delay* virtual seconds from now."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def run(self, until: Optional[float] = None) -> float:
        """Run the event loop.

        Runs until the heap drains, or until virtual time reaches *until*
        (events at exactly ``until`` still execute).  If any process died
        with an unhandled exception the first such exception is re-raised
        so failures never pass silently.

        Returns the final virtual time.
        """
        heap = self._heap
        nowq = self._now_queue
        heappop = heapq.heappop
        popleft = nowq.popleft
        crashes = self._crashes
        while True:
            # Pop whichever front is smaller by (time, priority, seq) --
            # the now-queue is FIFO-sorted by construction, so this
            # reproduces the pure heap's order exactly.
            if nowq and not (heap and heap[0] < nowq[0]):
                entry = popleft()
            elif heap:
                entry = heappop(heap)
            else:
                break
            if not entry[5]:
                # Lazily cancelled: dropped without touching the clock.
                self._dead -= 1
                continue
            if until is not None and entry[0] > until:
                # Not due in this run: back it goes (the merge is by key,
                # so the heap is the right home whichever queue it left).
                heapq.heappush(heap, entry)
                self._now = until
                break
            # Mark executed so a late cancel() is a no-op for accounting.
            entry[5] = False
            self._now = entry[0]
            entry[3](*entry[4])
            if crashes:
                process, exc = crashes[0]
                raise SimulationError(
                    f"process {process.name} crashed at t={self._now:.3f}"
                ) from exc
        return self._now

    def run_until_done(self, watched: Iterable[Process]) -> float:
        """Run until every process in *watched* has terminated.

        Raises :exc:`StarvationError` when the event heap drains while a
        watched process is still alive (a kernel-level deadlock).  The
        message names what each stuck process waits on, then what every
        other process still blocked waits on -- often the cause (a lock
        the watched query's scan waits for, say).
        """
        watched = list(watched)
        final = self.run()
        stuck = [p for p in watched if p.alive]
        if stuck:
            details = "; ".join(self._describe_blocked(p) for p in stuck)
            # Found only now, on the failure path: the kernel keeps no
            # registry of processes.
            others = sorted(
                (
                    obj for obj in gc.get_objects()
                    if isinstance(obj, Process) and obj.sim is self
                    and obj.alive and obj not in stuck
                ),
                key=lambda p: p.name,
            )
            if others:
                details += "; also blocked: " + "; ".join(
                    self._describe_blocked(p) for p in others
                )
            raise StarvationError(
                f"simulation drained at t={final:.3f} with "
                f"{len(stuck)} live process(es): {details}"
            )
        return final

    @staticmethod
    def _describe_blocked(process: Process) -> str:
        """Name a stuck process and what it is blocked on."""
        target = process._target
        if target is None:
            return f"{process.name} (not waiting on any event)"
        what = target.describe
        if what is None:
            if isinstance(target, Timeout):
                what = f"timeout({target.delay})"
            elif isinstance(target, Process):
                what = f"process {target.name}"
            else:
                what = type(target).__name__
        return f"{process.name} waiting on {what}"
