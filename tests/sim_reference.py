"""The kernel's slow paths, kept as a test reference.

The kernel's wall-clock fast paths -- the now-queue for zero-delay
NORMAL entries and the channel's immediate-completion transfers -- must
be invisible to virtual time.  These are the paths they replaced: a
pure-heap ``Simulator.schedule`` and ``Channel.put`` / ``get`` that
route every transfer through the ``_balance`` matching loop.  The
differential tests patch them onto the two classes and compare.
"""

import contextlib
import heapq

import pytest

from repro.sim.kernel import NORMAL, Event, Simulator
from repro.sim.sync import Channel, ChannelClosed


def schedule(self, delay, callback, *args, priority=NORMAL):
    """``Simulator.schedule`` with every entry on the heap."""
    if delay < 0:
        raise ValueError(f"cannot schedule into the past (delay={delay})")
    self._seq += 1
    entry = [self._now + delay, priority, self._seq, callback, args, True]
    heapq.heappush(self._heap, entry)
    return entry


def put(self, item, size=1.0, owner=None):
    """``Channel.put`` that always queues and lets ``_balance`` match."""
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
    self._putters.append((event, item, size, owner))
    self._balance()
    return event


def get(self, owner=None):
    """``Channel.get`` that always queues and lets ``_balance`` match."""
    event = Event(self.sim)
    event.describe = self._get_wait
    self._getters.append((event, owner))
    if self._items or self._putters or self._closed:
        self._balance()
    return event


def install(monkeypatch):
    """Patch the reference paths onto ``Simulator`` and ``Channel``."""
    monkeypatch.setattr(Simulator, "schedule", schedule)
    monkeypatch.setattr(Channel, "put", put)
    monkeypatch.setattr(Channel, "get", get)


@contextlib.contextmanager
def reference_paths():
    """Run the block on the reference paths (usable under hypothesis,
    where a function-scoped ``monkeypatch`` fixture is not)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        install(monkeypatch)
        yield


def on_paths(fast):
    """The kernel's own paths (*fast*), or the reference ones."""
    return contextlib.nullcontext() if fast else reference_paths()
