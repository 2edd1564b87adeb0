"""Discrete-event simulation kernel.

This package is the substrate that replaces native OS threads from the
paper's C++ prototype.  Every QPipe worker thread, scanner thread, client,
and disk request becomes a cooperative :class:`~repro.sim.kernel.Process`
(a Python generator) scheduled on a virtual clock.  The simulation is fully
deterministic: given the same seed and workload, every run produces
identical virtual timings, which is what makes the paper's
interarrival-time sweeps reproducible bit-for-bit.

Public surface:

* :class:`Simulator` -- the event loop and virtual clock.
* :class:`Process` -- a running coroutine; also awaitable.
* :class:`Event`, :class:`Timeout` -- primitive awaitables.
* :exc:`Interrupted` -- raised inside a process that another process killed.
* Synchronisation: :class:`Channel`, :class:`Resource`, :class:`Gate`,
  :class:`Semaphore`, :class:`Lock`.
"""

from repro.sim.errors import Interrupted, SimulationError, StarvationError
from repro.sim.kernel import (
    AllOf,
    AnyOf,
    Event,
    Process,
    Simulator,
    Timeout,
)
from repro.sim.sync import (
    Channel,
    ChannelClosed,
    Gate,
    Lock,
    Resource,
    Semaphore,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Channel",
    "ChannelClosed",
    "Event",
    "Gate",
    "Interrupted",
    "Lock",
    "Process",
    "Resource",
    "Semaphore",
    "SimulationError",
    "StarvationError",
    "Simulator",
    "Timeout",
]
