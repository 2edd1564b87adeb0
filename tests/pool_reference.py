"""The eager µEngine worker pool, kept as a test reference.

A ``MicroEngine`` spawns its workers on demand: the k-th packet it
queues starts worker k-1 and hands it the packet, until the pool is
full.  This is the pool it replaced: every worker spawned when the
engine is built, parked on the queue in index order.  Its FIFO of parked
getters always offers a never-used worker first, so the two assign every
packet to the same worker at the same kernel entry; only the t=0
parking entries (one per worker) and the idle workers' processes differ.
The differential tests patch it onto ``MicroEngine`` and compare.
"""

from repro.engine.micro_engine import MicroEngine

_init = MicroEngine.__init__


def _parked_worker(self, index):
    """A worker born idle: it waits for its first packet."""
    packet = yield self.queue.get()
    yield from self._worker_loop(index, packet)


def __init__(self, name, engine, workers=16):
    """``MicroEngine.__init__`` that spawns the whole pool at once."""
    _init(self, name, engine, workers)
    # A full pool: ``enqueue`` never spawns, it always queues.
    self._worker_procs = [
        self.sim.spawn(_parked_worker(self, i), name=f"{name}-w{i}")
        for i in range(workers)
    ]


def install(monkeypatch):
    """Patch construction-time spawning onto ``MicroEngine``."""
    monkeypatch.setattr(MicroEngine, "__init__", __init__)
