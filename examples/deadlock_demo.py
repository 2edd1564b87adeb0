#!/usr/bin/env python3
"""Pipeline deadlock detection and resolution (section 4.3.3).

Simultaneous pipelining forms a shared dataflow graph across queries;
crossed producer/consumer dependencies can deadlock (the two-scan
scenario of section 3.3).  This demo builds the crossed dependency
directly from engine buffers, lets it wedge, and shows the waits-for
deadlock detector resolve it by materialising one buffer.

Run:  python examples/deadlock_demo.py
"""

from repro.engine.buffers import TupleBuffer
from repro.osp.deadlock import DeadlockDetector
from repro.osp.stats import OspStats
from repro.sim import Simulator


class MiniEngine:
    """The minimal engine surface the detector needs."""

    def __init__(self, sim):
        self.sim = sim
        self.osp_stats = OspStats()
        self.buffers = []
        self.active_queries = 1

    def live_buffers(self):
        return [b for b in self.buffers if not b.closed]


def main() -> None:
    sim = Simulator()
    engine = MiniEngine(sim)

    # Producer X feeds consumer Y through two buffers with crossed
    # ordering requirements: X insists on finishing b1 before touching
    # b2, while Y insists on reading b2 first.
    b1 = TupleBuffer(sim, capacity_tuples=4, name="b1", producer="X",
                     consumer="Y")
    b2 = TupleBuffer(sim, capacity_tuples=4, name="b2", producer="X",
                     consumer="Y")
    engine.buffers += [b1, b2]
    log = []

    def producer_x():
        yield from b1.put([("r", i) for i in range(4)])
        log.append((sim.now, "X filled b1"))
        yield from b1.put([("r", 99)])  # blocks: b1 full, Y not reading
        log.append((sim.now, "X finished b1 (unblocked!)"))
        yield from b2.put([("s", 0)])
        b1.close()
        b2.close()
        log.append((sim.now, "X done"))

    def consumer_y():
        batch = yield from b2.get()  # blocks: b2 empty -- the cross
        log.append((sim.now, f"Y got b2 batch {batch}"))
        while True:
            batch = yield from b1.get()
            if batch is None:
                break
        log.append((sim.now, "Y done"))

    px = sim.spawn(producer_x(), name="X")
    py = sim.spawn(consumer_y(), name="Y")

    detector = DeadlockDetector(engine)

    def watchdog():
        yield sim.timeout(1.0)
        print("t=1.0s: both processes wedged; running the detector...")
        cycle = detector.check_once()
        if cycle:
            names = ", ".join(b.name for b in cycle)
            print(f"  waits-for cycle found; candidate buffers: {names}")
            print(f"  resolved by materialising "
                  f"'{detector.resolved[0]}' "
                  "(its back-pressure is removed, as if spilled to disk)")

    sim.spawn(watchdog(), name="watchdog")
    sim.run_until_done([px, py])

    print("\nevent log:")
    for t, message in log:
        print(f"  t={t:4.1f}s  {message}")
    print(f"\ndeadlocks resolved: {engine.osp_stats.deadlocks_resolved}")


if __name__ == "__main__":
    main()
