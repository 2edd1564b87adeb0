"""Pipeline-deadlock detection and resolution (section 4.3.3).

The crossed-dependency scenario of section 3.3 is built directly from
buffers: producer and consumer wait on each other through two buffers,
and the detector must materialise one of them to break the loop.
"""

import pytest

from repro.engine.buffers import TupleBuffer
from repro.osp.deadlock import DeadlockDetector
from repro.osp.stats import OspStats
from repro.sim import Simulator


class StubEngine:
    """Just enough engine surface for the detector."""

    def __init__(self, sim):
        self.sim = sim
        self.osp_stats = OspStats()
        self._buffers = []
        self.active_queries = 1

    def register_buffer(self, buf):
        self._buffers.append(buf)

    def live_buffers(self):
        return [b for b in self._buffers if not b.closed]


def make_stub():
    sim = Simulator()
    return sim, StubEngine(sim)


def test_no_cycle_no_action():
    sim, engine = make_stub()
    buf = TupleBuffer(sim, capacity_tuples=4, producer="P", consumer="C")
    engine.register_buffer(buf)
    detector = DeadlockDetector(engine)
    assert detector.check_once() is None
    assert engine.osp_stats.deadlocks_resolved == 0


def test_crossed_waits_resolve_by_materialisation():
    """X blocked putting to b1 (full), Y blocked getting from b2 (empty)
    where X is also b2's producer -> cycle X->Y->X."""
    sim, engine = make_stub()
    b1 = TupleBuffer(sim, 2, name="b1", producer="X", consumer="Y")
    b2 = TupleBuffer(sim, 2, name="b2", producer="X", consumer="Y")
    engine.register_buffer(b1)
    engine.register_buffer(b2)
    done = []

    def x():
        # Fill b1 beyond capacity, blocking; only then feed b2.
        yield from b1.put([(1,), (2,)])
        yield from b1.put([(3,)])  # blocks: b1 full, Y not reading yet
        yield from b2.put([(9,)])
        done.append(("x", sim.now))

    def y():
        # Needs b2 first -- the crossed order.
        batch = yield from b2.get()
        done.append(("y-got-b2", batch))
        while True:
            batch = yield from b1.get()
            if batch is None:
                break
        done.append(("y", sim.now))

    px = sim.spawn(x())
    py = sim.spawn(y())
    detector = DeadlockDetector(engine)
    engine_detector_ran = []

    def run_detector():
        yield sim.timeout(1.0)
        engine_detector_ran.append(detector.check_once())
        b1.close()  # let Y terminate after X finished

    sim.spawn(run_detector())
    sim.run()
    # The detector found and resolved the cycle...
    assert engine_detector_ran[0] is not None
    assert engine.osp_stats.deadlocks_resolved == 1
    # ...and both processes completed.
    assert ("x", 1.0) in done
    assert any(tag == "y" for tag, _ in done)


def test_empty_buffer_edges_alone_skip_the_cycle_search(monkeypatch):
    """Consumers starved in a ring form a waits-for cycle with nothing to
    materialise: the sweep must answer None without running the DFS."""
    sim, engine = make_stub()
    ab = TupleBuffer(sim, 2, name="ab", producer="A", consumer="B")
    ba = TupleBuffer(sim, 2, name="ba", producer="B", consumer="A")
    engine.register_buffer(ab)
    engine.register_buffer(ba)

    def starve(buf):
        yield from buf.get()

    sim.spawn(starve(ab))
    sim.spawn(starve(ba))
    sim.run()
    assert ab.blocked_consumers() and ba.blocked_consumers()
    detector = DeadlockDetector(engine)
    monkeypatch.setattr(
        DeadlockDetector,
        "_find_cycle",
        staticmethod(
            lambda edges: pytest.fail("cycle search ran without a candidate")
        ),
    )
    assert detector.check_once() is None
    assert engine.osp_stats.deadlocks_resolved == 0 and not detector.resolved


def test_victim_is_cheapest_buffer():
    """Among cycle candidates the least-full buffer is materialised."""
    sim, engine = make_stub()
    # Two full buffers on the cycle with different levels.
    big = TupleBuffer(sim, 10, name="big", producer="X", consumer="Y")
    small = TupleBuffer(sim, 2, name="small", producer="Y", consumer="X")
    engine.register_buffer(big)
    engine.register_buffer(small)

    def x():
        yield from big.put([(i,) for i in range(10)])
        yield from big.put([(99,)])  # blocks

    def y():
        yield from small.put([(1,), (2,)])
        yield from small.put([(3,)])  # blocks

    def x_reader():
        # X also waits on small being... actually both are blocked
        # producers; complete the cycle via consumer edges by never
        # reading.  The graph is X -> Y (big full) and Y -> X (small
        # full): a two-node cycle of producers.
        return
        yield

    sim.spawn(x())
    sim.spawn(y())
    detector = DeadlockDetector(engine)

    def run_detector():
        yield sim.timeout(1.0)
        detector.check_once()

    sim.spawn(run_detector())
    sim.run()
    assert detector.resolved == [small.name]


def test_detector_parks_when_idle():
    sim, engine = make_stub()
    engine.active_queries = 0
    detector = DeadlockDetector(engine)
    detector.ensure_running()
    sim.run()
    assert sim.now < 1.0  # the loop exited without periodic wakeups


def test_three_packet_cycle_detected_and_resolved():
    """A waits-for loop spanning three packets (A -> B -> C -> A) --
    strictly longer than the crossed-pair case -- must be found and
    broken by materialising the cheapest buffer on it."""
    sim, engine = make_stub()
    # ab full: A waits for B.  bc full: B waits for C.  ca full: C
    # waits for A.  Distinct levels make the victim deterministic.
    ab = TupleBuffer(sim, 6, name="ab", producer="A", consumer="B")
    bc = TupleBuffer(sim, 4, name="bc", producer="B", consumer="C")
    ca = TupleBuffer(sim, 2, name="ca", producer="C", consumer="A")
    for buf in (ab, bc, ca):
        engine.register_buffer(buf)

    def a():
        yield from ab.put([(i,) for i in range(6)])
        yield from ab.put([(99,)])  # blocks: ab full, B not reading

    def b():
        yield from bc.put([(i,) for i in range(4)])
        yield from bc.put([(99,)])  # blocks: bc full, C not reading

    def c():
        yield from ca.put([(1,), (2,)])
        yield from ca.put([(99,)])  # blocks: ca full, A not reading

    sim.spawn(a())
    sim.spawn(b())
    sim.spawn(c())
    detector = DeadlockDetector(engine)
    found = []

    def run_detector():
        yield sim.timeout(1.0)
        found.append(detector.check_once())

    sim.spawn(run_detector())
    sim.run()
    # All three full buffers lie on the cycle; the emptiest one (ca,
    # level 2) is the materialisation victim.
    assert found[0] is not None and len(found[0]) == 3
    assert detector.resolved == [ca.name]
    assert engine.osp_stats.deadlocks_resolved == 1


def test_three_packet_chain_without_back_edge_is_no_deadlock():
    """The same A -> B -> C chain with no C -> A edge must not trigger."""
    sim, engine = make_stub()
    ab = TupleBuffer(sim, 4, name="ab", producer="A", consumer="B")
    bc = TupleBuffer(sim, 4, name="bc", producer="B", consumer="C")
    engine.register_buffer(ab)
    engine.register_buffer(bc)

    def a():
        yield from ab.put([(i,) for i in range(4)])
        yield from ab.put([(99,)])  # blocks, but C is not waiting on A

    sim.spawn(a())
    detector = DeadlockDetector(engine)
    found = []

    def run_detector():
        yield sim.timeout(1.0)
        found.append(detector.check_once())

    sim.spawn(run_detector())
    sim.run()
    assert found == [None]
    assert engine.osp_stats.deadlocks_resolved == 0


def test_deadlock_resolution_emits_trace_event():
    """With a Tracer installed, resolving a cycle records an osp event
    carrying the victim buffer and the cycle size."""
    from repro.obs import Tracer

    sim, engine = make_stub()
    tracer = Tracer(sim)
    b1 = TupleBuffer(sim, 2, name="b1", producer="X", consumer="Y")
    b2 = TupleBuffer(sim, 2, name="b2", producer="Y", consumer="X")
    engine.register_buffer(b1)
    engine.register_buffer(b2)

    def x():
        yield from b1.put([(1,), (2,)])
        yield from b1.put([(3,)])  # blocks

    def y():
        yield from b2.put([(1,), (2,)])
        yield from b2.put([(3,)])  # blocks

    sim.spawn(x())
    sim.spawn(y())

    def run_detector():
        yield sim.timeout(1.0)
        DeadlockDetector(engine).check_once()

    sim.spawn(run_detector())
    sim.run()
    events = [e for e in tracer.events if e["type"] == "osp.deadlock_resolved"]
    assert len(events) == 1
    assert events[0]["buffer"] in ("b1", "b2")
    assert events[0]["cycle_size"] == 2


def test_materialised_buffer_accepts_unbounded_puts():
    sim, engine = make_stub()
    buf = TupleBuffer(sim, 2, producer="P", consumer="C")
    buf.materialize()
    times = []

    def producer():
        for i in range(100):
            yield from buf.put([(i,)])
        times.append(sim.now)

    sim.spawn(producer())
    sim.run()
    assert times == [0.0]
