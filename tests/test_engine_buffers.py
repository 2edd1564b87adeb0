"""Unit tests for TupleBuffer and FanOut (the OSP plumbing)."""

import pytest

from repro.engine.buffers import SEGMENT_BOUNDARY, FanOut, TupleBuffer
from repro.sim import ChannelClosed, Simulator


def drive(sim, gen):
    proc = sim.spawn(gen)
    sim.run()
    return proc.value


# ---------------------------------------------------------------------------
# TupleBuffer
# ---------------------------------------------------------------------------
def test_put_get_roundtrip():
    sim = Simulator()
    buf = TupleBuffer(sim, 16)

    def producer():
        yield from buf.put([(1,), (2,)])
        buf.close()

    def consumer():
        rows = yield from buf.drain()
        return rows

    sim.spawn(producer())
    assert drive(sim, consumer()) == [(1,), (2,)]
    assert buf.tuples_in == 2 and buf.tuples_out == 2


def test_oversized_batches_are_chunked():
    sim = Simulator()
    buf = TupleBuffer(sim, 4)
    got = []

    def producer():
        yield from buf.put([(i,) for i in range(10)])
        buf.close()

    def consumer():
        while True:
            batch = yield from buf.get()
            if batch is None:
                break
            assert len(batch) <= 4
            got.extend(batch)

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert got == [(i,) for i in range(10)]


def test_get_opens_activation_gate():
    sim = Simulator()
    buf = TupleBuffer(sim, 4)
    log = []

    def producer():
        yield from buf.wait_activated()
        log.append(("activated", sim.now))
        yield from buf.put([(1,)])

    def consumer():
        yield sim.timeout(5)
        batch = yield from buf.get()
        log.append(("got", sim.now, batch))

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert log == [("activated", 5.0), ("got", 5.0, [(1,)])]


def test_markers_pass_through():
    sim = Simulator()
    buf = TupleBuffer(sim, 8)

    def producer():
        yield from buf.put([(1,)])
        yield from buf.put_marker()
        yield from buf.put([(2,)])
        buf.close()

    def consumer():
        seen = []
        while True:
            batch = yield from buf.get()
            if batch is None:
                return seen
            seen.append("M" if batch is SEGMENT_BOUNDARY else batch)

    sim.spawn(producer())
    assert drive(sim, consumer()) == [[(1,)], "M", [(2,)]]


def test_drain_skips_markers():
    sim = Simulator()
    buf = TupleBuffer(sim, 8)

    def producer():
        yield from buf.put([(1,)])
        yield from buf.put_marker()
        yield from buf.put([(2,)])
        buf.close()

    sim.spawn(producer())
    assert drive(sim, buf.drain()) == [(1,), (2,)]


def test_put_with_patience_times_out_whole():
    sim = Simulator()
    buf = TupleBuffer(sim, 2)

    def producer():
        ok1 = yield from buf.put_with_patience([(1,), (2,)], patience=5.0)
        ok2 = yield from buf.put_with_patience([(3,)], patience=5.0)
        return ok1, ok2

    result = drive(sim, producer())
    assert result == (True, False)
    # The withdrawn batch left no partial residue.
    assert buf.tuples_in == 2
    assert sim.now == pytest.approx(5.0)


def test_put_with_patience_succeeds_when_space_frees():
    sim = Simulator()
    buf = TupleBuffer(sim, 2)
    log = []

    def producer():
        yield from buf.put([(1,), (2,)])
        ok = yield from buf.put_with_patience([(3,)], patience=10.0)
        log.append((ok, sim.now))

    def consumer():
        yield sim.timeout(3)
        yield from buf.get()

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert log == [(True, 3.0)]


def test_patient_put_accepted_on_the_spot_schedules_nothing():
    """Room in the buffer: no accept event, no deadline, no AnyOf -- the
    only kernel entries are the producer's own start and exit, and the
    wake-up of a consumer parked on the empty buffer."""
    sim = Simulator()
    buf = TupleBuffer(sim, 4)

    def producer():
        ok = yield from buf.put_with_patience([(1,), (2,)], patience=5.0)
        return ok, sim.now

    assert drive(sim, producer()) == (True, 0.0)
    assert buf.tuples_in == 2 and buf.level == 2
    assert sim._seq == 2

    parked = sim.spawn(buf.get())
    sim.run()
    assert parked.value == [(1,), (2,)]
    parked = sim.spawn(buf.get())  # now parked on an empty buffer
    sim.run()
    before = sim._seq
    assert drive(sim, producer()) == (True, 0.0)
    assert parked.value == [(1,), (2,)] and buf.level == 0
    assert buf.tuples_in == 4 and buf.tuples_out == 4
    # producer start + exit, the hand-off, the consumer's exit
    assert sim._seq - before == 4


def test_patient_put_on_closed_buffer_raises_channel_closed():
    sim = Simulator()
    buf = TupleBuffer(sim, 4)
    buf.close()

    def producer():
        try:
            yield from buf.put_with_patience([(1,)], patience=5.0)
        except ChannelClosed as exc:
            return str(exc), sim.now
        return "accepted"

    assert drive(sim, producer()) == ("put on closed channel buf", 0.0)
    assert buf.tuples_in == 0


def _run_patience_race(batch_size, consume_at, spawn_consumer_first):
    """One deadline/accept race; returns (ok, delivered rows, buffer).

    A full capacity-4 buffer, a ``put_with_patience(..., patience=5)``,
    and a consumer that frees space at exactly *consume_at* -- with
    ``consume_at == 5.0`` the channel accept and the patience deadline
    land on the same timestamp.  Spawn order flips which event gets the
    smaller sequence number, so both resolutions of the tie are covered.
    """
    sim = Simulator()
    buf = TupleBuffer(sim, 4)
    assert buf.try_put([("pre", i) for i in range(4)])
    batch = [("b", i) for i in range(batch_size)]
    outcome = []
    received = []

    def producer():
        ok = yield from buf.put_with_patience(list(batch), patience=5.0)
        outcome.append(ok)
        buf.close()

    def consumer():
        yield sim.timeout(consume_at)
        while True:
            got = yield from buf.get()
            if got is None:
                return
            received.extend(got)

    if spawn_consumer_first:
        sim.spawn(consumer())
        sim.spawn(producer())
    else:
        sim.spawn(producer())
        sim.spawn(consumer())
    sim.run()
    prefix = [("pre", i) for i in range(4)]
    assert received[:4] == prefix
    return outcome[0], received[4:], buf


@pytest.mark.parametrize("spawn_consumer_first", [True, False])
@pytest.mark.parametrize("batch_size", [3, 10])
def test_patience_deadline_accept_same_timestamp_exactly_once(
    batch_size, spawn_consumer_first
):
    """Deadline and accept at the same instant: delivered once or not at
    all -- never twice, never partially, for both the in-capacity batch
    and the oversized (chunked fallback) batch."""
    ok, delivered, buf = _run_patience_race(
        batch_size, consume_at=5.0, spawn_consumer_first=spawn_consumer_first
    )
    batch = [("b", i) for i in range(batch_size)]
    if ok:
        assert delivered == batch
        assert buf.tuples_in == 4 + batch_size
    else:
        assert delivered == []
        assert buf.tuples_in == 4


@pytest.mark.parametrize("batch_size", [3, 10])
def test_patience_timeout_withdraws_whole_batch(batch_size):
    """A consumer slower than patience: False, and nothing delivered --
    including for a batch larger than capacity, which previously fell
    back to an unbounded blocking put."""
    ok, delivered, buf = _run_patience_race(
        batch_size, consume_at=9.0, spawn_consumer_first=True
    )
    assert ok is False
    assert delivered == []
    assert buf.tuples_in == 4


def test_patience_oversized_batch_delivered_once_when_space_frees():
    ok, delivered, buf = _run_patience_race(
        10, consume_at=2.0, spawn_consumer_first=True
    )
    assert ok is True
    assert delivered == [("b", i) for i in range(10)]
    assert buf.tuples_in == 14
    assert buf.tuples_out == 14


def test_materialize_removes_backpressure():
    sim = Simulator()
    buf = TupleBuffer(sim, 2)
    buf.materialize()

    def producer():
        for i in range(50):
            yield from buf.put([(i,)])
        return sim.now

    assert drive(sim, producer()) == 0.0


# ---------------------------------------------------------------------------
# FanOut
# ---------------------------------------------------------------------------
def test_fanout_copies_to_all_buffers():
    sim = Simulator()
    a = TupleBuffer(sim, 16, name="a")
    b = TupleBuffer(sim, 16, name="b")
    fan = FanOut(sim, a)
    got_b = []

    def producer():
        yield from fan.put([(1,)])
        yield from fan.attach(b, replay=True)  # replays (1,)
        yield from fan.put([(2,)])
        fan.close()

    def consumer_b():
        while True:
            batch = yield from b.get()
            if batch is None:
                return
            got_b.extend(batch)

    def consumer_a():
        yield from a.drain()

    sim.spawn(producer())
    sim.spawn(consumer_a())
    sim.spawn(consumer_b())
    sim.run()
    assert got_b == [(1,), (2,)]


def test_fanout_slowest_consumer_governs():
    sim = Simulator()
    fast = TupleBuffer(sim, 1, name="fast")
    slow = TupleBuffer(sim, 1, name="slow")
    fan = FanOut(sim, fast)
    put_times = []

    def producer():
        yield from fan.attach(slow, replay=False)
        for i in range(3):
            yield from fan.put([(i,)])
            put_times.append(sim.now)

    def fast_reader():
        while True:
            batch = yield from fast.get()
            if batch is None:
                return

    def slow_reader():
        for _ in range(3):
            yield sim.timeout(10)
            yield from slow.get()
        slow.close()

    p = sim.spawn(producer())
    sim.spawn(fast_reader())
    sim.spawn(slow_reader())
    sim.run(until=100)
    # Every put waits for the slow reader's 10s cadence.
    assert put_times[0] == 0.0
    assert put_times[1] == pytest.approx(10.0)
    assert put_times[2] == pytest.approx(20.0)


def test_fanout_replay_ring_bounds():
    sim = Simulator()
    primary = TupleBuffer(sim, 1000)
    fan = FanOut(sim, primary, replay_tuples=4)

    def producer():
        yield from fan.put([(1,), (2,)])
        assert fan.can_replay()
        yield from fan.put([(3,), (4,), (5,)])  # exceeds the ring
        assert not fan.can_replay()

    def consumer():
        yield from primary.drain()

    p = sim.spawn(producer())
    sim.spawn(consumer())
    sim.run(until=10)
    assert p.triggered


def test_fanout_detaches_closed_buffers():
    sim = Simulator()
    primary = TupleBuffer(sim, 16)
    extra = TupleBuffer(sim, 16)
    fan = FanOut(sim, primary)

    def producer():
        yield from fan.attach(extra, replay=False)
        extra.close()  # consumer abandoned
        yield from fan.put([(1,)])
        yield from fan.put([(2,)])
        fan.close()

    def consumer():
        rows = yield from primary.drain()
        return rows

    sim.spawn(producer())
    assert drive(sim, consumer()) == [(1,), (2,)]
    assert extra not in fan.buffers


def test_fanout_attach_after_close_closes_satellite():
    sim = Simulator()
    primary = TupleBuffer(sim, 16)
    late = TupleBuffer(sim, 16)
    fan = FanOut(sim, primary)
    fan.close()

    def attacher():
        yield from fan.attach(late, replay=False)

    drive(sim, attacher())
    assert late.closed


def test_fanout_attach_capture_runs_under_lock():
    """The on_attached callback sees a consistent producer position."""
    sim = Simulator()
    primary = TupleBuffer(sim, 16)
    sat = TupleBuffer(sim, 16)
    fan = FanOut(sim, primary)
    captured = []

    def producer():
        yield from fan.put([(1,)])
        yield from fan.attach(
            sat, replay=False,
            on_attached=lambda: captured.append(fan.total_tuples),
        )
        yield from fan.put([(2,)])
        fan.close()

    def consumers():
        yield from primary.drain()

    sim.spawn(producer())
    sim.spawn(consumers())
    sim.spawn(sat.drain())
    sim.run()
    assert captured == [1]
