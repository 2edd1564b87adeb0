"""Unit tests for virtual-time synchronisation primitives."""

import pytest

from repro.sim import (
    Channel,
    ChannelClosed,
    Gate,
    Lock,
    Resource,
    Semaphore,
    Simulator,
    StarvationError,
)


# ---------------------------------------------------------------------------
# Channel
# ---------------------------------------------------------------------------
def test_channel_rejects_nonpositive_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Channel(sim, 0)


def test_channel_fifo_order():
    sim = Simulator()
    ch = Channel(sim, capacity=10)
    got = []

    def producer():
        for i in range(5):
            yield ch.put(i)

    def consumer():
        for _ in range(5):
            got.append((yield ch.get()))

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_channel_backpressure_blocks_producer():
    sim = Simulator()
    ch = Channel(sim, capacity=2)
    put_times = []

    def producer():
        for i in range(4):
            yield ch.put(i)
            put_times.append(sim.now)

    def consumer():
        for _ in range(4):
            yield sim.timeout(10)
            yield ch.get()

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    # First two puts accepted immediately; later ones gated by consumption.
    assert put_times[0] == 0.0 and put_times[1] == 0.0
    assert put_times[2] == 10.0 and put_times[3] == 20.0


def test_channel_get_blocks_until_item_arrives():
    sim = Simulator()
    ch = Channel(sim, capacity=1)
    got = []

    def consumer():
        got.append(((yield ch.get()), sim.now))

    def producer():
        yield sim.timeout(7)
        yield ch.put("x")

    sim.spawn(consumer())
    sim.spawn(producer())
    sim.run()
    assert got == [("x", 7.0)]


def test_channel_sized_items_respect_capacity():
    sim = Simulator()
    ch = Channel(sim, capacity=100)
    times = []

    def producer():
        yield ch.put("a", size=60)
        times.append(sim.now)
        yield ch.put("b", size=60)  # must wait for 'a' to drain
        times.append(sim.now)

    def consumer():
        yield sim.timeout(5)
        yield ch.get()
        yield ch.get()

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert times == [0.0, 5.0]


def test_channel_item_bigger_than_capacity_fails():
    sim = Simulator()
    ch = Channel(sim, capacity=10)
    caught = []

    def producer():
        try:
            yield ch.put("huge", size=11)
        except ValueError:
            caught.append(True)

    sim.spawn(producer())
    sim.run()
    assert caught == [True]


def test_channel_close_drains_then_raises():
    sim = Simulator()
    ch = Channel(sim, capacity=10)
    got, done = [], []

    def producer():
        yield ch.put(1)
        yield ch.put(2)
        ch.close()

    def consumer():
        while True:
            try:
                got.append((yield ch.get()))
            except ChannelClosed:
                done.append(True)
                break

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert got == [1, 2] and done == [True]


def test_channel_put_after_close_fails():
    sim = Simulator()
    ch = Channel(sim, capacity=10)
    ch.close()
    caught = []

    def producer():
        try:
            yield ch.put(1)
        except ChannelClosed:
            caught.append(True)

    sim.spawn(producer())
    sim.run()
    assert caught == [True]


def test_channel_close_fails_blocked_producers():
    sim = Simulator()
    ch = Channel(sim, capacity=1)
    caught = []

    def producer():
        yield ch.put("a")
        try:
            yield ch.put("b")  # blocks: capacity 1
        except ChannelClosed:
            caught.append(sim.now)

    def closer():
        yield sim.timeout(3)
        ch.close()

    sim.spawn(producer())
    sim.spawn(closer())
    sim.run()
    assert caught == [3.0]


def test_channel_try_put():
    sim = Simulator()
    ch = Channel(sim, capacity=1)
    assert ch.try_put("a") is True
    assert ch.try_put("b") is False  # full
    got = []

    def consumer():
        got.append((yield ch.get()))

    sim.spawn(consumer())
    sim.run()
    assert got == ["a"]


def test_channel_cancel_put_admits_the_smaller_put_queued_behind():
    """Withdrawing the head-of-line putter re-runs the matcher: the put
    behind it fits now and must not wait for an unrelated get."""
    sim = Simulator()
    ch = Channel(sim, capacity=10)
    assert ch.try_put("pre", size=8)
    accepted = []

    def big():
        accept = ch.put("A", size=5)
        yield sim.timeout(1)
        assert ch.cancel_put(accept) is True
        assert ch.cancel_put(accept) is False  # already withdrawn

    def small():
        yield ch.put("B", size=2)
        accepted.append(sim.now)

    def unrelated_get():
        yield sim.timeout(50)
        yield ch.get()

    sim.spawn(big())
    sim.spawn(small())
    sim.spawn(unrelated_get())
    sim.run()
    assert accepted == [1.0]
    assert ch.blocked_producers() == [] and not ch.producer_blocked


def test_channel_hands_an_offered_item_past_abandoned_getters():
    """A put or try_put while consumers are parked goes straight to the
    longest-parked *live* one; dead entries at the head are dropped."""
    sim = Simulator()
    ch = Channel(sim, capacity=2)
    got = []

    def consumer(name):
        got.append((name, (yield ch.get()), sim.now))

    dead = sim.spawn(consumer("dead"))
    sim.spawn(consumer("first"))
    sim.spawn(consumer("second"))

    def producer():
        yield sim.timeout(1)
        dead.interrupt("killed")
        yield sim.timeout(1)
        assert ch.try_put("x") is True
        yield ch.put("y")
        assert ch.level == 0 and ch.empty

    sim.spawn(producer())
    sim.run()
    assert got == [("first", "x", 2.0), ("second", "y", 2.0)]
    assert (ch.total_put, ch.total_got) == (2, 2)
    assert ch.blocked_consumers() == []

    # Only abandoned getters parked: the item is buffered, not lost.
    lone = sim.spawn(consumer("lone"))
    sim.run()
    lone.interrupt("killed")
    sim.run()
    assert ch.try_put("z") is True
    assert ch.level == 1 and ch.blocked_consumers() == []


def test_channel_force_capacity_releases_blocked_producer():
    sim = Simulator()
    ch = Channel(sim, capacity=1)
    times = []

    def producer():
        yield ch.put("a")
        yield ch.put("b")
        times.append(sim.now)

    def grower():
        yield sim.timeout(4)
        ch.force_capacity(10)

    sim.spawn(producer())
    sim.spawn(grower())
    sim.run()
    assert times == [4.0]


def test_channel_force_capacity_cannot_shrink():
    sim = Simulator()
    ch = Channel(sim, capacity=5)
    with pytest.raises(ValueError):
        ch.force_capacity(2)


def test_channel_blocked_party_introspection():
    sim = Simulator()
    ch = Channel(sim, capacity=1)

    def producer():
        yield ch.put("a")
        yield ch.put("b", owner="P")

    sim.spawn(producer())
    sim.run()
    assert ch.blocked_producers() == ["P"]
    assert ch.full


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------
def test_resource_serialises_access():
    sim = Simulator()
    disk = Resource(sim, capacity=1, name="disk")
    log = []

    def user(name, service):
        grant = yield disk.request()
        log.append((name, "start", sim.now))
        yield sim.timeout(service)
        disk.release(grant)
        log.append((name, "end", sim.now))

    sim.spawn(user("a", 5))
    sim.spawn(user("b", 3))
    sim.run()
    assert log == [
        ("a", "start", 0.0),
        ("a", "end", 5.0),
        ("b", "start", 5.0),
        ("b", "end", 8.0),
    ]


def test_resource_parallel_capacity():
    sim = Simulator()
    cpu = Resource(sim, capacity=2, name="cpu")
    ends = []

    def user(service):
        grant = yield cpu.request()
        yield sim.timeout(service)
        cpu.release(grant)
        ends.append(sim.now)

    for _ in range(4):
        sim.spawn(user(10))
    sim.run()
    # Two run immediately, two queue behind them.
    assert ends == [10.0, 10.0, 20.0, 20.0]


def test_resource_release_when_idle_raises():
    sim = Simulator()
    r = Resource(sim, capacity=1)
    with pytest.raises(Exception):
        r.release()


def test_resource_utilization_accounting():
    sim = Simulator()
    r = Resource(sim, capacity=1)

    def user():
        grant = yield r.request()
        yield sim.timeout(4)
        r.release(grant)
        yield sim.timeout(6)

    p = sim.spawn(user())
    sim.run_until_done([p])
    assert r.utilization() == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# Gate, Semaphore, Lock
# ---------------------------------------------------------------------------
def test_gate_blocks_until_open():
    sim = Simulator()
    gate = Gate(sim)
    woke = []

    def waiter(name):
        yield gate.wait()
        woke.append((name, sim.now))

    def opener():
        yield sim.timeout(9)
        gate.open()

    sim.spawn(waiter("a"))
    sim.spawn(waiter("b"))
    sim.spawn(opener())
    sim.run()
    assert woke == [("a", 9.0), ("b", 9.0)]


def test_gate_open_is_sticky():
    sim = Simulator()
    gate = Gate(sim, opened=True)
    woke = []

    def waiter():
        yield gate.wait()
        woke.append(sim.now)

    sim.spawn(waiter())
    sim.run()
    assert woke == [0.0]


def test_semaphore_counts():
    sim = Simulator()
    sem = Semaphore(sim, value=2)
    starts = []

    def user(hold):
        yield sem.acquire()
        starts.append(sim.now)
        yield sim.timeout(hold)
        sem.release()

    for _ in range(3):
        sim.spawn(user(5))
    sim.run()
    assert starts == [0.0, 0.0, 5.0]


def test_lock_is_mutual_exclusion():
    sim = Simulator()
    lock = Lock(sim)
    order = []

    def user(name):
        yield lock.acquire()
        order.append((name, sim.now))
        yield sim.timeout(2)
        lock.release()

    sim.spawn(user("a"))
    sim.spawn(user("b"))
    sim.run()
    assert order == [("a", 0.0), ("b", 2.0)]


# ---------------------------------------------------------------------------
# Diagnostics: what a parked party waits on, formatted only on demand
# ---------------------------------------------------------------------------
def test_starvation_text_of_every_primitive_is_unchanged():
    sim = Simulator()
    ch = Channel(sim, capacity=1, name="pipe")
    sem, lock = Semaphore(sim, 0), Lock(sim)

    def producer():
        yield ch.put("a")
        yield ch.put("b")

    # locker and waiter starve on purpose -- the report of who is parked
    # on what is the thing under test -- so nothing is ever released.
    def locker():
        yield lock.acquire()  # simlint: disable=RES001
        yield lock.acquire()  # simlint: disable=RES001

    def waiter():
        yield sem.acquire()  # simlint: disable=RES001

    procs = [
        sim.spawn(producer(), name="p"),
        sim.spawn(locker(), name="l"),
        sim.spawn(waiter(), name="w"),
    ]
    with pytest.raises(StarvationError) as exc:
        sim.run_until_done(procs)
    assert str(exc.value) == (
        "simulation drained at t=0.000 with 3 live process(es): "
        "p#1 waiting on put on channel pipe; l#2 waiting on lock; "
        "w#3 waiting on semaphore"
    )
    ch.name = "renamed"  # formatted at report time, from the channel
    assert str(ch.put("c").describe) == "put on channel renamed"
