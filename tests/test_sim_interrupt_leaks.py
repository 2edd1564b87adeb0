"""Regression tests: interrupting a waiter must not leak grants or items.

A process interrupted while suspended on a wait queue leaves behind an
abandoned entry.  Granting that entry would leak a resource unit (the
bug once froze the disk at 100% utilisation forever), deliver an item to
nobody, or grant a lock to a ghost.
"""

from repro.hw.cpu import CPU
from repro.hw.disk import Disk
from repro.hw.net import NetConfig, Network
from repro.sim import Channel, Resource, Semaphore, Simulator
from repro.storage.locks import LockManager, LockMode


def test_interrupted_resource_waiter_does_not_leak_unit():
    sim = Simulator()
    disk = Resource(sim, capacity=1, name="disk")
    log = []

    def holder():
        grant = yield disk.request()
        yield sim.timeout(10)
        disk.release(grant)

    def victim():
        yield disk.request()  # queued behind holder; killed before grant
        log.append("victim ran")  # must never happen

    def killer(proc):
        yield sim.timeout(5)
        proc.interrupt("gone")

    def late_user():
        yield sim.timeout(20)
        grant = yield disk.request()
        log.append(("late got disk", sim.now))
        disk.release(grant)

    sim.spawn(holder())
    v = sim.spawn(victim())
    sim.spawn(killer(v))
    late = sim.spawn(late_user())
    sim.run_until_done([late])
    # The unit released at t=10 must not be granted to the dead victim;
    # the late user gets it immediately at t=20.
    assert log == [("late got disk", 20.0)]
    assert disk.in_use == 0


def test_interrupted_channel_putter_withdraws_item():
    sim = Simulator()
    ch = Channel(sim, capacity=1)
    got = []

    def producer():
        yield ch.put("a")
        yield ch.put("b")  # blocks; killed while waiting

    def killer(proc):
        yield sim.timeout(2)
        proc.interrupt()

    def consumer():
        yield sim.timeout(5)
        got.append((yield ch.get()))
        event = ch.get()
        yield sim.timeout(5)
        # "b" was withdrawn with its dead producer: nothing else arrives.
        assert not event.triggered

    p = sim.spawn(producer())
    sim.spawn(killer(p))
    c = sim.spawn(consumer())
    sim.run(until=50)
    assert got == ["a"]


def test_interrupted_channel_getter_does_not_swallow_item():
    sim = Simulator()
    ch = Channel(sim, capacity=4)
    got = []

    def victim():
        yield ch.get()  # blocks on empty channel; killed while waiting
        got.append("victim")  # must never happen

    def killer(proc):
        yield sim.timeout(1)
        proc.interrupt()

    def producer():
        yield sim.timeout(5)
        yield ch.put("x")

    def consumer():
        yield sim.timeout(6)
        got.append((yield ch.get()))

    v = sim.spawn(victim())
    sim.spawn(killer(v))
    sim.spawn(producer())
    c = sim.spawn(consumer())
    sim.run_until_done([c])
    assert got == ["x"]


def test_interrupted_semaphore_waiter_skipped():
    sim = Simulator()
    sem = Semaphore(sim, value=1)
    log = []

    def holder():
        yield sem.acquire()
        yield sim.timeout(10)
        sem.release()

    def victim():
        yield sem.acquire()
        log.append("victim")

    def killer(proc):
        yield sim.timeout(2)
        proc.interrupt()

    def late():
        yield sim.timeout(15)
        yield sem.acquire()
        log.append(("late", sim.now))

    sim.spawn(holder())
    v = sim.spawn(victim())
    sim.spawn(killer(v))
    p = sim.spawn(late())
    sim.run_until_done([p])
    assert log == [("late", 15.0)]


def test_interrupted_lock_waiter_skipped():
    sim = Simulator()
    lm = LockManager(sim)
    log = []

    def writer():
        yield lm.acquire("w", "t", LockMode.EXCLUSIVE)
        yield sim.timeout(10)
        lm.release("w", "t")

    def victim():
        yield lm.acquire("v", "t", LockMode.EXCLUSIVE)
        log.append("victim")

    def killer(proc):
        yield sim.timeout(2)
        proc.interrupt()

    def reader():
        yield sim.timeout(3)
        yield lm.acquire("r", "t", LockMode.SHARED)
        log.append(("reader", sim.now))
        lm.release("r", "t")

    sim.spawn(writer())
    v = sim.spawn(victim())
    sim.spawn(killer(v))
    r = sim.spawn(reader())
    sim.run_until_done([r])
    # The dead victim's queued X request must not block the reader after
    # the writer releases (nor be granted to the ghost).
    assert log == [("reader", 10.0)]
    assert lm.holders("t") == []


# ---------------------------------------------------------------------------
# Interrupts landing on the very instant of a grant.  An uncontended
# request() takes the unit synchronously, but the requester only reaches
# its ``try:`` one now-queue hop later; a kill in between used to strand
# the unit for the rest of the run (StarvationError "... waiting on
# resource cpu", in_use == 1).
# ---------------------------------------------------------------------------
def _kill_at_grant(sim, victim_body, service_user, when=1.0):
    """Victim starts its device service at *when*; a killer spawned after
    it interrupts at the same instant; a later user must still get in."""

    def victim():
        yield sim.timeout(when)
        yield from victim_body()
        raise AssertionError("victim survived its interrupt")

    def killer(proc):
        yield sim.timeout(when)
        proc.interrupt("crash at the grant instant")

    def later():
        yield sim.timeout(when + 4.0)
        yield from service_user()
        return sim.now

    v = sim.spawn(victim())
    sim.spawn(killer(v))
    user = sim.spawn(later())
    sim.run_until_done([user])
    return user.value


def test_request_interrupted_at_grant_instant_returns_the_unit():
    sim = Simulator()
    res = Resource(sim, capacity=1, name="cpu")

    def three_step():
        grant = yield res.request()
        try:
            yield sim.timeout(0.5)
        finally:
            res.release(grant)

    assert _kill_at_grant(sim, three_step, three_step) == 5.5
    assert res.in_use == 0
    assert res.total_acquisitions == 2


def test_cpu_burst_interrupted_at_grant_instant_frees_the_core():
    sim = Simulator()
    cpu = CPU(sim, cores=1)
    done = _kill_at_grant(
        sim, lambda: cpu.burst(0.5), lambda: cpu.burst(0.5)
    )
    assert done == 5.5
    assert cpu._resource.in_use == 0
    assert cpu.total_bursts == 1  # counted on completion only


def test_disk_read_interrupted_at_grant_instant_frees_the_disk():
    sim = Simulator()
    disk = Disk(sim, transfer_time=0.25, seek_time=0.25)
    done = _kill_at_grant(
        sim, lambda: disk.read(1, 0), lambda: disk.read(1, 1)
    )
    assert done == 5.25  # sequential after the victim's head movement
    assert disk._resource.in_use == 0
    assert disk.stats.blocks_read == 1


def test_net_transfer_interrupted_at_either_grant_instant_frees_the_nic():
    config = NetConfig(latency=0.5, bandwidth=8192.0, frame_bytes=8192)
    for leg, when in (("tx", 1.0), ("rx", 2.5)):
        sim = Simulator()
        net = Network(sim, config, hosts=("a", "b"))
        log = []

        def victim():
            yield sim.timeout(1.0)
            yield from net.transfer("a", "b", 100)
            log.append("victim delivered")

        def killer(proc):
            # Same float steps as the victim, so the kill lands exactly on
            # the tx grant (t=1) or the rx grant (t=1+1+0.5).
            yield sim.timeout(1.0)
            if leg == "rx":
                yield sim.timeout(1.0)
                yield sim.timeout(0.5)
            assert sim.now == when
            proc.interrupt("crash at the grant instant")

        def later():
            yield sim.timeout(6.0)
            yield from net.transfer("a", "b", 100)
            return sim.now

        v = sim.spawn(victim())
        sim.spawn(killer(v))
        user = sim.spawn(later())
        sim.run_until_done([user])
        assert user.value == 8.5 and log == []
        nic_a, nic_b = net.nic("a"), net.nic("b")
        assert nic_a.tx.in_use == 0 and nic_b.rx.in_use == 0
        assert net.stats.messages == 1
