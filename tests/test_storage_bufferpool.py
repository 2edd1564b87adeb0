"""Unit tests for the buffer pool: hits/misses, coalescing, pins, eviction."""

import pytest

from repro.hw.disk import Disk
from repro.sim import Simulator
from repro.storage.bufferpool import BufferPool, BufferPoolFull
from repro.storage.file import BlockStore


def make_pool(capacity=4, policy="lru"):
    sim = Simulator()
    disk = Disk(sim, transfer_time=1.0, seek_time=2.0)
    store = BlockStore()
    fid = store.create_file("t")
    for i in range(10):
        store.append_block(fid, f"payload{i}")
    pool = BufferPool(
        sim=sim,
        disk=disk,
        store=store,
        capacity=capacity,
        policy_name=policy,
        page_hit_cost=0.001,
    )
    return sim, disk, pool, fid


def drive(sim, gen):
    """Run one coroutine to completion; returns its value."""
    proc = sim.spawn(gen)
    sim.run()
    assert proc.triggered
    return proc.value


def test_miss_reads_disk_then_hit_is_cheap():
    sim, disk, pool, fid = make_pool()

    def reader():
        payload = yield from pool.get_page(fid, 0)
        assert payload == "payload0"
        first_time = sim.now
        payload = yield from pool.get_page(fid, 0)
        return first_time, sim.now - first_time

    miss_time, hit_time = drive(sim, reader())
    assert miss_time == pytest.approx(3.0)  # seek + transfer
    assert hit_time == pytest.approx(0.001)
    assert pool.stats.misses == 1 and pool.stats.hits == 1
    assert disk.stats.blocks_read == 1


def test_sequential_reads_avoid_seeks():
    sim, disk, pool, fid = make_pool(capacity=8)

    def reader():
        for block in range(4):
            yield from pool.get_page(fid, block)

    drive(sim, reader())
    assert disk.stats.seeks == 1  # only the first access seeks
    assert disk.stats.sequential_hits == 3


def test_concurrent_miss_coalesces_to_one_read():
    sim, disk, pool, fid = make_pool()
    done = []

    def reader(name):
        payload = yield from pool.get_page(fid, 0)
        done.append((name, sim.now, payload))

    sim.spawn(reader("a"))
    sim.spawn(reader("b"))
    sim.run()
    assert disk.stats.blocks_read == 1  # one physical read
    assert pool.stats.misses == 1 and pool.stats.coalesced == 1
    assert [d[2] for d in done] == ["payload0", "payload0"]
    assert done[0][1] == done[1][1]  # both complete together


def test_miss_nobody_joins_announces_itself_to_nobody():
    """The in-flight marker is an event only once a second requester
    piggybacks: a lone miss costs the process start, the disk service
    and the process exit -- no kernel entry that wakes nobody."""
    sim, disk, pool, fid = make_pool()
    sim.spawn(pool.get_page(fid, 0))
    sim.run(until=1.0)  # mid-read
    assert pool._in_flight == {(fid, 0): None}
    sim.run()
    assert pool._in_flight == {}
    assert sim._seq == 3


def test_reader_interrupted_mid_read_wakes_its_piggybacker_to_retry():
    sim, disk, pool, fid = make_pool()
    got = []

    def follower():
        yield sim.timeout(0.5)
        got.append(((yield from pool.get_page(fid, 0)), sim.now))

    reader = sim.spawn(pool.get_page(fid, 0))
    sim.spawn(follower())
    sim.schedule(1.0, reader.interrupt, "crash")
    sim.run()
    # Woken at the interrupt instant, the follower finds no frame and
    # performs the read itself: 1.0 + seek + transfer.
    assert got == [("payload0", 4.0)]
    assert pool.stats.misses == 2 and pool.stats.coalesced == 1
    assert disk.stats.blocks_read == 1  # the abandoned service is not one
    assert pool._in_flight == {}
    assert pool.contains(fid, 0)


def test_reader_interrupted_mid_read_alone_leaks_no_in_flight_marker():
    sim, disk, pool, fid = make_pool()
    reader = sim.spawn(pool.get_page(fid, 0))
    sim.schedule(1.0, reader.interrupt, "crash")
    sim.run()
    assert pool._in_flight == {}
    assert not pool.contains(fid, 0)
    # The page is readable afterwards, by a genuine miss.
    assert drive(sim, pool.get_page(fid, 0)) == "payload0"
    assert pool.stats.misses == 2 and pool.stats.coalesced == 0


def test_eviction_at_capacity():
    sim, disk, pool, fid = make_pool(capacity=2)

    def reader():
        for block in range(3):
            yield from pool.get_page(fid, block)

    drive(sim, reader())
    assert pool.resident == 2
    assert pool.stats.evictions == 1
    assert not pool.contains(fid, 0)  # LRU victim


def test_pinned_pages_survive_eviction():
    sim, disk, pool, fid = make_pool(capacity=2)

    def reader():
        yield from pool.get_page(fid, 0, pin=True)
        yield from pool.get_page(fid, 1)
        yield from pool.get_page(fid, 2)  # must evict 1, not pinned 0

    drive(sim, reader())
    assert pool.contains(fid, 0)
    assert not pool.contains(fid, 1)
    assert pool.pin_count(fid, 0) == 1
    pool.unpin(fid, 0)
    assert pool.pin_count(fid, 0) == 0


def test_all_pinned_raises():
    sim, disk, pool, fid = make_pool(capacity=2)

    def reader():
        yield from pool.get_page(fid, 0, pin=True)
        yield from pool.get_page(fid, 1, pin=True)
        yield from pool.get_page(fid, 2)

    proc = sim.spawn(reader())
    with pytest.raises(Exception) as err:
        sim.run()
    assert "pinned" in str(err.value.__cause__ or err.value)


def test_unpin_unpinned_raises():
    sim, disk, pool, fid = make_pool()
    with pytest.raises(Exception):
        pool.unpin(fid, 0)


def test_invalidate_file_drops_frames():
    sim, disk, pool, fid = make_pool(capacity=8)

    def reader():
        for block in range(3):
            yield from pool.get_page(fid, block)

    drive(sim, reader())
    assert pool.resident == 3
    pool.invalidate_file(fid)
    assert pool.resident == 0


def test_hit_ratio_statistic():
    sim, disk, pool, fid = make_pool(capacity=8)

    def reader():
        yield from pool.get_page(fid, 0)
        yield from pool.get_page(fid, 0)
        yield from pool.get_page(fid, 0)

    drive(sim, reader())
    assert pool.stats.hit_ratio == pytest.approx(2 / 3)


def test_write_page_charges_disk():
    sim, disk, pool, fid = make_pool()

    def writer():
        yield from pool.write_page(fid, 0)

    drive(sim, writer())
    assert disk.stats.blocks_written == 1
    assert pool.contains(fid, 0)


def test_capacity_validation():
    sim = Simulator()
    disk = Disk(sim)
    with pytest.raises(ValueError):
        BufferPool(sim=sim, disk=disk, store=BlockStore(), capacity=0)
