"""Unit tests for the disk and CPU models."""

import pytest

from repro.hw.cpu import CPU
from repro.hw.disk import Disk
from repro.hw.host import Host, HostConfig
from repro.sim import Simulator


def drive(sim, gen):
    proc = sim.spawn(gen)
    sim.run()
    return proc.value


# ---------------------------------------------------------------------------
# Disk
# ---------------------------------------------------------------------------
def test_sequential_reads_pay_transfer_only():
    sim = Simulator()
    disk = Disk(sim, transfer_time=1.0, seek_time=4.0)

    def reader():
        for block in range(5):
            yield from disk.read(0, block)
        return sim.now

    # First read seeks (5.0), the next four are sequential (1.0 each).
    assert drive(sim, reader()) == pytest.approx(9.0)
    assert disk.stats.seeks == 1
    assert disk.stats.sequential_hits == 4


def test_interleaved_streams_seek_every_time():
    sim = Simulator()
    disk = Disk(sim, transfer_time=1.0, seek_time=4.0)

    def reader(file_id):
        for block in range(3):
            yield from disk.read(file_id, block)

    a = sim.spawn(reader(1))
    b = sim.spawn(reader(2))
    sim.run_until_done([a, b])
    # Alternating between two files: no read is sequential.
    assert disk.stats.sequential_hits == 0
    assert disk.stats.seeks == 6


def test_disk_serialises_requests():
    sim = Simulator()
    disk = Disk(sim, transfer_time=1.0, seek_time=0.0)
    ends = []

    def reader(file_id):
        yield from disk.read(file_id, 0)
        ends.append(sim.now)

    sim.spawn(reader(1))
    sim.spawn(reader(2))
    sim.run()
    assert ends == [1.0, 2.0]


def test_write_accounting():
    sim = Simulator()
    disk = Disk(sim, transfer_time=1.0, seek_time=2.0)

    def writer():
        yield from disk.write(0, 5)
        yield from disk.write(0, 6)  # sequential after 5

    drive(sim, writer())
    assert disk.stats.blocks_written == 2
    assert disk.stats.write_time == pytest.approx(3.0 + 1.0)


def test_per_file_attribution():
    sim = Simulator()
    disk = Disk(sim, transfer_time=1.0, seek_time=0.0)

    def reader():
        yield from disk.read(7, 0)
        yield from disk.read(7, 1)
        yield from disk.read(9, 0)

    drive(sim, reader())
    assert disk.stats.per_file[7][0] == 2
    assert disk.stats.per_file[9][0] == 1
    snap = disk.stats.snapshot()

    def more():
        yield from disk.read(9, 1)

    drive(sim, more())
    delta = disk.stats.delta(snap)
    assert delta.per_file == {9: [1, pytest.approx(1.0)]}


def test_sequential_scan_time_analytic():
    sim = Simulator()
    disk = Disk(sim, transfer_time=2.0, seek_time=10.0)
    assert disk.sequential_scan_time(5) == pytest.approx(20.0)
    assert disk.sequential_scan_time(0) == 0.0


def test_disk_parameter_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Disk(sim, transfer_time=0.0)
    with pytest.raises(ValueError):
        Disk(sim, transfer_time=1.0, seek_time=-1.0)


# ---------------------------------------------------------------------------
# CPU
# ---------------------------------------------------------------------------
def test_cpu_burst_charges_time():
    sim = Simulator()
    cpu = CPU(sim, cores=1)

    def worker():
        yield from cpu.burst(3.0)
        return sim.now

    assert drive(sim, worker()) == 3.0
    assert cpu.total_bursts == 1


def test_cpu_cores_run_in_parallel():
    sim = Simulator()
    cpu = CPU(sim, cores=2)
    ends = []

    def worker():
        yield from cpu.burst(5.0)
        ends.append(sim.now)

    for _ in range(4):
        sim.spawn(worker())
    sim.run()
    assert ends == [5.0, 5.0, 10.0, 10.0]


def test_cpu_zero_burst_is_free():
    sim = Simulator()
    cpu = CPU(sim, cores=1)

    def worker():
        yield from cpu.burst(0.0)
        return sim.now

    assert drive(sim, worker()) == 0.0


def test_cpu_rejects_negative_cost():
    sim = Simulator()
    cpu = CPU(sim, cores=1)

    def worker():
        yield from cpu.burst(-1.0)

    proc = sim.spawn(worker())
    with pytest.raises(Exception):
        sim.run()


def test_cpu_validation():
    with pytest.raises(ValueError):
        CPU(Simulator(), cores=0)


# ---------------------------------------------------------------------------
# Host
# ---------------------------------------------------------------------------
def test_host_bundles():
    host = Host(HostConfig())
    assert host.now == 0.0
