"""The write-ahead lineage log and tracker primitives.

Covers the checksummed record format (intact / torn detection), the
durable-frontier contract (``durable()`` truncates strictly before the
first torn record), block charging on flush, the injected log-fault
flags, deterministic serialisation, and the tracker's contiguity
checking plus frontier arithmetic.
"""

from dataclasses import replace

import pytest

from repro.faults.errors import LogWriteError
from repro.hw.disk import Disk
from repro.hw.host import Host, HostConfig
from repro.lineage import LineageRecord, LineageTracker
from repro.lineage.tracker import resume_shape
from repro.relational.expressions import AggSpec
from repro.relational.plans import Aggregate, Filter, TableScan
from repro.storage.log import RECORDS_PER_BLOCK, LogDevice, checksum, seal


def make_log():
    host = Host(HostConfig())
    device = Disk(host.sim, transfer_time=0.004, seek_time=0.0,
                  name="lineage-log")
    return host, LogDevice(device, query_id=7)


def append(log, kind, rows, table=None, first_page=None, pages=None,
           payload=None):
    log.append(LineageRecord(len(log.records), kind, rows, table,
                             first_page, pages, payload))


def run_flush(host, log):
    proc = host.sim.spawn(log.flush(), name="flush")
    host.sim.run()
    assert proc.alive is False
    return proc


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------
def test_record_checksum_roundtrip():
    rec = seal(LineageRecord(0, "batch", 40, "r", 0, 4))
    assert checksum(rec) == rec.checksum
    again = LineageRecord(**vars(rec))
    assert checksum(again) == again.checksum and again == rec


def test_record_detects_corruption():
    rec = seal(LineageRecord(1, "batch", 40, None, None, None))
    assert checksum(replace(rec, rows=41)) != rec.checksum
    flipped = replace(rec, checksum=rec.checksum ^ 1)
    assert checksum(flipped) != flipped.checksum


# ---------------------------------------------------------------------------
# The log
# ---------------------------------------------------------------------------
def test_flush_charges_blocks_and_advances_frontier():
    host, log = make_log()
    n = RECORDS_PER_BLOCK + 1
    for i in range(n):
        append(log, "batch", rows=10 * (i + 1), table="r",
               first_page=0, pages=i + 1)
    assert log.flushed == -1 and log.durable() == []
    run_flush(host, log)
    # One record more than a block holds -> 2 sequential block writes.
    assert log.blocks_written == 2
    assert log.disk.stats.blocks_written == 2
    assert log.flushed == n - 1
    assert [r.rows for r in log.durable()] == [10 * (i + 1) for i in range(n)]
    # Idempotent: nothing pending, no extra blocks.
    run_flush(host, log)
    assert log.blocks_written == 2


def test_flush_failure_keeps_records_volatile():
    host, log = make_log()
    append(log, "batch", rows=10, table="r", first_page=0, pages=1)
    log.fail_next_flush = True
    log.fail_transient = False

    def driver():
        with pytest.raises(LogWriteError) as info:
            yield from log.flush()
        assert info.value.transient is False
        return True

    proc = host.sim.spawn(driver(), name="driver")
    host.sim.run()
    assert proc.value is True
    assert log.flushed == -1 and log.blocks_written == 0
    # The flag is consumed: the retry succeeds.
    run_flush(host, log)
    assert log.flushed == 0


def test_torn_tail_truncates_durable_prefix():
    host, log = make_log()
    for i in range(3):
        append(log, "batch", rows=10 * (i + 1), table="r",
               first_page=0, pages=i + 1)
    log.tear_next_flush = True
    run_flush(host, log)
    assert log.flushed == 2
    durable = log.durable()
    # The torn tail is excluded; the intact prefix survives.
    assert [r.rows for r in durable] == [10, 20]
    assert all(checksum(r) == r.checksum for r in durable)


def test_serialize_is_deterministic():
    _, log_a = make_log()
    _, log_b = make_log()
    for log in (log_a, log_b):
        append(log, "batch", rows=10, table="r", first_page=0, pages=1)
        append(log, "checkpoint", rows=80, pages=8,
               payload=[[3, 1.5, None]])
    assert log_a.serialize() == log_b.serialize()


# ---------------------------------------------------------------------------
# The tracker
# ---------------------------------------------------------------------------
def test_resume_shape_classification():
    scan = TableScan("r")
    assert resume_shape(scan) == "scan"
    agg = Aggregate(scan, [AggSpec("count", None, "n")])
    assert resume_shape(agg) == "agg"
    assert resume_shape(Filter(scan, lambda row: True)) is None


def test_tracker_frontier_arithmetic():
    host, log = make_log()
    tracker = LineageTracker(host.sim, log, TableScan("r"))
    for page, rows_out in enumerate((10, 0, 7)):
        tracker.scan_page("s1", "r", page, rows_out, num_pages=8)
    # 12 delivered rows cover pages 0..1 (10 + 0 rows); page 2 is
    # partially consumed and must be rescanned.
    tracker.rows = 12
    assert tracker.frontier() == (2, 10)
    # 17 rows cover all three scanned pages.
    tracker.rows = 17
    assert tracker.frontier() == (3, 17)


def test_tracker_breaks_on_noncontiguous_pages():
    host, log = make_log()
    tracker = LineageTracker(host.sim, log, TableScan("r"))
    tracker.scan_page("s1", "r", 5, 10, num_pages=8)
    tracker.scan_page("s1", "r", 6, 10, num_pages=8)
    assert not tracker.broken
    tracker.scan_page("s1", "r", 3, 10, num_pages=8)  # gap
    assert tracker.broken


def test_tracker_allows_circular_wraparound():
    host, log = make_log()
    tracker = LineageTracker(host.sim, log, TableScan("r"))
    for i in range(4):
        page = (6 + i) % 8
        tracker.scan_page("s1", "r", page, 10, num_pages=8)
    assert not tracker.broken
    assert tracker.first_page == 6
