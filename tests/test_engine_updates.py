"""Engine-level update semantics (section 4.3.4).

"QPipe runs any type of workload, as it charges the underlying storage
manager with lock and update management by routing update requests to a
dedicated micro-engine with no OSP functionality. ... If a table is
locked for writing, the scan packet will simply wait (and with it, all
satellite ones), until the lock is released."
"""

import pytest

from repro.engine.qpipe import QPipeConfig, QPipeEngine
from repro.relational.expressions import AggSpec, Col
from repro.relational.plans import Aggregate, InsertRows, Sort, TableScan, UpdateRows


def test_scan_waits_for_writer(big_db):
    """A scan submitted while an update holds the X lock blocks until
    the writer releases -- and then sees the writer's rows."""
    host, sm, r_rows, _s = big_db
    engine = QPipeEngine(sm, QPipeConfig(osp_enabled=True))
    sim = host.sim
    order = []

    new_rows = [(100_000 + i, 0, 1.0, "w") for i in range(40)]

    def writer():
        result = yield from engine.execute(InsertRows("r", new_rows))
        order.append(("write done", sim.now))
        return result

    def reader():
        yield sim.timeout(0.001)  # arrive just after the writer
        result = yield from engine.execute(
            Aggregate(TableScan("r"), [AggSpec("count", None, "n")])
        )
        order.append(("read done", sim.now))
        return result

    w = sim.spawn(writer())
    r = sim.spawn(reader())
    sim.run_until_done([w, r])
    assert order[0][0] == "write done"
    # The scan saw the committed insert (it waited for the X lock).
    assert r.value.rows == [(len(r_rows) + len(new_rows),)]


def test_writer_waits_for_active_scan(big_db):
    """An update submitted mid-scan waits for the shared lock holders."""
    host, sm, r_rows, _s = big_db
    engine = QPipeEngine(sm, QPipeConfig(osp_enabled=True))
    sim = host.sim

    def reader():
        result = yield from engine.execute(
            Aggregate(TableScan("r"), [AggSpec("count", None, "n")])
        )
        return result

    def writer():
        yield sim.timeout(1.0)  # the scan is under way
        result = yield from engine.execute(
            InsertRows("r", [(200_000, 0, 1.0, "w")])
        )
        return result

    r = sim.spawn(reader())
    w = sim.spawn(writer())
    sim.run_until_done([r, w])
    # The reader's count excludes the later insert...
    assert r.value.rows == [(len(r_rows),)]
    # ...and the writer finished only after the scan released its lock.
    assert w.value.finished_at >= r.value.finished_at


def test_updates_never_shared(big_db):
    """Two identical-looking inserts both execute (no OSP on updates)."""
    host, sm, r_rows, _s = big_db
    engine = QPipeEngine(sm, QPipeConfig(osp_enabled=True))
    sim = host.sim

    def writer():
        result = yield from engine.execute(
            InsertRows("r", [(300_000, 0, 1.0, "w")])
        )
        return result

    a = sim.spawn(writer())
    b = sim.spawn(writer())
    sim.run_until_done([a, b])
    assert engine.osp_stats.attaches["update"] == 0
    assert sm.num_rows("r") == len(r_rows) + 2


def test_update_rows_predicate(big_db):
    host, sm, r_rows, _s = big_db
    engine = QPipeEngine(sm, QPipeConfig())
    changed = engine.run_query(
        UpdateRows(
            "r",
            predicate=Col("grp") == 0,
            apply=lambda row: (row[0], row[1], -5.0, row[3]),
        )
    )
    expected = sum(1 for r in r_rows if r[1] == 0)
    assert changed == [(expected,)]
    stored = sm.catalog.table("r").heap.all_rows()
    assert sum(1 for r in stored if r[2] == -5.0) == expected


def test_descending_external_sort_both_engines(big_db):
    """External (spilled) descending sorts are exact on both engines."""
    from repro.baseline.engine import IteratorEngine

    _h, sm, r_rows, _s = big_db
    plan = Sort(TableScan("r"), keys=["val"], descending=True)
    expected = sorted(r_rows, key=lambda r: r[2], reverse=True)
    reference = IteratorEngine(sm, work_mem_tuples=300).run_query(plan)
    qpipe = QPipeEngine(
        sm, QPipeConfig(work_mem_tuples=300)
    ).run_query(plan)
    assert [r[2] for r in reference] == [r[2] for r in expected]
    assert [r[2] for r in qpipe] == [r[2] for r in expected]


def test_a_leaked_table_lock_fails_instead_of_spinning(big_db, monkeypatch):
    """A write that never releases its X lock starves every later scan of
    the table.  The deadlock detector finds no cycle and nothing else
    pending, so it stops re-arming: the run drains and fails at once,
    naming the lock wait, instead of sweeping forever."""
    import time

    from repro.sim import StarvationError
    from repro.storage.locks import LockManager

    release = LockManager.release_if_held

    def leaky(self, owner, resource):
        if owner[0] == "q":  # a DML statement's owner: leak its X lock
            return False
        return release(self, owner, resource)

    monkeypatch.setattr(LockManager, "release_if_held", leaky)
    host, sm, _r, _s = big_db
    engine = QPipeEngine(sm, QPipeConfig(osp_enabled=True))
    sim = host.sim

    def writer():
        yield from engine.execute(InsertRows("r", [(100_000, 0, 1.0, "w")]))

    w = sim.spawn(writer(), name="writer")

    def reader():
        yield w
        yield from engine.execute(
            Aggregate(TableScan("r"), [AggSpec("count", None, "n")])
        )

    r = sim.spawn(reader(), name="reader")
    started = time.monotonic()
    with pytest.raises(StarvationError) as exc:
        sim.run_until_done([w, r])
    assert time.monotonic() - started < 10.0
    assert sim.now < 3.0  # the detector's first idle sweep or so
    message = str(exc.value)
    assert "1 live process(es): reader#" in message
    assert "waiting on lock on 'r'" in message
