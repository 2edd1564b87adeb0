"""WAL + transaction tests: atomicity, durability, crash recovery."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.host import Host, HostConfig
from repro.relational.schema import Schema
from repro.storage.manager import StorageManager
from repro.storage.log import checksum, seal
from repro.storage.page import RID, pack_rid
from repro.storage.wal import (
    LogRecord,
    LogType,
    TransactionManager,
    TransactionState,
)

SCHEMA = Schema.of("id:int", "v:int")


def make_db(rows=20):
    host = Host(HostConfig())
    sm = StorageManager(host, buffer_pages=64)
    sm.create_table("t", SCHEMA)
    sm.load_table("t", [(i, i * 10) for i in range(rows)])
    sm.create_index("t", ["id"], name="t_id")
    return host, sm, TransactionManager(sm)


def drive(host, gen):
    proc = host.sim.spawn(gen)
    host.sim.run()
    assert proc.triggered
    return proc.value


def table_rows(sm):
    return sorted(sm.catalog.table("t").heap.all_rows())


def test_commit_makes_changes_visible():
    host, sm, tm = make_db()

    def work():
        txn = tm.begin()
        rid = yield from tm.insert(txn, "t", (100, 1000))
        yield from tm.update(txn, "t", RID(0, 0), (0, -1))
        yield from tm.commit(txn)
        return rid

    rid = drive(host, work())
    rows = table_rows(sm)
    assert (100, 1000) in rows
    assert (0, -1) in rows
    assert sm.catalog.index("t", "t_id").tree.search(100) == [pack_rid(rid)]


def test_abort_rolls_back_everything():
    host, sm, tm = make_db()
    before = table_rows(sm)

    def work():
        txn = tm.begin()
        yield from tm.insert(txn, "t", (100, 1000))
        yield from tm.update(txn, "t", RID(0, 0), (0, -1))
        yield from tm.delete(txn, "t", RID(0, 1))
        yield from tm.abort(txn)

    drive(host, work())
    assert table_rows(sm) == before
    assert sm.catalog.index("t", "t_id").tree.search(100) == []
    assert sm.catalog.index("t", "t_id").tree.search(1) != []  # restored


def test_operations_on_finished_txn_rejected():
    host, sm, tm = make_db()

    def work():
        txn = tm.begin()
        yield from tm.commit(txn)
        try:
            yield from tm.insert(txn, "t", (200, 0))
        except Exception:
            return "rejected"
        return "accepted"

    assert drive(host, work()) == "rejected"


def test_commit_flushes_log():
    host, sm, tm = make_db()

    def work():
        txn = tm.begin()
        yield from tm.insert(txn, "t", (100, 1000))
        yield from tm.commit(txn)

    drive(host, work())
    assert tm.wal.flushed == len(tm.wal.records) - 1
    types = [r.type for r in tm.wal.durable()]
    assert types[-1] is LogType.COMMIT
    assert host.disk.stats.blocks_written > 0  # data pages
    assert tm.wal.disk.stats.blocks_written > 0  # log device


def test_torn_commit_is_undone_by_recovery():
    host, sm, tm = make_db()
    before = table_rows(sm)

    def work():
        txn = tm.begin()
        yield from tm.insert(txn, "t", (100, 1000))
        yield from tm.update(txn, "t", RID(0, 0), (0, -1))
        tm.wal.tear_next_flush = True
        yield from tm.commit(txn)  # "succeeds", but the COMMIT is torn

    drive(host, work())
    assert [r.type for r in tm.wal.durable()][-1] is LogType.UPDATE
    tm.simulate_crash()
    assert drive(host, tm.recover()) == [1]
    assert table_rows(sm) == before


def test_a_torn_record_drops_every_later_record():
    host, sm, tm = make_db()

    def work():
        for i in range(3):
            txn = tm.begin()
            if i == 1:
                tm.wal.tear_next_flush = True
            yield from tm.update(txn, "t", RID(0, i), (i, -i))
            yield from tm.commit(txn)

    drive(host, work())
    # BEGIN UPDATE COMMIT, BEGIN UPDATE(torn) COMMIT, BEGIN UPDATE COMMIT
    assert tm.wal.flushed == len(tm.wal.records) - 1 == 8
    assert [r.lsn for r in tm.wal.durable()] == [0, 1, 2, 3]
    tm.simulate_crash()
    assert len(tm.wal.records) == 4 and tm.wal.flushed == 3


def test_log_record_round_trips_through_the_codec():
    record = seal(LogRecord(3, 7, LogType.UPDATE, table="t", rid=RID(2, 5),
                            before=(5, 50), after=(5, -1)))
    assert checksum(record) == record.checksum
    assert LogRecord(**vars(record)) == record
    for flipped in (replace(record, after=(5, -2)),
                    replace(record, type=LogType.DELETE),
                    replace(record, rid=RID(2, 6))):
        assert checksum(flipped) != record.checksum


def test_crash_undoes_unfinished_transactions():
    host, sm, tm = make_db()
    before = table_rows(sm)

    def work():
        committed = tm.begin()
        yield from tm.insert(committed, "t", (100, 1000))
        yield from tm.commit(committed)
        loser = tm.begin()
        yield from tm.insert(loser, "t", (200, 2000))
        yield from tm.update(loser, "t", RID(0, 0), (0, -999))
        yield from tm.delete(loser, "t", RID(0, 2))
        # crash here: loser never commits

    drive(host, work())
    tm.simulate_crash()

    def recovery():
        undone = yield from tm.recover()
        return undone

    undone = drive(host, recovery())
    rows = table_rows(sm)
    assert (100, 1000) in rows  # committed work survives
    assert (200, 2000) not in rows  # loser insert undone
    assert (0, 0) in rows  # loser update undone
    assert (2, 20) in rows  # loser delete undone
    assert len(undone) == 1
    assert sorted(rows) == sorted(before + [(100, 1000)])


def test_recovery_is_idempotent():
    host, sm, tm = make_db()

    def work():
        loser = tm.begin()
        yield from tm.insert(loser, "t", (300, 3000))

    drive(host, work())
    tm.simulate_crash()
    drive(host, tm.recover())
    rows_after_first = table_rows(sm)
    drive(host, tm.recover())
    assert table_rows(sm) == rows_after_first


def test_interleaved_transactions_recover_independently():
    host, sm, tm = make_db()

    def work():
        a = tm.begin()
        b = tm.begin()
        yield from tm.insert(a, "t", (101, 1))
        yield from tm.insert(b, "t", (102, 2))
        yield from tm.update(a, "t", RID(0, 3), (3, -3))
        yield from tm.commit(a)
        yield from tm.update(b, "t", RID(0, 4), (4, -4))
        # b never commits

    drive(host, work())
    tm.simulate_crash()
    drive(host, tm.recover())
    rows = table_rows(sm)
    assert (101, 1) in rows and (3, -3) in rows  # a committed
    assert (102, 2) not in rows and (4, 40) in rows  # b undone


def test_abort_state_transitions():
    host, sm, tm = make_db()

    def work():
        txn = tm.begin()
        yield from tm.insert(txn, "t", (100, 0))
        yield from tm.abort(txn)
        return txn.state

    assert drive(host, work()) is TransactionState.ABORTED


@settings(max_examples=20, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "update", "delete"]),
            st.integers(0, 19),
        ),
        min_size=1,
        max_size=12,
    ),
    crash_before_commit=st.booleans(),
)
def test_property_crash_recovery_atomicity(ops, crash_before_commit):
    """After crash + recovery, either ALL of a transaction's effects are
    present (committed) or NONE are (loser)."""
    host, sm, tm = make_db()
    before = table_rows(sm)

    def work():
        txn = tm.begin()
        inserted = 100
        for op, slot in ops:
            page = sm.catalog.table("t").heap.page(0)
            if op == "insert":
                nonlocal_insert = (1000 + inserted, 0)
                yield from tm.insert(txn, "t", nonlocal_insert)
                inserted += 1
            elif op == "update":
                if page.get(slot) is not None:
                    yield from tm.update(txn, "t", RID(0, slot), (slot, -1))
            else:
                if page.get(slot) is not None:
                    yield from tm.delete(txn, "t", RID(0, slot))
        if not crash_before_commit:
            yield from tm.commit(txn)

    drive(host, work())
    after_work = table_rows(sm)
    tm.simulate_crash()
    drive(host, tm.recover())
    rows = table_rows(sm)
    if crash_before_commit:
        assert rows == before  # atomicity: nothing survives
    else:
        assert rows == after_work  # durability: everything survives
