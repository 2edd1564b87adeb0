"""Integration tests for the StorageManager facade."""

import pytest

from repro.hw.host import Host, HostConfig
from repro.relational.schema import Schema
from repro.storage.manager import StorageManager
from repro.storage.page import RID, pack_rid


def make_sm(buffer_pages=64, policy="lru"):
    host = Host(HostConfig())
    return host, StorageManager(host, buffer_pages=buffer_pages, policy=policy)


def drive(host, gen):
    proc = host.sim.spawn(gen)
    host.sim.run()
    assert proc.triggered
    return proc.value


SCHEMA = Schema.of("id:int", "grp:int", "name:str:20")
ROWS = [(i, i % 5, f"name{i:04d}") for i in range(100)]


def test_create_and_load_table():
    host, sm = make_sm()
    sm.create_table("t", SCHEMA)
    assert sm.load_table("t", ROWS) == 100
    info = sm.catalog.table("t")
    assert info.num_rows == 100
    assert info.num_pages > 0
    assert info.heap.all_rows() == ROWS


def test_double_load_rejected():
    host, sm = make_sm()
    sm.create_table("t", SCHEMA)
    sm.load_table("t", ROWS)
    with pytest.raises(ValueError):
        sm.load_table("t", ROWS)


def test_clustered_load_sorts_rows():
    host, sm = make_sm()
    sm.create_table("t", SCHEMA, clustered_on=["grp"])
    sm.load_table("t", ROWS)
    stored = sm.catalog.table("t").heap.all_rows()
    assert [r[1] for r in stored] == sorted(r[1] for r in ROWS)


def test_read_table_page_charges_time():
    host, sm = make_sm()
    sm.create_table("t", SCHEMA)
    sm.load_table("t", ROWS)

    def reader():
        page = yield from sm.read_table_page("t", 0)
        return page.rows()

    rows = drive(host, reader())
    assert rows[0] == (0, 0, "name0000")
    assert host.sim.now > 0  # disk time charged
    assert host.disk.stats.blocks_read == 1


def test_fetch_row_by_rid():
    host, sm = make_sm()
    sm.create_table("t", SCHEMA)
    sm.load_table("t", ROWS)

    def fetcher():
        row = yield from sm.fetch_row("t", RID(0, 3))
        return row

    assert drive(host, fetcher()) == ROWS[3]


def test_unclustered_index_range():
    host, sm = make_sm()
    sm.create_table("t", SCHEMA)
    sm.load_table("t", ROWS)
    sm.create_index("t", ["grp"], name="t_grp")

    def prober():
        pairs = yield from sm.index_range("t", "t_grp", lo=2, hi=2)
        return pairs

    pairs = drive(host, prober())
    assert all(key == 2 for key, _rid in pairs)
    assert len(pairs) == 20  # 100 rows, 5 groups


def test_index_range_fetches_match_rows():
    host, sm = make_sm()
    sm.create_table("t", SCHEMA)
    sm.load_table("t", ROWS)
    sm.create_index("t", ["id"], name="t_id")

    def prober():
        pairs = yield from sm.index_range("t", "t_id", lo=10, hi=12)
        rows = []
        for _key, rid in pairs:
            row = yield from sm.fetch_row("t", rid)
            rows.append(row)
        return rows

    assert drive(host, prober()) == ROWS[10:13]


def test_clustered_index_requires_matching_cluster():
    host, sm = make_sm()
    sm.create_table("t", SCHEMA, clustered_on=["id"])
    sm.load_table("t", ROWS)
    with pytest.raises(ValueError):
        sm.create_index("t", ["grp"], clustered=True)
    index = sm.create_index("t", ["id"], clustered=True)
    assert index.clustered


def test_index_created_before_load_is_built():
    host, sm = make_sm()
    sm.create_table("t", SCHEMA)
    sm.create_index("t", ["id"], name="t_id")
    sm.load_table("t", ROWS)

    def prober():
        pairs = yield from sm.index_range("t", "t_id", lo=5, hi=5)
        return pairs

    pairs = drive(host, prober())
    assert len(pairs) == 1


def test_insert_row_maintains_indexes():
    host, sm = make_sm()
    sm.create_table("t", SCHEMA)
    sm.load_table("t", ROWS)
    sm.create_index("t", ["id"], name="t_id")

    def writer():
        rid = yield from sm.insert_row("t", (999, 0, "newrow"))
        return rid

    rid = drive(host, writer())
    tree = sm.catalog.index("t", "t_id").tree
    assert tree.search(999) == [pack_rid(rid)]  # trees hold packed RIDs
    assert host.disk.stats.blocks_written >= 2  # heap page + index leaf


def test_insert_arity_checked():
    host, sm = make_sm()
    sm.create_table("t", SCHEMA)

    def writer():
        yield from sm.insert_row("t", (1,))

    proc = host.sim.spawn(writer())
    with pytest.raises(Exception):
        host.sim.run()


def test_delete_row_unhooks_indexes():
    host, sm = make_sm()
    sm.create_table("t", SCHEMA)
    sm.load_table("t", ROWS)
    sm.create_index("t", ["id"], name="t_id")

    def deleter():
        removed = yield from sm.delete_row("t", RID(0, 0))
        return removed

    assert drive(host, deleter()) is True
    assert sm.catalog.index("t", "t_id").tree.search(0) == []


def test_update_row_moves_index_entry():
    host, sm = make_sm()
    sm.create_table("t", SCHEMA)
    sm.load_table("t", ROWS)
    sm.create_index("t", ["grp"], name="t_grp")

    def updater():
        ok = yield from sm.update_row("t", RID(0, 0), (0, 99, "moved"))
        return ok

    assert drive(host, updater()) is True
    tree = sm.catalog.index("t", "t_grp").tree
    assert pack_rid(RID(0, 0)) in tree.search(99)
    assert pack_rid(RID(0, 0)) not in tree.search(0)


def test_temp_file_lifecycle():
    host, sm = make_sm()
    heap = sm.create_temp_file(row_width=20, label="run")

    def writer():
        count = yield from sm.write_run(heap, [(i,) for i in range(50)])
        return count

    assert drive(host, writer()) == 50
    assert host.disk.stats.blocks_written > 0

    def reader():
        page = yield from sm.read_temp_page(heap, 0)
        return page.rows()[0]

    assert drive(host, reader()) == (0,)
    sm.drop_temp_file(heap)
    assert not sm.pool.contains(heap.file_id, 0)
