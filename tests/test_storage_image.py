"""The loaded-image memo (``repro.storage.image``).

A load that hits the memo must leave a storage manager in *exactly* the
state the load itself would have -- and keep it that way: the systems
adopted from one image share its pages and B+tree node dicts until
they first write them (copy-on-write), and the row tuples, slot lists
and key, bucket and child tuples for good, so one system's write
reaching another is the bug this file exists to catch.

(a) random operation sequences on one system leave its siblings equal
    to a cold-built reference, page for page and leaf for leaf, and a
    write to a block resident in the writer's buffer pool is what its
    next timed read sees;
(b) the same check *fails* once a page or tree-node write skips the
    copy-on-write entry point, or a shared key list or bucket is
    written in place (so (a) can see what it claims to see);
(c) cold-built and adopted systems produce byte-identical traces,
    readings and rows on every engine, under DML and on four hosts;
(d) every keyed field misses when it changes, and the memo is bounded.
"""

import bisect
import hashlib
import random
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseline.engine import IteratorEngine
from repro.engine.qpipe import QPipeConfig, QPipeEngine
from repro.harness.config import (
    SMOKE,
    build_sharded_wisconsin_system,
    build_tpch_system,
    with_overrides,
)
from repro.hw.host import Cluster, ClusterConfig, Host, HostConfig
from repro.obs import Tracer, jsonl_dumps
from repro.relational.expressions import AggSpec, Col
from repro.relational.plans import (
    Aggregate,
    DeleteRows,
    GroupBy,
    IndexScan,
    InsertRows,
    TableScan,
    UpdateRows,
)
from repro.shard import ShardedSystem
from repro.storage import btree, image
from repro.storage.btree import BPlusTree
from repro.storage.file import BlockStore
from repro.storage.manager import StorageManager
from repro.storage.page import RID, Page
from repro.storage.wal import TransactionManager
from repro.workloads.clients import ClosedLoopClient, run_workload
from repro.workloads.tpch import TpchScale, generate_tpch, load_tpch
from repro.workloads.tpch import queries as Q
from repro.workloads.tpch.schema import TPCH_SCHEMAS
from repro.workloads.wisconsin import WisconsinScale, load_wisconsin
from repro.workloads.wisconsin.gen import WISCONSIN_SCHEMA, generate_wisconsin

TINY = TpchScale(0.02)  # 300 orders, ~1,200 lineitems over 18 pages
SEED = 11
#: B+tree order for the isolation tests: a leaf splits after a few inserts.
ORDER = 4
INDEXED = {
    "lineitem": "l_orderkey_idx",
    "orders": "o_orderkey_idx",
    "part": "p_partkey_idx",
    "customer": "c_custkey_idx",
}
ENGINES = {
    "packets": lambda sm: QPipeEngine(sm, QPipeConfig(osp_enabled=True)),
    "iterator": IteratorEngine,
}


@pytest.fixture(autouse=True)
def empty_memo():
    """Every test decides for itself which loads are cold."""
    image._IMAGES.clear()
    yield
    image._IMAGES.clear()


# ---------------------------------------------------------------------------
# Everything a storage manager holds, as plain data
# ---------------------------------------------------------------------------
def values(bucket) -> list:
    """A bucket's packed RIDs, whichever form it has: one int for a
    unique key, a sequence of them for a repeated one."""
    return [bucket] if isinstance(bucket, int) else list(bucket)


def dump(sm: StorageManager) -> dict:
    store = sm.store
    files = {}
    for file_id in store.files():
        blocks = []
        for block_no in range(store.num_blocks(file_id)):
            payload = store.read_block(file_id, block_no)
            if isinstance(payload, Page):
                blocks.append((payload.capacity, list(payload.slots()),
                               list(payload.rows())))
            else:
                blocks.append({
                    part: [values(bucket) for bucket in value]
                    if part == "vals"
                    else list(value) if isinstance(value, (tuple, list))
                    else value
                    for part, value in payload.items()
                })
        files[file_id] = (store.file_name(file_id), blocks)
    tables = []
    for info in sm.catalog.infos():
        tables.append((
            info.name, info.schema, info.clustered_on, info.partitioning,
            info.heap.file_id, info.heap.rows_per_page, info.num_rows,
            info.num_pages,
            [(ix.name, ix.table, ix.key_columns, ix.clustered, ix.schema,
              ix.tree.file_id, ix.tree.order, ix.tree.root_block,
              ix.tree.height, ix.tree.num_keys, ix.tree.num_entries)
             for ix in info.indexes.values()],
        ))
    return {
        "files": files,
        "tables": tables,
        "next_file_id": store.next_file_id,
        "corrupt": dict(store._corrupt),
    }


@dataclass
class System:
    host: Host
    sm: StorageManager
    tm: TransactionManager
    engines: dict = field(default_factory=dict)
    #: Temp files an operation left behind on purpose.
    temps: list = field(default_factory=list)
    fresh_key: int = 10_000_000

    def engine(self, name):
        if name not in self.engines:
            self.engines[name] = ENGINES[name](self.sm)
        return self.engines[name]

    def drive(self, gen):
        proc = self.host.sim.spawn(gen)
        self.host.sim.run_until_done([proc])
        return proc.value

    def next_key(self) -> int:
        self.fresh_key += 1
        return self.fresh_key


def tiny_system(index_order: int = ORDER, seed: int = SEED) -> System:
    host = Host(HostConfig())
    sm = StorageManager(host, buffer_pages=64, index_order=index_order)
    load_tpch(sm, TINY, seed=seed)
    return System(host, sm, TransactionManager(sm))


def count_loads(monkeypatch) -> list:
    """Every ``load_table`` from here on appends to the returned list."""
    calls = []
    original = StorageManager.load_table

    def load_table(self, name, rows):
        calls.append(name)
        return original(self, name, rows)

    monkeypatch.setattr(StorageManager, "load_table", load_table)
    return calls


def test_second_load_adopts_and_equals_the_first(monkeypatch):
    loads = count_loads(monkeypatch)
    cold = tiny_system()
    assert len(loads) == 8 and len(image._IMAGES) == 1
    adopted = tiny_system()
    assert len(loads) == 8  # nothing was loaded from rows again
    assert dump(adopted.sm) == dump(cold.sm)
    for system in (cold, adopted):
        for table, index in INDEXED.items():
            system.sm.catalog.index(table, index).tree.check_invariants()
    [(captured,)] = image._IMAGES.values()
    # Shared by the image, the cold-built and the adopted heap, until
    # either system writes one: the pages.
    frozen = captured.files[
        adopted.sm.table_file_id("orders") - captured.first_file_id].pages
    for system in (cold, adopted):
        heap = system.sm.catalog.table("orders").heap
        assert all(heap.page(b) is page for b, page in enumerate(frozen))
        assert heap.num_pages == len(frozen)
    # And by the trees: the node dicts, whose key, bucket and child
    # sequences are tuples.
    forms = set()
    for table, index in INDEXED.items():
        trees = [s.sm.catalog.index(table, index).tree
                 for s in (cold, adopted)]
        held = captured.files[trees[0].file_id - captured.first_file_id]
        assert len(held.nodes) == trees[0].store.num_blocks(trees[0].file_id)
        for block, node in enumerate(held.nodes):
            assert all(tree.node(block) is node for tree in trees)
            parts = ("keys", "vals") if node["leaf"] else ("keys", "children")
            assert all(type(node[part]) is tuple for part in parts)
            forms.update(map(type, node["vals"]) if node["leaf"] else ())
    assert forms == {int, tuple}  # unique and repeated keys both occur


# ---------------------------------------------------------------------------
# (a) operations on one system never reach its siblings
# ---------------------------------------------------------------------------
def live_rid(heap, pick: int):
    """Some live row of *heap*, chosen by *pick* (None when empty)."""
    for offset in range(heap.num_pages):
        block_no = (pick + offset) % heap.num_pages
        slots = heap.page(block_no).slots()
        for step in range(len(slots)):
            slot = (pick // 7 + step) % len(slots)
            if slots[slot] is not None:
                return RID(block_no, slot)
    return None


def with_key(row: tuple, key) -> tuple:
    return (key,) + row[1:]


def op_insert(system, table, pick, count):
    """Timed inserts: with ORDER=4 a handful splits a leaf, and enough
    of them append a heap page.  Odd picks re-use an existing key, so a
    bucket grows instead of a leaf."""
    heap = system.sm.catalog.table(table).heap
    template = heap.fetch(live_rid(heap, pick))
    for _ in range(count):
        key = template[0] if pick % 2 else system.next_key()
        system.drive(system.sm.insert_row(table, with_key(template, key)))


def op_update(system, table, pick, change_key):
    heap = system.sm.catalog.table(table).heap
    rid = live_rid(heap, pick)
    row = heap.fetch(rid)
    new = with_key(row, system.next_key()) if change_key else (
        row[:-1] + ("changed",))
    assert system.drive(system.sm.update_row(table, rid, new))


def op_delete(system, table, pick, _unused):
    heap = system.sm.catalog.table(table).heap
    assert system.drive(system.sm.delete_row(table, live_rid(heap, pick)))


def op_engine_dml(system, table, pick, which):
    """INSERT, UPDATE and DELETE plans through each of the two engines."""
    engine = system.engine(sorted(ENGINES)[which % 2])
    heap = system.sm.catalog.table(table).heap
    schema = system.sm.catalog.table_schema(table)
    row = heap.fetch(live_rid(heap, pick))
    key_col = Col(schema.names[0])
    kind = (which // 2) % 3
    if kind == 0:
        rows = [with_key(row, system.next_key()) for _ in range(3)]
        assert engine.run_query(InsertRows(table, rows)) == [(3,)]
    elif kind == 1:
        plan = UpdateRows(table, key_col == row[0],
                          lambda r: r[:-1] + ("engine",))
        assert engine.run_query(plan)[0][0] >= 1
    else:
        assert engine.run_query(
            DeleteRows(table, key_col == row[0]))[0][0] >= 1


def op_txn(system, table, pick, crash):
    """A transaction that inserts, updates and deletes, then either
    aborts or is lost in a crash and undone by recovery -- both put the
    deleted row back with ``Page.restore``."""
    tm, heap = system.tm, system.sm.catalog.table(table).heap
    victim = live_rid(heap, pick)
    other = live_rid(heap, pick + 1)
    row = heap.fetch(victim)

    def work():
        txn = tm.begin()
        yield from tm.insert(txn, table, with_key(row, system.next_key()))
        if other != victim:
            yield from tm.update(
                txn, table, other, heap.fetch(other)[:-1] + ("txn",))
        assert (yield from tm.delete(txn, table, victim))
        if not crash:
            yield from tm.abort(txn)

    before = heap.num_rows
    system.drive(work())
    if crash:
        tm.simulate_crash()
        system.drive(tm.recover())
    assert heap.num_rows == before and heap.fetch(victim) == row


def op_extend(system, _table, pick, count):
    """An untimed bulk append to an unindexed table: ``Page.extend`` on
    its half-full last page."""
    heap = system.sm.catalog.table("partsupp").heap
    heap.bulk_load([(pick, i, i, 1.5) for i in range(count)])


def op_corrupt(system, table, pick, permanent):
    heap = system.sm.catalog.table(table).heap
    system.sm.store.corrupt_block(
        heap.file_id, pick % heap.num_pages, permanent=bool(permanent))


def op_temp_file(system, _table, pick, keep):
    temp = system.sm.create_temp_file(row_width=64, label="run")
    system.drive(system.sm.write_run(temp, [(i, pick) for i in range(300)]))
    if keep:
        system.temps.append(temp)
    else:
        system.sm.drop_temp_file(temp)


OPS = {
    "insert": (op_insert, st.integers(1, 90)),
    "update": (op_update, st.booleans()),
    "delete": (op_delete, st.just(0)),
    "engine_dml": (op_engine_dml, st.integers(0, 5)),
    "txn": (op_txn, st.booleans()),
    "extend": (op_extend, st.integers(1, 200)),
    "corrupt": (op_corrupt, st.booleans()),
    "temp_file": (op_temp_file, st.booleans()),
}

operations = st.lists(
    st.sampled_from(sorted(OPS)).flatmap(
        lambda name: st.tuples(
            st.just(name),
            st.sampled_from(sorted(INDEXED)),
            st.integers(0, 10_000),
            OPS[name][1],
        )
    ),
    min_size=1,
    max_size=6,
)


def check_isolation(ops, victim: str):
    """Build cold, adopt B, run *ops* on the victim (the cold-built
    source itself or another adopter), adopt C: every bystander must
    still equal the reference.  Returns the victim and C."""
    image._IMAGES.clear()
    source = tiny_system()
    reference = dump(source.sm)
    before = tiny_system()
    target = source if victim == "source" else tiny_system()
    assert len(image._IMAGES) == 1
    # Marks go last: a marked page fails the next read of it, by design.
    for name, table, pick, arg in sorted(ops, key=lambda op: op[0] == "corrupt"):
        OPS[name][0](target, table, pick, arg)
    after = tiny_system()
    bystanders = [before, after] + ([] if target is source else [source])
    for system in bystanders:
        assert dump(system.sm) == reference, "a write reached a bystander"
    for table, index in INDEXED.items():
        target.sm.catalog.index(table, index).tree.check_invariants()
    return target, after


@settings(max_examples=60, deadline=None)
@given(ops=operations, victim=st.sampled_from(["source", "adopted"]))
def test_operations_on_one_system_never_reach_its_siblings(ops, victim):
    check_isolation(ops, victim)


def test_page_append_and_leaf_split_stay_private():
    """The named worst cases, without relying on what hypothesis draws:
    a heap page appended, leaves split up to a new root, a bucket grown
    and emptied, a key changed."""
    ops = [("insert", "customer", 2, 300), ("insert", "lineitem", 3, 9),
           ("delete", "lineitem", 3, 0), ("update", "orders", 5, True)]
    for victim in ("source", "adopted"):
        target, pristine = check_isolation(ops, victim)
        assert (target.sm.num_pages("customer")
                > pristine.sm.num_pages("customer"))
        grown, tree = (
            s.sm.catalog.index("customer", "c_custkey_idx").tree
            for s in (target, pristine))
        assert grown.height > tree.height
        assert grown.num_keys == tree.num_keys + 300


def test_a_write_to_a_resident_block_is_what_the_next_timed_read_sees():
    """A buffer-pool frame records residency, not content: a heap page
    and an index leaf resident in the writer's pool when it first
    writes them -- so the writes go to private copies in its store --
    read back new through the timed paths, while a sibling adopted from
    the same image, with both resident too, still reads them old."""
    tiny_system()  # cold: captures the image
    writer, sibling = tiny_system(), tiny_system()
    sm = writer.sm
    heap = sm.catalog.table("orders").heap
    tree = sm.catalog.index("orders", "o_orderkey_idx").tree
    rid = RID(0, 0)
    row = heap.fetch(rid)
    key = row[0]
    leaf = tree._find_leaf(key)[0]

    def read(system):
        page = yield from system.sm.read_table_page("orders", rid.block_no)
        pairs = yield from system.sm.index_range(
            "orders", "o_orderkey_idx", lo=key, hi=key)
        return page.get(rid.slot), pairs

    old = (row, [(key, rid)])
    for system in (writer, sibling):
        assert system.drive(read(system)) == old
    shared_page, shared_leaf = heap.page(rid.block_no), tree.node(leaf)
    for block in ((heap.file_id, rid.block_no), (tree.file_id, leaf)):
        assert sm.pool.contains(*block)
        assert sibling.sm.pool.contains(*block)

    changed = row[:-1] + ("written",)
    writer.drive(sm.update_row("orders", rid, changed))
    # The same key again: the leaf's bucket grows, in place.
    added = writer.drive(sm.insert_row("orders", with_key(row, key)))
    assert heap.page(rid.block_no) is not shared_page
    assert tree.node(leaf) is not shared_leaf
    for block in ((heap.file_id, rid.block_no), (tree.file_id, leaf)):
        assert sm.pool.contains(*block)  # resident all along
    assert writer.drive(read(writer)) == (changed, [(key, rid), (key, added)])
    assert sibling.drive(read(sibling)) == old


def test_restoring_a_captured_tombstone_stays_private():
    """A rollback's restore takes its page through copy-on-write too:
    its own delete made the page private in every timed path, so here
    the tombstone comes with the image."""
    system = tiny_system()
    heap = system.sm.catalog.table("orders").heap
    rid = live_rid(heap, 4)
    row = heap.fetch(rid)
    assert system.drive(system.sm.delete_row("orders", rid))
    captured = system.sm.capture()
    twins = []
    for _ in range(2):
        twin = StorageManager(Host(HostConfig()), index_order=ORDER)
        twin.adopt(captured)
        twins.append(twin)
    restored, bystander = twins
    restored.catalog.table("orders").heap.restore_row(rid, row)
    assert restored.catalog.table("orders").heap.fetch(rid) == row
    assert dump(bystander) == dump(system.sm)
    with pytest.raises(KeyError):
        bystander.catalog.table("orders").heap.fetch(rid)


# ---------------------------------------------------------------------------
# (b) the check above can fail: share what must be per system
# ---------------------------------------------------------------------------
WRITES = [("update", "orders", 5, False), ("insert", "lineitem", 3, 2),
          ("delete", "customer", 1, 0)]


def skip_copy_on_write(monkeypatch, kind: type) -> None:
    """Every write to a block of *kind* takes the block as it is, shared
    or not: what a write site that bypassed ``BlockStore.writable``
    would do."""
    copying = BlockStore.writable

    def writable(self, file_id, block_no):
        block = self.read_block(file_id, block_no)
        if isinstance(block, kind):
            return block
        return copying(self, file_id, block_no)

    monkeypatch.setattr(BlockStore, "writable", writable)


def test_sharing_page_objects_is_caught(monkeypatch):
    skip_copy_on_write(monkeypatch, Page)
    with pytest.raises(AssertionError, match="reached a bystander"):
        check_isolation(WRITES, "adopted")


def test_sharing_tree_nodes_is_caught(monkeypatch):
    skip_copy_on_write(monkeypatch, dict)
    with pytest.raises(AssertionError, match="reached a bystander"):
        check_isolation(WRITES, "adopted")


def capture_leaves_as(monkeypatch, convert) -> None:
    """Every tree captured from here on first has *convert* turn each of
    its leaves, in place, into another form: the image, and every system
    that holds it, then has leaves of that form."""
    capturing = BPlusTree.capture

    def capture(self):
        for block in range(self.store.num_blocks(self.file_id)):
            node = self.node(block)
            if node["leaf"]:
                convert(node)
        return capturing(self)

    monkeypatch.setattr(BPlusTree, "capture", capture)


def test_writing_a_shared_leaf_list_in_place_is_caught(monkeypatch):
    """Copy-on-write copies a node's dict, not its sequences, so those
    must be replaced, never written to: an image whose leaves hold
    lists, under a tree that inserts a new key into them in place."""

    def list_contents(node):
        for part in ("keys", "vals"):
            node[part] = list(node[part])

    replacing = BPlusTree.insert

    def insert(self, key, value):
        node = self.store.writable(self.file_id, self._find_leaf(key)[0])
        if type(node["keys"]) is not list or key in node["keys"]:
            return replacing(self, key, value)
        at = bisect.bisect_left(node["keys"], key)
        node["keys"].insert(at, key)
        node["vals"].insert(at, value)
        self.num_keys += 1
        self.num_entries += 1

    capture_leaves_as(monkeypatch, list_contents)
    monkeypatch.setattr(BPlusTree, "insert", insert)
    with pytest.raises(AssertionError, match="reached a bystander"):
        # Even pick: a fresh key, into the last leaf.
        check_isolation([("insert", "customer", 2, 1)], "adopted")


def test_writing_a_bucket_in_place_is_caught(monkeypatch):
    """Buckets are shared, so they must be replaced, never appended to:
    an image whose buckets are lists, under a tree that appends."""

    def list_buckets(node):
        node["vals"] = tuple(
            list(btree.bucket_values(bucket)) for bucket in node["vals"])

    replacing = BPlusTree.insert

    def insert(self, key, value):
        node = self.store.writable(self.file_id, self._find_leaf(key)[0])
        if key not in node["keys"]:
            return replacing(self, key, value)
        node["vals"][node["keys"].index(key)].append(value)
        self.num_entries += 1

    capture_leaves_as(monkeypatch, list_buckets)
    monkeypatch.setattr(BPlusTree, "insert", insert)
    with pytest.raises(AssertionError, match="reached a bystander"):
        # Odd pick: the insert re-uses an existing l_orderkey.
        check_isolation([("insert", "lineitem", 3, 1)], "adopted")


# ---------------------------------------------------------------------------
# (c) cold-built and adopted systems behave byte-identically
# ---------------------------------------------------------------------------
CELL_SCALE = with_overrides(SMOKE, tpch_factor=0.02, buffer_pages=16)


def digest(rows_lists) -> str:
    return hashlib.sha256(repr(rows_lists).encode()).hexdigest()


def tpch_cell(persona: str):
    host, sm, engine = build_tpch_system(CELL_SCALE, persona)
    tracer = Tracer(host.sim)
    builders = [Q.q6, Q.q4_merge, Q.q1, Q.q12]
    clients = [
        ClosedLoopClient(
            i, lambda rng, i=i: builders[i](random.Random(100 + i)),
            queries=1, start_delay=i * 3.0,
        )
        for i in range(len(builders))
    ]
    metrics = run_workload(engine, clients, seed=5)
    readings = (
        metrics.makespan, metrics.blocks_read, metrics.blocks_written,
        metrics.pool_hit_ratio, host.sim._seq,
        [(r.submitted_at, r.started_at, r.finished_at)
         for r in metrics.results],
    )
    return (jsonl_dumps(tracer.events), readings,
            digest([r.rows for r in metrics.results]))


def dml_cell():
    """Lookups, SQL-shaped writes and an aborted transaction, then a
    scan of what they left."""
    host, sm, engine = build_tpch_system(CELL_SCALE, "qpipe")
    tracer = Tracer(host.sim)
    tm = TransactionManager(sm)
    rows = []

    def client():
        for lo in (5, 120, 260):
            result = yield from engine.execute(IndexScan(
                "orders", "o_orderkey_idx", lo=lo, hi=lo + 20, ordered=True))
            rows.append(result.rows)
        for plan in (
            UpdateRows("orders", Col("o_orderkey") == 17,
                       lambda r: r[:3] + (r[3] + 1.0,) + r[4:]),
            InsertRows("customer", [(9_001, "Customer#9001", 3, 10.5,
                                     "BUILDING")]),
            DeleteRows("customer", Col("c_custkey") == 9_001),
        ):
            rows.append((yield from engine.execute(plan)).rows)
        txn = tm.begin()
        yield from tm.insert(txn, "orders", (9_002, 1, "O", 1.0, 9_000,
                                             1995, "1-URGENT", 1, "c"))
        yield from tm.delete(txn, "orders", RID(0, 3))
        yield from tm.abort(txn)
        result = yield from engine.execute(GroupBy(
            TableScan("orders"), ["o_orderstatus"],
            [AggSpec("sum", Col("o_totalprice")), AggSpec("count", None)]))
        rows.append(sorted(result.rows))

    proc = host.sim.spawn(client())
    host.sim.run_until_done([proc])
    readings = (host.sim.now, host.sim._seq, host.disk.stats.blocks_read,
                host.disk.stats.blocks_written, sm.pool.stats.hits,
                len(tm.wal.records), dump(sm))
    return jsonl_dumps(tracer.events), readings, digest(rows)


def sharded_cell():
    scale = with_overrides(SMOKE, wisconsin_big_rows=900, buffer_pages=16)
    cluster, system, executor = build_sharded_wisconsin_system(scale, 4)
    tracer = Tracer(cluster.sim)
    plans = [
        Aggregate(TableScan("big1", predicate=Col("onepercent") < 3),
                  [AggSpec("sum", Col("unique2")), AggSpec("count", None)]),
        GroupBy(TableScan("big2"), ["ten"],
                [AggSpec("sum", Col("unique1")), AggSpec("count", None)]),
    ]
    rows = [executor.run_query(plan) for plan in plans]
    readings = (
        cluster.sim.now, cluster.sim._seq,
        [shard.host.disk.stats.blocks_read for shard in system],
        system.network.stats.bytes_on_wire, executor.stats.strategies,
        [dump(shard.sm) for shard in system],
    )
    return jsonl_dumps(tracer.events), readings, digest(rows)


CELLS = {
    "tpch-packets": lambda: tpch_cell("qpipe"),
    "tpch-iterator": lambda: tpch_cell("dbmsx"),
    "dml": dml_cell,
    "sharded-4h": sharded_cell,
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cold_built_and_adopted_cells_are_byte_identical(name, monkeypatch):
    loads = count_loads(monkeypatch)
    cold = CELLS[name]()
    cold_loads = len(loads)
    assert cold_loads > 0 and cold[0]
    adopted = CELLS[name]()
    assert len(loads) == cold_loads  # the second build loaded nothing
    trace, readings, rows = adopted
    assert trace == cold[0]
    assert readings == cold[1]
    assert rows == cold[2]


# ---------------------------------------------------------------------------
# (d) the key: every field misses, and the memo is bounded
# ---------------------------------------------------------------------------
def test_every_keyed_field_of_load_tpch_misses(monkeypatch):
    loads = count_loads(monkeypatch)

    def build(scale=TINY, seed=SEED, with_indexes=True, order=ORDER,
              first_file_id=0):
        sm = StorageManager(Host(HostConfig()), index_order=order)
        for _ in range(first_file_id):
            sm.store.create_file("pad")
        before = len(loads)
        load_tpch(sm, scale, seed=seed, with_indexes=with_indexes)
        return len(loads) - before, sm

    assert build()[0] == 8  # cold
    assert build()[0] == 0  # the same key again: adopted
    assert build(scale=TpchScale(0.03))[0] == 8
    assert build(seed=SEED + 1)[0] == 8
    assert build(with_indexes=False)[0] == 8
    assert build(order=ORDER + 1)[0] == 8
    first_table = next(iter(TPCH_SCHEMAS))
    loaded, shifted = build(first_file_id=2)
    assert loaded == 8 and shifted.table_file_id(first_table) == 2
    assert build(first_file_id=2)[1].table_file_id(first_table) == 2
    # Every variant is now an entry of its own and hits.
    for kwargs in ({}, {"seed": SEED + 1}, {"with_indexes": False},
                   {"order": ORDER + 1}, {"first_file_id": 2}):
        assert build(**kwargs)[0] == 0
    assert not build(with_indexes=False)[1].catalog.table("orders").indexes


def test_load_wisconsin_is_keyed_by_scale_and_seed(monkeypatch):
    loads = count_loads(monkeypatch)

    def build(rows=400, seed=5):
        sm = StorageManager(Host(HostConfig()))
        before = len(loads)
        load_wisconsin(sm, WisconsinScale(big_rows=rows), seed=seed)
        return len(loads) - before, sm

    cold = build()
    assert cold[0] == 3
    hit = build()
    assert hit[0] == 0 and dump(hit[1]) == dump(cold[1])
    assert build(rows=410)[0] == 3
    assert build(seed=6)[0] == 3


def sharded(hosts: int, make_sm=StorageManager) -> ShardedSystem:
    return ShardedSystem(
        Cluster(ClusterConfig(hosts=hosts)), make_sm, IteratorEngine)


def test_sharded_tables_are_keyed_by_rows_and_partitioning(monkeypatch):
    loads = count_loads(monkeypatch)
    rows = generate_wisconsin(WisconsinScale(big_rows=400), seed=5)["big1"]

    def build(hosts=4, rows=rows, **kwargs):
        system = sharded(hosts)
        before = len(loads)
        system.create_table("big1", WISCONSIN_SCHEMA, rows, **kwargs)
        return len(loads) - before, system

    loaded, cold = build()
    assert loaded == 4
    loaded, hit = build()
    assert loaded == 0
    assert [dump(s.sm) for s in hit] == [dump(s.sm) for s in cold]
    # Partition i of a hit is partition i of the cold build, not another.
    for index, shard in enumerate(hit):
        info = shard.sm.catalog.table("big1")
        assert info.partitioning.index == index
        part = rows[index * 100:(index + 1) * 100]
        assert info.heap.all_rows() == list(part)
    assert build(rows=list(rows))[0] == 0  # the same row objects, a new list
    assert build(hosts=2)[0] == 2  # partition count
    assert build(scheme="replicated")[0] == 4
    assert build(clustered_on=["unique1"])[0] == 4
    # Equal rows that are other objects could differ in a stored byte
    # (1 == 1.0 == True): not the same load.
    assert build(rows=[tuple(list(row)) for row in rows])[0] == 4
    assert build(rows=rows[1:])[0] == 4
    assert build(rows=rows[::-1])[0] == 4


def test_a_repeated_sharded_build_keys_its_rows_by_identity(monkeypatch):
    """The generators hand out their memoised tuples themselves, and
    ``SameRows`` holds a tuple as it is: a repeated build compares one
    pointer, never the rows one by one."""
    loads = count_loads(monkeypatch)
    compared = []

    def is_(a, b):
        compared.append(a)
        return a is b

    monkeypatch.setattr(image, "is_", is_)
    tables = generate_wisconsin(WisconsinScale(big_rows=440), seed=5)
    again = generate_wisconsin(WisconsinScale(big_rows=440), seed=5)
    assert all(type(rows) is tuple for rows in tables.values())
    tpch = generate_tpch(TINY, seed=SEED)
    assert all(type(rows) is tuple for rows in tpch.values())
    assert generate_tpch(TINY, seed=SEED)["lineitem"] is tpch["lineitem"]
    assert all(again[name] is rows for name, rows in tables.items())
    assert image.SameRows(tables["big1"]).rows is tables["big1"]

    def build(rows):
        before = len(loads)
        sharded(4).create_table("big1", WISCONSIN_SCHEMA, rows)
        return len(loads) - before

    assert build(tables["big1"]) == 4
    assert build(again["big1"]) == 0
    assert compared == []
    # A list of the same rows is not the memo's own: the exact
    # element-wise check still runs, and still hits.
    assert build(list(tables["big1"])) == 0
    assert len(compared) == len(tables["big1"])


def test_the_memo_is_bounded_and_evicts_oldest_first(monkeypatch):
    loads = count_loads(monkeypatch)

    def build(seed):
        before = len(loads)
        load_tpch(StorageManager(Host(HostConfig())), TpchScale(0.01),
                  seed=seed)
        return len(loads) - before

    for seed in range(image._IMAGES_MAX + 3):
        assert build(seed) == 8
        assert len(image._IMAGES) <= image._IMAGES_MAX
    assert len(image._IMAGES) == image._IMAGES_MAX
    assert build(image._IMAGES_MAX + 2) == 0  # the newest is still there
    assert build(0) == 8  # the oldest went first


def test_tables_loaded_outside_the_loaders_are_not_memoised():
    sm = StorageManager(Host(HostConfig()))
    sm.create_table("t", WISCONSIN_SCHEMA)
    sm.load_table("t", generate_wisconsin(WisconsinScale(100))["small"])
    assert not image._IMAGES


# ---------------------------------------------------------------------------
# capture / adopt as plain methods
# ---------------------------------------------------------------------------
def test_capture_refuses_files_that_are_not_whole_tables():
    system = tiny_system()
    system.sm.store.create_file("stray")
    with pytest.raises(ValueError, match="whole tables"):
        system.sm.capture()
    other = tiny_system()
    first = other.sm.store.next_file_id
    other.sm.create_index("orders", ["o_custkey"], name="late_idx")
    with pytest.raises(ValueError, match="whole tables"):
        other.sm.capture(first)  # an index on a table from before


def test_adopt_refuses_a_store_at_another_file_id_or_a_name_clash():
    captured = tiny_system().sm.capture()
    sm = StorageManager(Host(HostConfig()), index_order=ORDER)
    sm.store.create_file("pad")
    with pytest.raises(ValueError, match="file id"):
        sm.adopt(captured)
    clash = StorageManager(Host(HostConfig()), index_order=ORDER)
    clash.adopt(captured)
    with pytest.raises(ValueError):
        clash.adopt(captured)


def test_an_image_of_a_mutated_system_carries_its_tombstones_and_counts():
    """``capture`` is not only for pristine loads."""
    system = tiny_system()
    op_delete(system, "orders", 4, 0)
    op_insert(system, "orders", 6, 5)
    op_update(system, "customer", 2, True)
    captured = system.sm.capture()
    twin = StorageManager(Host(HostConfig()), index_order=ORDER)
    twin.adopt(captured)
    assert dump(twin) == dump(system.sm)
    op_insert(system, "orders", 8, 40)
    assert dump(twin) != dump(system.sm)
    again = StorageManager(Host(HostConfig()), index_order=ORDER)
    again.adopt(captured)
    assert dump(again) == dump(twin)
