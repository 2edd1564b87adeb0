"""The storage manager facade -- what BerkeleyDB is to the paper's QPipe.

Everything engines need from storage goes through here:

* DDL + bulk loading (untimed; datasets exist before the clock starts),
* timed page reads through the buffer pool,
* timed index traversals (root-to-leaf, then leaf chain),
* timed inserts/updates/deletes with index maintenance,
* temp files for sort runs and OSP materialisations,
* the table lock manager,
* whole loaded tables as shareable images (``capture`` / ``adopt``; see
  :mod:`repro.storage.image`).
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Generator, List, Optional, Sequence

from repro.hw.host import Host
from repro.relational import compile
from repro.relational.plans import DeleteRows, InsertRows, PlanNode, UpdateRows
from repro.relational.schema import Schema
from repro.storage.btree import BPlusTree, bucket_values
from repro.storage.bufferpool import BufferPool
from repro.storage.catalog import Catalog, IndexInfo, TableInfo
from repro.storage.file import BlockStore, HeapFile
from repro.storage.image import IndexImage, StorageImage, TableImage
from repro.storage.locks import LockManager, LockMode
from repro.storage.page import (
    RID, pack_rid, packed_rids, rows_per_page, unpack_rid, unpack_rids,
)
from repro.storage.partition import PartitionInfo


class StorageManager:
    """One database instance on one simulated host.

    Args:
        host: the simulated machine (clock, disk, CPU).
        buffer_pages: buffer pool frames.
        policy: replacement policy name (``lru`` models BerkeleyDB,
            ``arc`` models DBMS X's stronger pool).
        index_order: B+tree node fanout.
    """

    def __init__(
        self,
        host: Host,
        buffer_pages: int = 256,
        policy: str = "lru",
        index_order: int = 64,
        use_scan_ring: bool = True,
        scan_window_shared: bool = False,
        scan_ring_fraction: float = 0.125,
    ):
        self.host = host
        self.sim = host.sim
        self.store = BlockStore()
        self.pool = BufferPool(
            sim=host.sim,
            disk=host.disk,
            store=self.store,
            capacity=buffer_pages,
            policy_name=policy,
            page_hit_cost=host.config.page_hit_cost,
            use_scan_ring=use_scan_ring,
            scan_window_shared=scan_window_shared,
            scan_ring_fraction=scan_ring_fraction,
        )
        self.catalog = Catalog()
        self.locks = LockManager(host.sim)
        self.index_order = index_order
        self._temp_count = 0

    # ------------------------------------------------------------------
    # DDL and loading (untimed: datasets pre-exist the measured run)
    # ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        schema: Schema,
        clustered_on: Optional[Sequence[str]] = None,
        partitioning: Optional["PartitionInfo"] = None,
    ) -> TableInfo:
        heap = HeapFile(self.store, name, rows_per_page(schema.row_width))
        info = TableInfo(
            name=name,
            schema=schema,
            heap=heap,
            clustered_on=list(clustered_on) if clustered_on else None,
            partitioning=partitioning,
        )
        self.catalog.add_table(info)
        return info

    def load_table(self, name: str, rows: Sequence[tuple]) -> int:
        """Bulk-load rows (sorted on the clustering key when declared)."""
        info = self.catalog.table(name)
        if info.num_rows:
            raise ValueError(f"table {name!r} is already loaded")
        if info.clustered_on:
            rows = sorted(rows, key=info.schema.key_of(info.clustered_on))
        count = info.heap.bulk_load(rows)
        # Any pre-existing indexes must be (re)built over the new data.
        for index in info.indexes.values():
            self._build_index(info, index)
        return count

    def create_index(
        self,
        table: str,
        columns: Sequence[str],
        name: Optional[str] = None,
        clustered: bool = False,
    ) -> IndexInfo:
        info = self.catalog.table(table)
        columns = list(columns)
        if name is None:
            name = f"{table}_{'_'.join(columns)}_idx"
        if name in info.indexes:
            raise ValueError(f"index {name!r} already exists on {table!r}")
        if clustered:
            if info.clustered_on != columns:
                raise ValueError(
                    f"clustered index on {columns} requires the table to be "
                    f"clustered on the same columns (is: {info.clustered_on})"
                )
        tree = BPlusTree(self.store, name, order=self.index_order)
        index = IndexInfo(
            name=name,
            table=table,
            key_columns=columns,
            tree=tree,
            schema=info.schema,
            clustered=clustered,
        )
        info.indexes[name] = index
        if info.num_rows:
            self._build_index(info, index)
        return index

    def _build_index(self, info: TableInfo, index: IndexInfo) -> None:
        key = index.key_of
        # Keys and packed RIDs as parallel lists, page by page and all at
        # C level (no frame and no pair tuple per row: an index build is
        # mostly allocation, and the collector's work is proportional to
        # it), then a stable sort of the *positions* on the key alone.
        # The heap iterates in ascending RID order, so ties keep that
        # order -- the same key-then-RID ordering as sorting (key, rid)
        # tuples, without any of the RID.__lt__ tie-break calls.
        heap = info.heap
        keys: List[Any] = []
        rids: List[int] = []
        for block_no in range(heap.num_pages):
            page = heap.page(block_no)
            keys += map(key, page.rows())
            rids += packed_rids(block_no, page)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        if index.tree.num_keys:
            # Rebuild from scratch (load after create_index).
            index.tree = BPlusTree(self.store, index.name, self.index_order)
            info.indexes[index.name] = index
        index.tree.bulk_build(
            list(map(keys.__getitem__, order)),
            list(map(rids.__getitem__, order)),
        )

    # ------------------------------------------------------------------
    # Images (untimed, like loading)
    # ------------------------------------------------------------------
    def capture(self, since: int = 0) -> StorageImage:
        """An image of every file created from file id *since* on.

        Those files must be exactly the heaps and index trees of whole
        tables (no temp file, no index on an older table): an image is
        adopted as a unit, file id for file id.  Nothing is copied: the
        image holds this store's own blocks, and the store shares them
        copy-on-write from then on (:meth:`BlockStore.freeze`).
        """
        files = {}
        tables = []
        for info in self.catalog.infos():
            if info.heap.file_id < since:
                continue
            files[info.heap.file_id] = info.heap
            for index in info.indexes.values():
                files[index.tree.file_id] = index.tree
            tables.append(TableImage(
                info.name,
                info.schema,
                tuple(info.clustered_on) if info.clustered_on else None,
                info.partitioning,
                info.heap.file_id - since,
                tuple(
                    IndexImage(
                        index.name, tuple(index.key_columns),
                        index.clustered, index.tree.file_id - since,
                    )
                    for index in info.indexes.values()
                ),
            ))
        wanted = range(since, self.store.next_file_id)
        if sorted(files) != list(wanted):
            raise ValueError(
                f"files {wanted.start}..{wanted.stop - 1} are not exactly "
                f"the files of whole tables (those are {sorted(files)})"
            )
        return StorageImage(
            since,
            tuple(files[file_id].capture() for file_id in wanted),
            tuple(tables),
        )

    def adopt(self, image: StorageImage) -> None:
        """Create the image's tables here, in the state they were
        captured in: same file ids, block numbers, counts and catalog
        order as loading them would have produced."""
        if self.store.next_file_id != image.first_file_id:
            raise ValueError(
                f"image starts at file id {image.first_file_id}, this "
                f"store is at {self.store.next_file_id}"
            )
        for table in image.tables:
            if table.name in self.catalog:
                raise ValueError(f"table {table.name!r} already exists")
        files = [file.adopt(self.store) for file in image.files]
        for table in image.tables:
            info = TableInfo(
                name=table.name,
                schema=table.schema,
                heap=files[table.heap],
                clustered_on=(
                    list(table.clustered_on) if table.clustered_on else None
                ),
                partitioning=table.partitioning,
            )
            for index in table.indexes:
                info.indexes[index.name] = IndexInfo(
                    name=index.name,
                    table=table.name,
                    key_columns=list(index.key_columns),
                    tree=files[index.tree],
                    schema=table.schema,
                    clustered=index.clustered,
                )
            self.catalog.add_table(info)

    # ------------------------------------------------------------------
    # Timed reads
    # ------------------------------------------------------------------
    def read_table_page(
        self, table: str, block_no: int, pin: bool = False,
        scan: bool = False, stream: Any = None,
    ) -> Generator:
        """Coroutine: one heap page of *table* (returns the Page).

        ``scan=True`` flags a sequential-scan read; ``stream`` names the
        scan so its pages live in a private ring (see BufferPool).
        """
        heap = self.catalog.table(table).heap
        page = yield from self.pool.get_page(
            heap.file_id, block_no, pin=pin, cold=scan, stream=stream
        )
        return page

    def fetch_row(self, table: str, rid: RID) -> Generator:
        """Coroutine: one row by RID (reads its page through the pool)."""
        page = yield from self.read_table_page(table, rid.block_no)
        row = page.get(rid.slot)
        if row is None:
            raise KeyError(f"{rid} is a tombstone in {table}")
        return row

    def index_range(
        self,
        table: str,
        index: str,
        lo: Any = None,
        hi: Any = None,
        lo_open: bool = False,
        hi_open: bool = False,
    ) -> Generator:
        """Coroutine: all (key, RID) pairs in the range, in key order.

        This is the paper's unclustered-scan *phase one*: probe the index
        and build the full matching RID list (a full-overlap operation).
        Charges one buffer-pool access per node on the root-to-leaf path
        and per leaf visited.
        """
        info = self.catalog.index(table, index)
        tree = info.tree
        # Root-to-leaf descent.
        block = tree.root_block
        node = yield from self.pool.get_page(tree.file_id, block)
        while not node["leaf"]:
            block = (
                tree.child_for(node, lo)
                if lo is not None
                else tree.leftmost_child(node)
            )
            node = yield from self.pool.get_page(tree.file_id, block)
        # Leaf chain walk, keys and packed RIDs side by side.
        keys: List[Any] = []
        packed: List[int] = []
        while True:
            past_hi = False
            for key, bucket in zip(node["keys"], node["vals"]):
                if lo is not None and (key < lo or (lo_open and key == lo)):
                    continue
                if hi is not None and (key > hi or (hi_open and key == hi)):
                    past_hi = True
                    break
                values = bucket_values(bucket)
                keys += repeat(key, len(values))
                packed += values
            nxt = node["next"]
            if past_hi or nxt < 0:
                return list(zip(keys, unpack_rids(packed)))
            node = yield from self.pool.get_page(tree.file_id, nxt)

    def clustered_start_page(self, table: str, index: str, lo: Any) -> Generator:
        """Coroutine: the heap page where key range ``[lo, ...`` begins.

        Descends the clustered index root-to-leaf (timed).  Returns 0 for
        an unbounded scan and ``num_pages`` when ``lo`` lies past the end.
        """
        info = self.catalog.index(table, index)
        if not info.clustered:
            raise ValueError(f"{index!r} is not a clustered index")
        if lo is None:
            return 0
        tree = info.tree
        block = tree.root_block
        node = yield from self.pool.get_page(tree.file_id, block)
        while not node["leaf"]:
            block = tree.child_for(node, lo)
            node = yield from self.pool.get_page(tree.file_id, block)
        for key, bucket in zip(node["keys"], node["vals"]):
            if key >= lo:
                return unpack_rid(bucket_values(bucket)[0]).block_no
        if node["next"] >= 0:
            nxt = yield from self.pool.get_page(tree.file_id, node["next"])
            if nxt["keys"]:
                bucket = nxt["vals"][0]
                return unpack_rid(bucket_values(bucket)[0]).block_no
        return self.num_pages(table)

    # ------------------------------------------------------------------
    # Timed writes (section 4.3.4: updates go through locking upstream)
    # ------------------------------------------------------------------
    def insert_row(self, table: str, row: tuple) -> Generator:
        """Coroutine: append one row, maintain indexes, charge writes."""
        info = self.catalog.table(table)
        if len(row) != len(info.schema):
            raise ValueError(
                f"row arity {len(row)} != schema arity {len(info.schema)}"
            )
        rid = info.heap.append_row(row)
        yield from self.pool.write_page(info.heap.file_id, rid.block_no)
        packed = pack_rid(rid)
        for index in info.indexes.values():
            index.tree.insert(index.key_of(row), packed)
            # Charge one leaf write per maintained index.
            yield from self.host.disk.write(index.tree.file_id, 0)
        return rid

    def delete_row(self, table: str, rid: RID) -> Generator:
        """Coroutine: tombstone one row and unhook it from indexes."""
        info = self.catalog.table(table)
        page = yield from self.read_table_page(table, rid.block_no)
        row = page.get(rid.slot)
        if row is None:
            return False
        info.heap.tombstone_row(rid)
        yield from self.pool.write_page(info.heap.file_id, rid.block_no)
        packed = pack_rid(rid)
        for index in info.indexes.values():
            index.tree.delete(index.key_of(row), packed)
            yield from self.host.disk.write(index.tree.file_id, 0)
        return True

    def update_row(self, table: str, rid: RID, new_row: tuple) -> Generator:
        """Coroutine: in-place update (key changes update the indexes)."""
        info = self.catalog.table(table)
        page = yield from self.read_table_page(table, rid.block_no)
        old_row = page.get(rid.slot)
        if old_row is None:
            return False
        info.heap.update_row(rid, new_row)
        yield from self.pool.write_page(info.heap.file_id, rid.block_no)
        packed = pack_rid(rid)
        for index in info.indexes.values():
            old_key, new_key = index.key_of(old_row), index.key_of(new_row)
            if old_key != new_key:
                index.tree.delete(old_key, packed)
                index.tree.insert(new_key, packed)
                yield from self.host.disk.write(index.tree.file_id, 0)
        return True

    def apply_dml(self, plan: PlanNode, owner: Any) -> Generator:
        """Coroutine: run one INSERT / UPDATE / DELETE plan node under
        *owner*'s exclusive table lock (section 4.3.4); returns the rows
        affected.  The release is tolerant: an abort's lock sweep may
        get there before the interrupted writer unwinds."""
        if not isinstance(plan, (InsertRows, UpdateRows, DeleteRows)):
            raise TypeError(f"{type(plan).__name__} is not a DML plan")
        table = plan.table
        yield self.locks.acquire(owner, table, LockMode.EXCLUSIVE)
        try:
            if isinstance(plan, InsertRows):
                for row in plan.rows:
                    yield from self.insert_row(table, row)
                return len(plan.rows)
            info = self.catalog.table(table)
            matching = compile.filter_items(plan.predicate, info.schema)
            affected = 0
            for block in range(info.num_pages):
                page = yield from self.read_table_page(table, block)
                for slot, row in matching(page.slots()):
                    rid = RID(block, slot)
                    if isinstance(plan, UpdateRows):
                        yield from self.update_row(table, rid, plan.apply(row))
                    else:
                        yield from self.delete_row(table, rid)
                    affected += 1
            return affected
        finally:
            self.locks.release_if_held(owner, table)

    # ------------------------------------------------------------------
    # Temp files (sort runs, OSP materialisations)
    # ------------------------------------------------------------------
    def create_temp_file(self, row_width: int, label: str = "tmp") -> HeapFile:
        self._temp_count += 1
        name = f"{label}#{self._temp_count}"
        return HeapFile(self.store, name, rows_per_page(row_width))

    def drop_temp_file(self, heap: HeapFile) -> None:
        self.pool.invalidate_file(heap.file_id)
        self.store.drop_file(heap.file_id)

    def write_run(self, heap: HeapFile, rows: Sequence[tuple]) -> Generator:
        """Coroutine: append *rows* to a temp heap, charging page writes."""
        if not rows:
            return 0
        first_new_page = heap.num_pages
        for row in rows:
            heap.append_row(row)
        for block_no in range(max(0, first_new_page - 1), heap.num_pages):
            yield from self.host.disk.write(heap.file_id, block_no)
        return len(rows)

    def read_temp_page(self, heap: HeapFile, block_no: int) -> Generator:
        """Coroutine: one temp-file page through the buffer pool."""
        page = yield from self.pool.get_page(heap.file_id, block_no)
        return page

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def num_pages(self, table: str) -> int:
        return self.catalog.table(table).num_pages

    def num_rows(self, table: str) -> int:
        return self.catalog.table(table).num_rows

    def table_file_id(self, table: str) -> int:
        return self.catalog.table(table).heap.file_id
