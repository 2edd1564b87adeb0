"""The block store and heap files.

The :class:`BlockStore` is the "platter": an in-memory array of block
payloads per file.  It holds the *content*, and it is the content's only
home; the :class:`~repro.hw.disk.Disk` charges the *time*, and the buffer
pool decides which blocks are resident and what a read of one costs.

A :class:`HeapFile` is a sequence of :class:`~repro.storage.page.Page`
blocks belonging to one table (or one sorted run, or one B+tree level --
anything page-shaped).
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Tuple,
)

from repro.faults.errors import PageCorruptError
from repro.storage.page import Page, RID


class BlockStore:
    """All files' block payloads, addressed by (file_id, block_no).

    File ids are allocated monotonically.  Payloads are arbitrary objects
    with a ``copy()``: :class:`Page` for heap files, node dicts for
    B+trees.

    A file captured into an image (:meth:`freeze`) or adopted from one
    (:meth:`share`) holds the image's blocks, which every system that
    holds them shares and nobody writes.  So every write takes its block
    from :meth:`writable`, which swaps a private copy into this store's
    block list the first time a shared block is written, and hands out
    the block as it is after that (and for every block made since).

    Corruption is simulated with per-block marks rather than by mutating
    payloads: pages are shared live objects here, so a content checksum
    would legitimately change under updates.  A marked block fails
    :meth:`verify_block` (the buffer pool verifies after every disk read);
    a *transient* mark clears on first detection -- the retry then reads a
    good copy -- while a *permanent* one persists.
    """

    def __init__(self):
        self._files: Dict[int, List[Any]] = {}
        self._names: Dict[int, str] = {}
        self._next_id = 0
        #: file_id -> the image blocks the file was frozen or adopted as.
        self._shared: Dict[int, Tuple[Any, ...]] = {}
        #: (file_id, block_no) -> permanent? for corruption marks.
        self._corrupt: Dict[Tuple[int, int], bool] = {}

    def create_file(self, name: str = "file") -> int:
        file_id = self._next_id
        self._next_id += 1
        self._files[file_id] = []
        self._names[file_id] = name
        return file_id

    @property
    def next_file_id(self) -> int:
        """The id the next :meth:`create_file` will return."""
        return self._next_id

    def drop_file(self, file_id: int) -> None:
        self._files.pop(file_id, None)
        self._names.pop(file_id, None)
        self._shared.pop(file_id, None)

    def file_name(self, file_id: int) -> str:
        return self._names.get(file_id, f"file#{file_id}")

    def num_blocks(self, file_id: int) -> int:
        return len(self._files[file_id])

    def append_block(self, file_id: int, payload: Any) -> int:
        blocks = self._files[file_id]
        blocks.append(payload)
        return len(blocks) - 1

    def freeze(self, file_id: int) -> Tuple[Any, ...]:
        """The blocks of *file_id* as they are now, for an image to hold:
        this store shares them with the image's adopters from here on,
        and :meth:`writable` copies each at its next write here."""
        blocks = self._shared[file_id] = tuple(self._files[file_id])
        return blocks

    def share(self, file_id: int, blocks: Tuple[Any, ...]) -> None:
        """Make *blocks* the whole content of *file_id* without copying
        one: they are an image's, shared with every other store that
        adopts it, and :meth:`writable` copies each at its first write
        here."""
        self._files[file_id] = list(blocks)
        self._shared[file_id] = blocks

    def read_block(self, file_id: int, block_no: int) -> Any:
        blocks = self._files[file_id]
        if not 0 <= block_no < len(blocks):
            raise IndexError(
                f"block {block_no} out of range for {self.file_name(file_id)} "
                f"({len(blocks)} blocks)"
            )
        return blocks[block_no]

    def writable(self, file_id: int, block_no: int) -> Any:
        """The block to write in place: this store's own copy of it,
        made now if the block is still the image's (see :meth:`freeze`)."""
        block = self.read_block(file_id, block_no)
        shared = self._shared.get(file_id)
        if (shared is not None and block_no < len(shared)
                and shared[block_no] is block):
            block = self._files[file_id][block_no] = block.copy()
        return block

    def files(self) -> Iterator[int]:
        return iter(self._files)

    # -- corruption marks (fault injection) ------------------------------
    def corrupt_block(
        self, file_id: int, block_no: int, permanent: bool = False
    ) -> None:
        """Mark a block so its next verification fails its checksum."""
        self._corrupt[(file_id, block_no)] = permanent

    def verify_block(self, file_id: int, block_no: int) -> None:
        """Checksum-verify a block; raises :exc:`PageCorruptError` if bad.

        A transient mark is consumed by the failed verification (the
        next read sees a clean copy); a permanent mark stays.
        """
        permanent = self._corrupt.get((file_id, block_no))
        if permanent is None:
            return
        if not permanent:
            del self._corrupt[(file_id, block_no)]
        raise PageCorruptError(file_id, block_no, transient=not permanent)


class HeapFile:
    """A table's pages inside a :class:`BlockStore`.

    Rows are appended page by page; the file never reuses tombstoned
    slots (simple, and sufficient for the read-mostly workloads the paper
    evaluates).
    """

    def __init__(self, store: BlockStore, name: str, rows_per_page: int):
        if rows_per_page < 1:
            raise ValueError("rows_per_page must be >= 1")
        self.store = store
        self.name = name
        self.rows_per_page = rows_per_page
        self.file_id = store.create_file(name)
        self._row_count = 0

    @property
    def num_pages(self) -> int:
        return self.store.num_blocks(self.file_id)

    @property
    def num_rows(self) -> int:
        return self._row_count

    # -- bulk, non-timed operations (dataset loading) --------------------
    def append_row(self, row: tuple) -> RID:
        """Append a row, creating a new page when the last one is full.

        This is an *untimed* operation used for dataset loading; timed
        inserts go through the storage manager, which charges the disk.
        """
        last_no = self.num_pages - 1
        if last_no < 0 or self.page(last_no).full:
            page = Page(self.rows_per_page)
            last_no = self.store.append_block(self.file_id, page)
        else:
            page = self.store.writable(self.file_id, last_no)
        slot = page.insert(row)
        self._row_count += 1
        return RID(last_no, slot)

    def bulk_load(self, rows) -> int:
        """Append many rows; returns the number loaded.

        Fills whole pages directly instead of taking the per-row append
        path (a read-modify-write per row); the resulting page/slot
        layout is identical.
        """
        rows = rows if isinstance(rows, (list, tuple)) else list(rows)
        total = len(rows)
        i = 0
        if self.num_pages:
            last_no = self.num_pages - 1
            i += self.store.writable(self.file_id, last_no).extend(rows)
        per = self.rows_per_page
        while i < total:
            page = Page(per)
            taken = page.extend(rows[i:i + per])
            self.store.append_block(self.file_id, page)
            i += taken
        self._row_count += total
        return total

    # -- row writes (untimed; the storage manager charges the write) -----
    def update_row(self, rid: RID, row: tuple) -> None:
        """Overwrite the live row at *rid*."""
        self.store.writable(self.file_id, rid.block_no).update(rid.slot, row)

    def tombstone_row(self, rid: RID) -> None:
        """Tombstone the live row at *rid*."""
        self.store.writable(self.file_id, rid.block_no).delete(rid.slot)
        self._row_count -= 1

    def restore_row(self, rid: RID, row: tuple) -> None:
        """Un-tombstone *rid* (transaction rollback of a delete)."""
        self.store.writable(self.file_id, rid.block_no).restore(rid.slot, row)
        self._row_count += 1

    # -- images (see repro.storage.image) --------------------------------
    def capture(self) -> "HeapImage":
        return HeapImage(
            self.name,
            self.rows_per_page,
            self._row_count,
            self.store.freeze(self.file_id),
        )

    # -- direct (untimed) access, used by loaders and tests --------------
    def page(self, block_no: int) -> Page:
        return self.store.read_block(self.file_id, block_no)

    def fetch(self, rid: RID) -> tuple:
        row = self.page(rid.block_no).get(rid.slot)
        if row is None:
            raise KeyError(f"{rid} is a tombstone in {self.name}")
        return row

    def all_rows(self) -> List[tuple]:
        """Every live row in file order (untimed; for tests/loaders)."""
        rows: List[tuple] = []
        for block_no in range(self.num_pages):
            rows.extend(self.page(block_no).rows())
        return rows

    def rids_and_rows(self) -> Iterator[Tuple[RID, tuple]]:
        for block_no in range(self.num_pages):
            for slot, row in self.page(block_no).items():
                yield RID(block_no, slot), row

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<HeapFile {self.name}: {self.num_rows} rows, {self.num_pages} pages>"


class HeapImage(NamedTuple):
    """A heap file's content at one instant, shareable between systems.

    It holds the captured heap's own pages, frozen: the captured heap
    and every adopting system's block list start out over these very
    ``Page`` objects, and :meth:`BlockStore.writable` gives each a copy
    of one at its first write to it; the row count is its own.
    """

    name: str
    rows_per_page: int
    num_rows: int
    #: One frozen page per block.
    pages: Tuple[Page, ...]

    def adopt(self, store: BlockStore) -> HeapFile:
        """A new heap file in *store* with this content: one C-level
        list copy, nothing per page."""
        heap = HeapFile(store, self.name, self.rows_per_page)
        store.share(heap.file_id, self.pages)
        heap._row_count = self.num_rows
        return heap
