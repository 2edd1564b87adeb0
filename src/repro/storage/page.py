"""Pages, slots, and record identifiers.

A page holds up to ``capacity`` rows in slot order.  Rows are plain Python
tuples; the *declared* row width (bytes) of the owning table determines how
many rows fit an 8 KB page, which is what keeps the simulated table sizes
proportional to the paper's datasets.
"""

from __future__ import annotations

from functools import partial
from itertools import groupby, repeat
from operator import itemgetter
from typing import (
    Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

#: Simulated page size in bytes (BerkeleyDB's common default).
PAGE_SIZE = 8192


class RID(NamedTuple):
    """A record identifier: (block number, slot within the page).

    RIDs order by page first, which is exactly the property the paper's
    unclustered index scan exploits when it sorts the matching RID list
    "on ascending page number to avoid multiple visits on the same page".
    A NamedTuple rather than a dataclass: RIDs are constructed and
    compared in bulk (index builds, RID-list sorts), where tuple's
    C-level __new__/__lt__ beat generated dataclass methods by an order
    of magnitude.
    """

    block_no: int
    slot: int

    def __repr__(self):
        return f"RID({self.block_no},{self.slot})"


#: ``RID(*pair)`` without the namedtuple's Python-level ``__new__``.
_rid_of_pair = partial(tuple.__new__, RID)


def pack_rid(rid: RID) -> int:
    """*rid* as one int, ``block_no * PAGE_SIZE + slot``: what a B+tree
    stores.  A page never holds more rows than ``PAGE_SIZE`` (see
    :func:`rows_per_page`), so every slot is below it and packed RIDs
    order exactly as the RIDs do."""
    block_no, slot = rid
    if not 0 <= slot < PAGE_SIZE:
        raise ValueError(f"slot {slot} does not pack: 0 <= slot < {PAGE_SIZE}")
    return block_no * PAGE_SIZE + slot


def unpack_rid(packed: int) -> RID:
    """The inverse of :func:`pack_rid`."""
    return _rid_of_pair(divmod(packed, PAGE_SIZE))


def unpack_rids(packed: Iterable[int]) -> Iterator[RID]:
    """:func:`unpack_rid` over many, at C level (no frame per RID)."""
    return map(_rid_of_pair, map(divmod, packed, repeat(PAGE_SIZE)))


def packed_rids(block_no: int, page: Page) -> Iterable[int]:
    """:func:`pack_rid` of every live row of *page*, block *block_no*,
    in slot order -- at C level for a page without tombstones: an index
    build makes one per row."""
    first = block_no * PAGE_SIZE
    slots = page.slots()
    if len(page.rows()) == len(slots):
        return range(first, first + len(slots))
    return [first + slot for slot, row in enumerate(slots) if row is not None]


def rid_runs(
    rids: Sequence[RID], start: int, stop: int
) -> Iterator[Tuple[int, List[int], int]]:
    """``(block_no, slots, end)`` for each maximal run of consecutive
    RIDs of ``rids[start:stop]`` on one page -- one page visit per run,
    ``end`` being the position after it.  The unclustered index scan's
    fetch loop: a page-sorted RID list visits every page once, a
    key-ordered one as often as the keys hop between pages."""
    end = start
    for block_no, run in groupby(rids[start:stop], key=itemgetter(0)):
        slots = [slot for _block_no, slot in run]
        end += len(slots)
        yield block_no, slots, end


class Page:
    """A slotted page of rows.

    Deleted slots become ``None`` tombstones so that live RIDs never move
    (no slot compaction), matching the stability guarantees a storage
    manager must give its indexes.

    Every write *replaces* the slot list instead of mutating it, so the
    lists :meth:`rows` and :meth:`slots` hand out are snapshots for free:
    a reader may hold one across a simulated wait while writers change
    the page.  It is also what lets a loaded page be shared: the system a
    :class:`~repro.storage.image.StorageImage` was captured from and the
    systems adopted from it hold the image's (frozen) ``Page`` objects
    themselves, and a system's first
    write to one goes to a :meth:`copy` that
    :meth:`~repro.storage.file.BlockStore.writable` swaps in.  A frozen
    page is never written; only its :meth:`rows` cache fills, with the
    same list for every reader.
    """

    __slots__ = ("capacity", "_slots", "_live")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"page capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._slots: List[Optional[tuple]] = []
        #: What :meth:`rows` returned since the last write, if anything.
        self._live: Optional[List[tuple]] = None

    def copy(self) -> "Page":
        """A page of its own over this page's slot list: every write
        replaces the list, so neither page ever sees the other's
        writes."""
        page = Page(self.capacity)
        page._slots = self._slots
        return page

    @property
    def num_slots(self) -> int:
        """Total slots including tombstones."""
        return len(self._slots)

    @property
    def num_live(self) -> int:
        return len(self.rows())

    @property
    def full(self) -> bool:
        return len(self._slots) >= self.capacity

    def _store(self, slot: int, value: Optional[tuple]) -> None:
        """Write one slot into a *new* slot list (replace-on-write)."""
        slots = self._slots[:]
        slots[slot] = value
        self._slots = slots
        self._live = None

    def insert(self, row: tuple) -> int:
        """Append *row*; returns the slot number.

        Raises ValueError when the page is full.
        """
        if self.full:
            raise ValueError("page is full")
        self._slots = [*self._slots, row]
        self._live = None
        return len(self._slots) - 1

    def get(self, slot: int) -> Optional[tuple]:
        """The row at *slot*, or None for a tombstone."""
        if not 0 <= slot < len(self._slots):
            raise IndexError(f"slot {slot} out of range 0..{len(self._slots)-1}")
        return self._slots[slot]

    def live(self, slots: Iterable[int]) -> List[tuple]:
        """The rows at *slots*, in that order, tombstones skipped."""
        return [
            row for row in map(self._slots.__getitem__, slots)
            if row is not None
        ]

    def update(self, slot: int, row: tuple) -> None:
        if not 0 <= slot < len(self._slots):
            raise IndexError(f"slot {slot} out of range")
        if self._slots[slot] is None:
            raise ValueError(f"slot {slot} is a tombstone")
        self._store(slot, row)

    def delete(self, slot: int) -> None:
        """Tombstone the row at *slot*."""
        if not 0 <= slot < len(self._slots):
            raise IndexError(f"slot {slot} out of range")
        self._store(slot, None)

    def restore(self, slot: int, row: tuple) -> None:
        """Un-tombstone *slot* (transaction rollback of a delete)."""
        if not 0 <= slot < len(self._slots):
            raise IndexError(f"slot {slot} out of range")
        if self._slots[slot] is not None:
            raise ValueError(f"slot {slot} is occupied")
        self._store(slot, row)

    def extend(self, rows: List[tuple]) -> int:
        """Bulk-append up to the remaining capacity; returns rows taken.

        Equivalent to repeated :meth:`insert` (same slots, same order);
        the dataset loader uses it to fill pages without a per-row call.
        """
        free = self.capacity - len(self._slots)
        if free <= 0:
            return 0
        taken = rows[:free]
        self._slots = [*self._slots, *taken]
        self._live = None
        return len(taken)

    def rows(self) -> List[tuple]:
        """All live rows in slot order; never changed by a later write.

        The list is shared with the page (a page without tombstones
        hands out its slot list itself): read it, never mutate it.
        """
        live = self._live
        if live is None:
            live = self._slots
            if None in live:
                live = [row for row in live if row is not None]
            self._live = live
        return live

    def slots(self) -> List[Optional[tuple]]:
        """Every slot in order, tombstones as None; never changed by a
        later write, and not to be mutated.  ``enumerate`` it for
        (slot, row) pairs in bulk."""
        return self._slots

    def items(self) -> Iterator[Tuple[int, tuple]]:
        """(slot, row) pairs for live rows."""
        for slot, row in enumerate(self._slots):
            if row is not None:
                yield slot, row

    def __len__(self):
        return self.num_live

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<Page {self.num_live}/{self.capacity}>"


def rows_per_page(row_width: int) -> int:
    """How many rows of *row_width* bytes fit one page (at least 1)."""
    if row_width <= 0:
        raise ValueError(f"row width must be positive: {row_width}")
    return max(1, PAGE_SIZE // row_width)
