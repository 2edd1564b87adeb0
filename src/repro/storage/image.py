"""Loaded-database images: build a database once, adopt it after.

Every data point of a figure sweep runs over the same database, and
loading one is O(rows) -- sort on the clustering key, fill pages, pack a
RID per row, group and pack the B+tree leaves -- while everything the
loaded state consists of is either never mutated or cheap to copy:

* **shared** between every system adopted from one image: row tuples,
  page slot lists and B+tree key, bucket and child tuples.  All are
  replace-on-write (:class:`~repro.storage.page.Page`,
  :mod:`repro.storage.btree`): a write puts a new list or tuple in
  place and leaves the old one as it was;
* **per system**, made afresh by :meth:`StorageManager.adopt`: ``Page``
  objects, block lists, row counts, corruption marks, catalog entries
  and B+tree node dicts (held by buffer-pool frames).

So an adopted system costs O(pages + tree nodes), runs no per-row
bytecode, and ends up in the state the load would have left -- same file
ids, block numbers, counts and catalog order.  :func:`load_once` is the
one way in: a bounded per-process memo that runs a load the first time
its key is seen and adopts the captured images after.  There is no
switch; the two paths are indistinguishable to everything above storage.
"""

from __future__ import annotations

from operator import is_
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.relational.schema import Schema
from repro.storage.btree import TreeImage
from repro.storage.file import HeapImage
from repro.storage.partition import PartitionInfo

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.manager import StorageManager


class IndexImage(NamedTuple):
    """One index's catalog entry."""

    name: str
    key_columns: Tuple[str, ...]
    clustered: bool
    #: Position of the tree in :attr:`StorageImage.files`.
    tree: int


class TableImage(NamedTuple):
    """One table's catalog entry."""

    name: str
    schema: Schema
    clustered_on: Optional[Tuple[str, ...]]
    partitioning: Optional[PartitionInfo]
    #: Position of the heap in :attr:`StorageImage.files`.
    heap: int
    #: In creation order: writes maintain (and charge) indexes in it.
    indexes: Tuple[IndexImage, ...]


class StorageImage(NamedTuple):
    """Whole tables of one storage manager: files ``first_file_id``
    onwards, one image per file id, and the catalog entries over them."""

    first_file_id: int
    files: Tuple[Union[HeapImage, TreeImage], ...]
    tables: Tuple[TableImage, ...]


class SameRows:
    """A memo-key part for a row list nobody vouches for: equal to
    another only when both hold the very same row objects in the same
    order.  Rows are immutable tuples of scalars, so identical objects
    are identical content; a list of equal-but-distinct rows (``1`` vs
    ``1.0``) misses.  Holding the rows keeps their identities from being
    recycled.

    A tuple is held as it is (``tuple(t) is t``), so the generators'
    tables -- one memoised tuple each, see
    :func:`repro.workloads.memo_tables` -- key a repeated build by
    identity, in O(1).  Any other sequence is copied, and compared in
    one C-level pass."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[tuple]):
        self.rows = tuple(rows)

    def __hash__(self):
        return len(self.rows)

    def __eq__(self, other):
        if not isinstance(other, SameRows):
            return False
        mine, theirs = self.rows, other.rows
        return mine is theirs or (
            len(mine) == len(theirs) and all(map(is_, mine, theirs))
        )


#: Memo of captured loads.  A deterministic one: an entry is a pure
#: function of its key and eviction follows insertion order, so nothing
#: a cell computes can depend on whether a load hit (the twin of
#: ``repro.workloads.memo_tables``, one level down).
_IMAGES: Dict[tuple, List[StorageImage]] = {}
_IMAGES_MAX = 8


def load_once(
    key: Hashable,
    managers: Sequence["StorageManager"],
    load: Callable[[], None],
) -> None:
    """Leave *managers* as ``load()`` leaves them, running it at most
    once per process for one *key*.

    *key* must name everything ``load`` reads apart from the managers:
    two loads that could store one different byte need different keys.
    What the managers contribute -- B+tree order and where file ids
    start -- is added here.  ``load`` may only create whole tables.
    """
    starts = tuple(sm.store.next_file_id for sm in managers)
    key = (key, starts, tuple(sm.index_order for sm in managers))
    images = _IMAGES.get(key)
    if images is not None:
        for sm, image in zip(managers, images):
            sm.adopt(image)
        return
    load()
    images = [sm.capture(start) for sm, start in zip(managers, starts)]
    if len(_IMAGES) >= _IMAGES_MAX:
        _IMAGES.pop(next(iter(_IMAGES)))
    _IMAGES[key] = images
