"""The catalog: table and index metadata."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional

from repro.relational import compile
from repro.relational.schema import Schema
from repro.storage.btree import BPlusTree
from repro.storage.file import HeapFile
from repro.storage.partition import PartitionInfo


@dataclass
class IndexInfo:
    """One B+tree index over a table.

    ``clustered`` means the heap file itself is stored in key order, so a
    range scan over this index reads the heap sequentially (the paper's
    clustered index scans of section 5.1.2).
    """

    name: str
    table: str
    key_columns: List[str]
    tree: BPlusTree
    #: The indexed table's schema (what ``key_columns`` name into).
    schema: Schema
    clustered: bool = False

    @cached_property
    def key_of(self) -> Callable:
        """``row -> index key``: the bare column for one key column, the
        tuple for several, as the tree stores it."""
        return self.schema.key_of(self.key_columns)

    @cached_property
    def key_range(self) -> Callable:
        """``keep(rows, lo, hi)``, the clustered scan's page filter (see
        :func:`repro.relational.compile.key_range`): rendered on first
        use, once per index instead of once per scan."""
        return compile.key_range(self.key_columns, self.schema)

    def clip(self, rows: List[tuple], lo, hi) -> Optional[List[tuple]]:
        """One clustered heap page's rows inside ``[lo, hi]``, or None
        when the page starts past *hi*: the key-ordered scan is over."""
        if hi is not None and rows and self.key_of(rows[0]) > hi:
            return None
        return self.key_range(rows, lo, hi)


@dataclass
class TableInfo:
    """One base table: schema, heap file, and its indexes.

    In a sharded deployment ``partitioning`` says which slice of the
    logical table this catalog's heap holds (None: the whole table, the
    single-host default).
    """

    name: str
    schema: Schema
    heap: HeapFile
    clustered_on: Optional[List[str]] = None
    indexes: Dict[str, IndexInfo] = field(default_factory=dict)
    partitioning: Optional[PartitionInfo] = None

    @property
    def num_rows(self) -> int:
        return self.heap.num_rows

    @property
    def num_pages(self) -> int:
        return self.heap.num_pages


class Catalog:
    """Name -> metadata maps for tables and indexes."""

    def __init__(self):
        self._tables: Dict[str, TableInfo] = {}

    def add_table(self, info: TableInfo) -> None:
        if info.name in self._tables:
            raise ValueError(f"table {info.name!r} already exists")
        self._tables[info.name] = info

    def drop_table(self, name: str) -> None:
        self._tables.pop(name, None)

    def table(self, name: str) -> TableInfo:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(
                f"no table {name!r}; have {sorted(self._tables)}"
            ) from None

    def table_schema(self, name: str) -> Schema:
        return self.table(name).schema

    def index(self, table: str, index: str) -> IndexInfo:
        info = self.table(table)
        try:
            return info.indexes[index]
        except KeyError:
            raise KeyError(
                f"no index {index!r} on {table!r}; have "
                f"{sorted(info.indexes)}"
            ) from None

    def tables(self) -> List[str]:
        return sorted(self._tables)

    def infos(self) -> List[TableInfo]:
        """Every table's metadata, in creation order."""
        return list(self._tables.values())

    def __contains__(self, name: str) -> bool:
        return name in self._tables
