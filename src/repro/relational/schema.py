"""Schemas and columns.

Rows are plain Python tuples; a :class:`Schema` names and types the
positions.  The *declared* byte width of each column sizes the table on
the simulated disk (8 KB pages), keeping dataset geometry proportional to
the paper's 200-byte Wisconsin tuples and dbgen's TPC-H rows.

Dates are stored as integer days since 1970-01-01 so that date arithmetic
in predicates stays cheap and comparable.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

#: Default widths per declared type, in bytes.
TYPE_WIDTHS = {
    "int": 4,
    "float": 8,
    "date": 4,
    "str": 16,
}

VALID_TYPES = frozenset(TYPE_WIDTHS)


@dataclass(frozen=True)
class Column:
    """One named, typed column with a declared byte width."""

    name: str
    type: str = "int"
    width: int = 0

    def __post_init__(self):
        if self.type not in VALID_TYPES:
            raise ValueError(
                f"unknown column type {self.type!r}; expected one of "
                f"{sorted(VALID_TYPES)}"
            )
        if self.width <= 0:
            object.__setattr__(self, "width", TYPE_WIDTHS[self.type])

    def renamed(self, name: str) -> "Column":
        return Column(name, self.type, self.width)


class Schema:
    """An ordered, named tuple layout."""

    __slots__ = ("columns", "_index")

    def __init__(self, columns: Iterable[Column]):
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._index: Dict[str, int] = {}
        for i, col in enumerate(self.columns):
            if col.name in self._index:
                raise ValueError(f"duplicate column name: {col.name!r}")
            self._index[col.name] = i

    # ------------------------------------------------------------------
    @classmethod
    def of(cls, *specs: str) -> "Schema":
        """Shorthand: ``Schema.of("a:int", "b:str:25", "c:date")``."""
        columns = []
        for spec in specs:
            parts = spec.split(":")
            name = parts[0]
            ctype = parts[1] if len(parts) > 1 else "int"
            width = int(parts[2]) if len(parts) > 2 else 0
            columns.append(Column(name, ctype, width))
        return cls(columns)

    # ------------------------------------------------------------------
    @property
    def names(self) -> List[str]:
        return [col.name for col in self.columns]

    @property
    def row_width(self) -> int:
        """Declared bytes per row (sizes the table on disk)."""
        return sum(col.width for col in self.columns)

    def __len__(self):
        return len(self.columns)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other):
        return isinstance(other, Schema) and self.columns == other.columns

    def __hash__(self):
        return hash(self.columns)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; have {self.names}"
            ) from None

    def column(self, name: str) -> Column:
        return self.columns[self.index_of(name)]

    # ------------------------------------------------------------------
    def project(self, names: Sequence[str]) -> "Schema":
        """A new schema keeping *names* in the given order."""
        return Schema(self.column(name) for name in names)

    def qualified(self, prefix: str) -> "Schema":
        """A copy with every column renamed to ``prefix.name``."""
        return Schema(
            col.renamed(f"{prefix}.{col.name}") for col in self.columns
        )

    def concat(self, other: "Schema") -> "Schema":
        """Schema of a join output: this side's columns then the other's."""
        return Schema(self.columns + other.columns)

    def key_of(self, names: Sequence[str]):
        """A row -> sort/merge key function at C speed: the bare column
        for one name, the tuple of *names* in order for several (the two
        order identically)."""
        return operator.itemgetter(*[self.index_of(name) for name in names])

    def signature(self) -> str:
        return ",".join(f"{c.name}:{c.type}" for c in self.columns)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Schema({self.signature()})"
