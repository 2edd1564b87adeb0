"""Range table partitioning for sharded deployments.

A partitioned table exists once per shard: every shard's catalog holds a
:class:`TableInfo` for the *same* table name whose heap contains only
that shard's slice, annotated with a :class:`PartitionInfo` describing
which slice it is.  Replicated tables carry the ``"replicated"`` scheme
(every shard holds every row).

Two properties matter for byte-identical distributed execution
(DESIGN.md section 16):

* **Range partitioning is order-preserving**: partition ``i`` of ``n``
  is the contiguous slice ``rows[i*len//n : (i+1)*len//n]`` of the
  stored row order, so concatenating partitions ``0..n-1`` reproduces
  the single-host table exactly -- including the row order every
  order-sensitive float accumulation depends on.
* **Shuffle routing is process-independent**: the exchange's bucket
  choice (:func:`hash_partition`) uses :func:`stable_hash` (CRC-32 of
  the value's repr), never Python's builtin ``hash`` whose string
  hashing is randomized per process.

There is no hash scheme for *stored* tables: hash buckets permute the
stored row order, and every partitioned scan the distributed planner
treats as order-safe relies on the range scheme's concatenation
property.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, List, Sequence

from repro.relational import compile
from repro.relational.schema import Schema

SCHEMES = ("range", "replicated")


@dataclass(frozen=True)
class PartitionInfo:
    """Which slice of a partitioned table one shard's copy holds."""

    #: "range" | "replicated".
    scheme: str
    #: Total number of shards the table is split across.
    count: int
    #: This copy's partition number in ``0..count-1``.
    index: int

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(
                f"unknown partition scheme {self.scheme!r}; "
                f"want one of {SCHEMES}"
            )
        if self.count < 1:
            raise ValueError(f"partition count must be >= 1: {self.count}")
        if not 0 <= self.index < self.count:
            raise ValueError(
                f"partition index {self.index} out of 0..{self.count - 1}"
            )

    @property
    def partitioned(self) -> bool:
        """Whether this copy holds a strict subset of the table."""
        return self.scheme != "replicated" and self.count > 1

    def signature(self) -> str:
        return f"{self.scheme}({self.index}/{self.count})"


def stable_hash(value: Any) -> int:
    """A deterministic, process-independent hash for partition routing.

    CRC-32 over the value's repr: cheap, stable across interpreter
    processes (unlike ``hash(str)`` under hash randomization), and good
    enough spread for bucket routing.
    """
    return zlib.crc32(repr(value).encode("utf-8"))


def range_partition(rows: Sequence[tuple], count: int) -> List[List[tuple]]:
    """Contiguous order-preserving slices of the stored row order.

    Partition ``i`` gets ``rows[i*n//count : (i+1)*n//count]``; the
    slices concatenate back to exactly *rows* (the property distributed
    gather relies on for byte-identical results).
    """
    if count < 1:
        raise ValueError(f"partition count must be >= 1: {count}")
    n = len(rows)
    return [
        list(rows[i * n // count:(i + 1) * n // count])
        for i in range(count)
    ]


def hash_partition(
    rows: Sequence[tuple], schema: Schema, column: str, count: int
) -> List[List[tuple]]:
    """Bucket rows by ``stable_hash(row[column]) % count``.

    Within each bucket the input order is preserved (stable routing),
    so per-bucket streams are individually deterministic even though
    the buckets interleave arbitrarily.
    """
    if count < 1:
        raise ValueError(f"partition count must be >= 1: {count}")
    return compile.partition(column, schema, stable_hash)(rows, count)


def partition_rows(
    rows: Sequence[tuple], scheme: str, count: int
) -> List[List[tuple]]:
    """Split *rows* per *scheme*; ``"replicated"`` copies them N times."""
    if scheme == "range":
        return range_partition(rows, count)
    if scheme == "replicated":
        return [list(rows) for _ in range(count)]
    raise ValueError(
        f"unknown partition scheme {scheme!r}; want one of {SCHEMES}"
    )
