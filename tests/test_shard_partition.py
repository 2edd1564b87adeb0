"""Table partitioning: metadata validation, stable hashing, row routing."""

import zlib

import pytest

from repro.relational.schema import Column, Schema
from repro.storage.partition import (
    PartitionInfo,
    hash_partition,
    partition_rows,
    range_partition,
    stable_hash,
)

SCHEMA = Schema([Column("k", "int"), Column("v", "str")])
ROWS = [(i, f"v{i}") for i in range(10)]


# ---------------------------------------------------------------------------
# PartitionInfo validation
# ---------------------------------------------------------------------------
def test_partition_info_validates():
    with pytest.raises(ValueError):
        PartitionInfo("round-robin", 2, 0)
    with pytest.raises(ValueError):
        PartitionInfo("range", 0, 0)
    with pytest.raises(ValueError):
        PartitionInfo("range", 2, 2)  # index out of 0..count-1
    with pytest.raises(ValueError):
        PartitionInfo("hash", 2, 0)  # stored tables are never hashed


def test_partitioned_property():
    assert PartitionInfo("range", 4, 1).partitioned
    # A 1-way "partition" holds everything; replication always does.
    assert not PartitionInfo("range", 1, 0).partitioned
    assert not PartitionInfo("replicated", 4, 2).partitioned


def test_signature_is_descriptive():
    assert PartitionInfo("range", 4, 2).signature() == "range(2/4)"
    assert PartitionInfo("replicated", 2, 0).signature() == "replicated(0/2)"


# ---------------------------------------------------------------------------
# stable_hash
# ---------------------------------------------------------------------------
def test_stable_hash_is_crc32_of_repr():
    for value in (0, 17, "abc", 3.5, None, ("a", 1)):
        assert stable_hash(value) == zlib.crc32(repr(value).encode("utf-8"))


def test_stable_hash_spreads_buckets():
    buckets = {stable_hash(i) % 4 for i in range(100)}
    assert buckets == {0, 1, 2, 3}


# ---------------------------------------------------------------------------
# Row routing
# ---------------------------------------------------------------------------
def test_range_partition_preserves_order():
    parts = range_partition(ROWS, 3)
    assert [len(p) for p in parts] == [3, 3, 4]
    assert [row for part in parts for row in part] == ROWS


def test_range_partition_more_parts_than_rows():
    parts = range_partition(ROWS[:2], 4)
    assert sum(len(p) for p in parts) == 2
    assert [row for part in parts for row in part] == ROWS[:2]
    with pytest.raises(ValueError):
        range_partition(ROWS, 0)


def test_hash_partition_routes_by_key():
    parts = hash_partition(ROWS, SCHEMA, "k", 3)
    assert sorted(row for part in parts for row in part) == ROWS
    for i, part in enumerate(parts):
        for row in part:
            assert stable_hash(row[0]) % 3 == i
        # stable routing: within a bucket, input order is preserved
        assert part == sorted(part, key=lambda r: r[0])


def test_partition_rows_dispatch():
    assert partition_rows(ROWS, "range", 2) == range_partition(ROWS, 2)
    replicas = partition_rows(ROWS, "replicated", 3)
    assert replicas == [ROWS, ROWS, ROWS]
    assert replicas[0] is not replicas[1]  # independent copies
    with pytest.raises(ValueError):
        partition_rows(ROWS, "hash", 2)
    with pytest.raises(ValueError):
        partition_rows(ROWS, "mystery", 2)


def test_a_stored_table_cannot_be_hash_partitioned():
    """Hash buckets permute the stored row order, which breaks the
    byte-identical gather every partitioned scan relies on: a 400-row
    table split by hash over 4 hosts gathered its rows in another order
    than 1 host.  The scheme is refused, and nothing is created."""
    from repro.baseline.engine import IteratorEngine
    from repro.hw.host import Cluster, ClusterConfig
    from repro.shard import ShardedSystem
    from repro.storage.manager import StorageManager

    system = ShardedSystem(
        Cluster(ClusterConfig(hosts=4)), StorageManager, IteratorEngine
    )
    with pytest.raises(ValueError, match="hash"):
        system.create_table("t", SCHEMA, ROWS, scheme="hash")
    assert all("t" not in shard.sm.catalog.tables() for shard in system)
