"""The sharded deployment: hosts, storage managers, engines, tables.

A :class:`ShardedSystem` wraps a :class:`repro.hw.host.Cluster` (shared
virtual clock, per-host disks, one network fabric) and gives every host
its own storage manager and query engine.  Tables load through
:meth:`ShardedSystem.create_table`, which splits the rows with
:func:`repro.storage.partition.partition_rows` and records each slice's
:class:`~repro.storage.partition.PartitionInfo` in that shard's
catalog -- the metadata :func:`repro.sql.planner.plan_distributed`
plans against.

Range partitions are contiguous slices of the loaded row order, which
is what makes shard-order gathers reproduce the single-host row order
byte for byte (see DESIGN.md section 16.3).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.hw.host import Cluster, Host
from repro.relational.schema import Schema
from repro.storage.image import SameRows, load_once
from repro.storage.manager import StorageManager
from repro.storage.partition import PartitionInfo, partition_rows


class Shard:
    """One host's slice of the system: machine, storage, engine."""

    def __init__(self, index: int, host: Host, sm: StorageManager, engine):
        self.index = index
        self.host = host
        self.sm = sm
        self.engine = engine

    @property
    def name(self) -> str:
        return self.host.name

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Shard({self.index}, {self.name!r})"


class ShardedSystem:
    """N shards over one cluster, with shard 0 as the coordinator.

    Args:
        cluster: the multi-host hardware model (shared Simulator).
        make_sm: ``host -> StorageManager`` factory, called once per
            host (buffer pool sizing, policy, scan rings).
        make_engine: ``sm -> engine`` factory; any object with the
            common ``execute(plan, query_id=...)`` coroutine contract
            (iterator or packet engine).
    """

    def __init__(
        self,
        cluster: Cluster,
        make_sm: Callable[[Host], StorageManager],
        make_engine: Callable[[StorageManager], object],
    ):
        self.cluster = cluster
        self.shards: List[Shard] = []
        for i, host in enumerate(cluster.hosts):
            sm = make_sm(host)
            self.shards.append(Shard(i, host, sm, make_engine(sm)))

    def __len__(self) -> int:
        return len(self.shards)

    def __iter__(self):
        return iter(self.shards)

    @property
    def sim(self):
        return self.cluster.sim

    @property
    def network(self):
        return self.cluster.network

    @property
    def coordinator(self) -> Shard:
        return self.shards[0]

    @property
    def catalog(self):
        """The coordinator's catalog (metadata is identical per shard)."""
        return self.coordinator.sm.catalog

    def create_table(
        self,
        name: str,
        schema: Schema,
        rows: Sequence[tuple],
        scheme: str = "range",
        column: Optional[str] = None,
        clustered_on: Optional[List[str]] = None,
    ) -> None:
        """Create *name* on every shard and load its slice of *rows*.

        ``scheme`` is ``range`` (contiguous slices of the given row
        order -- the byte-identity-preserving default), ``hash``
        (bucketed on *column* via the stable row hash), or
        ``replicated`` (every shard loads all rows).

        Splitting and loading happen once per process for the same row
        objects split the same way (the shard count and each partition's
        index are the managers' positions); after that every shard
        adopts its slice's image (:func:`repro.storage.image.load_once`).
        """
        count = len(self.shards)

        def load() -> None:
            slices = partition_rows(rows, schema, scheme, count, column=column)
            for shard, part in zip(self.shards, slices):
                shard.sm.create_table(
                    name,
                    schema,
                    clustered_on=clustered_on,
                    partitioning=PartitionInfo(
                        scheme, count, shard.index, column=column
                    ),
                )
                shard.sm.load_table(name, part)

        key = (
            "sharded", name, schema, scheme, column,
            tuple(clustered_on or ()), SameRows(rows),
        )
        load_once(key, [shard.sm for shard in self.shards], load)

    def create_replicated_table(
        self,
        name: str,
        schema: Schema,
        rows: Sequence[tuple],
        clustered_on: Optional[List[str]] = None,
    ) -> None:
        self.create_table(
            name, schema, rows, scheme="replicated", clustered_on=clustered_on
        )
