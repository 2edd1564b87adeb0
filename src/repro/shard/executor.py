"""The sharded query executor: gather / shuffle / broadcast, end to end.

:class:`ShardedExecutor` takes a logical plan, asks
:func:`repro.sql.planner.plan_distributed` for the fragment/exchange/
suffix split, and drives it across the shards:

* ``local``     -- the coordinator's engine runs the whole plan.
* ``gather``    -- every shard's engine runs the fragment against its
  local partitions concurrently (own disk, own buffer pool, own OSP
  sharing domain); outputs ship to the coordinator and are assembled
  strictly in shard order before the suffix applies.
* ``shuffle``   -- fragment outputs re-partition on the group key via
  the stable row hash; each shard aggregates its buckets (processing
  source shards in index order, so per-group accumulation order equals
  the single-host scan order); the disjoint group rows gather to the
  coordinator and merge by key.
* ``broadcast`` -- every shard broadcasts its slice of the build side,
  assembles the complete build table in shard order (= the single-host
  build order), joins its local probe partition, and gathers.

Determinism: all shard work shares one virtual clock, every assembly
point orders by shard index (never by arrival), and the merge-side
arithmetic mirrors the reference operators -- so the rows returned are
byte-identical to the single-host run over range partitions, at any
host count, on any engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from repro.baseline.operators import ExecContext
from repro.relational.plans import PlanNode
from repro.results import QueryResult
from repro.shard.exchange import ship
from repro.shard.merge import apply_suffix, group_rows, hash_join_rows
from repro.shard.topology import Shard, ShardedSystem
from repro.sql.planner import DistributedPlan, plan_distributed
from repro.storage.partition import hash_partition


@dataclass
class ShardStats:
    """What the executor moved and how it chose to move it."""

    queries: int = 0
    #: strategy name -> queries executed with it.
    strategies: Dict[str, int] = field(default_factory=dict)
    #: Rows and payload bytes that crossed an exchange edge (loopback
    #: included -- it is free on the wire but still exchanged).
    rows_shipped: int = 0
    bytes_shipped: int = 0

    def note(self, strategy: str) -> None:
        self.queries += 1
        self.strategies[strategy] = self.strategies.get(strategy, 0) + 1


class ShardedExecutor:
    """Distributed query driver over a :class:`ShardedSystem`."""

    def __init__(self, system: ShardedSystem):
        self.system = system
        self.stats = ShardStats()
        self._next_query_id = 0

    @property
    def sim(self):
        return self.system.sim

    @property
    def catalog(self):
        return self.system.catalog

    def _ctx(self, shard: Shard, query_id: int) -> ExecContext:
        return ExecContext(
            sm=shard.sm,
            host=shard.host,
            work_mem_tuples=getattr(shard.engine, "work_mem_tuples", 50_000),
            owner=("dist", shard.index, query_id),
        )

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _ship(
        self, src: Shard, dst: Shard, rows, width: int, query: int, kind: str
    ) -> Generator:
        nbytes = yield from ship(
            self.system.network,
            src.name,
            dst.name,
            rows,
            width,
            query,
            kind,
        )
        self.stats.rows_shipped += len(rows)
        self.stats.bytes_shipped += nbytes
        return nbytes

    def _run_fragment(
        self, shard: Shard, plan: PlanNode, query_id: int
    ) -> Generator:
        tracer = self.sim.tracer
        tracer.shard(
            "fragment_start", query=query_id, shard=shard.index,
            op=plan.op_name,
        )
        result = yield from shard.engine.execute(plan, query_id=query_id)
        tracer.shard(
            "fragment_done", query=query_id, shard=shard.index,
            rows=len(result.rows),
        )
        return result.rows

    def _spawn_all(self, generators, label: str, query_id: int) -> Generator:
        """Run one coroutine per shard concurrently; returns their
        values ordered by shard index (never by completion time)."""
        procs = [
            self.sim.spawn(gen, name=f"{label}-q{query_id}-s{i}")
            for i, gen in enumerate(generators)
        ]
        yield self.sim.all_of(procs)
        return [proc.value for proc in procs]

    # ------------------------------------------------------------------
    # Strategies
    # ------------------------------------------------------------------
    def _gather(self, dist: DistributedPlan, query_id: int) -> Generator:
        coord = self.system.coordinator
        width = dist.fragment.output_schema(self.catalog).row_width
        tracer = self.sim.tracer
        tracer.exchange(
            "start", query=query_id, kind="gather", shards=len(self.system)
        )

        def worker(shard: Shard) -> Generator:
            rows = yield from self._run_fragment(
                shard, dist.fragment, query_id
            )
            yield from self._ship(
                shard, coord, rows, width, query_id, "gather"
            )
            return rows

        streams = yield from self._spawn_all(
            (worker(s) for s in self.system), "gather", query_id
        )
        rows = [row for stream in streams for row in stream]
        tracer.exchange(
            "done", query=query_id, kind="gather", rows=len(rows),
            bytes=len(rows) * width,
        )
        return rows

    def _shuffle(self, dist: DistributedPlan, query_id: int) -> Generator:
        shards = self.system.shards
        count = len(shards)
        schema = dist.fragment.output_schema(self.catalog)
        width = schema.row_width
        tracer = self.sim.tracer
        tracer.exchange(
            "start", query=query_id, kind="shuffle", shards=count
        )
        #: inboxes[dst][src] -- bucket rows, assembled by *index* so the
        #: receiving shard replays sources in global order.
        inboxes: List[List[Optional[List[tuple]]]] = [
            [None] * count for _ in range(count)
        ]

        def scatter(shard: Shard) -> Generator:
            rows = yield from self._run_fragment(
                shard, dist.fragment, query_id
            )
            buckets = hash_partition(rows, schema, dist.shuffle_key, count)
            for dst in range(count):
                inboxes[dst][shard.index] = buckets[dst]
                yield from self._ship(
                    shard, shards[dst], buckets[dst], width, query_id,
                    "shuffle",
                )
            return len(rows)

        yield from self._spawn_all(
            (scatter(s) for s in shards), "shuffle", query_id
        )

        def reduce(shard: Shard) -> Generator:
            mine = [
                row
                for src in range(count)
                for row in inboxes[shard.index][src]
            ]
            grouped = yield from group_rows(
                dist.groupby, mine, schema, self._ctx(shard, query_id)
            )
            yield from self._ship(
                shard, self.system.coordinator, grouped,
                dist.groupby.output_schema(self.catalog).row_width,
                query_id, "shuffle",
            )
            return grouped

        streams = yield from self._spawn_all(
            (reduce(s) for s in shards), "reduce", query_id
        )
        # Bucket keys are disjoint and each stream is key-sorted, so a
        # key sort of the concatenation IS the single-host GroupBy's
        # sorted(groups.items()) emission order.
        rows = [row for stream in streams for row in stream]
        coord_ctx = self._ctx(self.system.coordinator, query_id)
        yield from coord_ctx.cpu(len(rows))
        nkeys = len(dist.groupby.group_cols)
        rows.sort(key=lambda row: row[:nkeys])
        tracer.exchange(
            "done", query=query_id, kind="shuffle", rows=len(rows),
            bytes=len(rows) * dist.groupby.output_schema(self.catalog).row_width,
        )
        return rows

    def _broadcast(self, dist: DistributedPlan, query_id: int) -> Generator:
        shards = self.system.shards
        count = len(shards)
        join = dist.join
        lschema = dist.build_fragment.output_schema(self.catalog)
        rschema = dist.fragment.output_schema(self.catalog)
        out_width = join.output_schema(self.catalog).row_width
        tracer = self.sim.tracer
        tracer.exchange(
            "start", query=query_id, kind="broadcast", shards=count
        )
        build_slices: List[Optional[List[tuple]]] = [None] * count
        # The build side runs as a query of its own on every shard: the
        # probe fragment runs there next under ``query_id``, and one host
        # must never see two queries (and two packet trees) under one id.
        build_id = self._new_query_id()

        def broadcast_build(shard: Shard) -> Generator:
            rows = yield from self._run_fragment(
                shard, dist.build_fragment, build_id
            )
            build_slices[shard.index] = rows
            for dst in shards:
                yield from self._ship(
                    shard, dst, rows, lschema.row_width, query_id,
                    "broadcast",
                )
            return len(rows)

        yield from self._spawn_all(
            (broadcast_build(s) for s in shards), "bcast", query_id
        )
        # Every shard assembles the complete build side in shard order
        # == the single-host left-input order (range slices concatenate
        # back to the loaded sequence).
        build_rows = [
            row for part in build_slices for row in part
        ]

        def probe(shard: Shard) -> Generator:
            rows = yield from self._run_fragment(
                shard, dist.fragment, query_id
            )
            joined = yield from hash_join_rows(
                join, build_rows, rows, lschema, rschema,
                self._ctx(shard, query_id),
            )
            yield from self._ship(
                shard, self.system.coordinator, joined, out_width,
                query_id, "gather",
            )
            return joined

        streams = yield from self._spawn_all(
            (probe(s) for s in shards), "probe", query_id
        )
        rows = [row for stream in streams for row in stream]
        tracer.exchange(
            "done", query=query_id, kind="broadcast", rows=len(rows),
            bytes=len(rows) * out_width,
        )
        return rows

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def execute(
        self, plan: PlanNode, query_id: Optional[int] = None
    ) -> Generator:
        """Coroutine: run *plan* across the shards; returns a
        :class:`~repro.results.QueryResult` whose rows are
        byte-identical to the single-host run (range partitions)."""
        if query_id is None:
            query_id = self._new_query_id()
        submitted = self.sim.now
        dist = plan_distributed(plan, self.catalog)
        tracer = self.sim.tracer
        tracer.shard(
            "query_start", query=query_id, strategy=dist.strategy,
            shards=len(self.system),
        )
        self.stats.note(dist.strategy)
        if dist.strategy == "local":
            result = yield from self.system.coordinator.engine.execute(
                plan, query_id=query_id
            )
            rows = result.rows
        else:
            if dist.strategy == "gather":
                rows = yield from self._gather(dist, query_id)
            elif dist.strategy == "shuffle":
                rows = yield from self._shuffle(dist, query_id)
            elif dist.strategy == "broadcast":
                rows = yield from self._broadcast(dist, query_id)
            else:  # pragma: no cover - planner emits only the above
                raise ValueError(f"unknown strategy {dist.strategy!r}")
            rows = yield from apply_suffix(
                dist.suffix, rows, self.catalog,
                self._ctx(self.system.coordinator, query_id),
            )
        tracer.shard(
            "query_done", query=query_id, strategy=dist.strategy,
            rows=len(rows),
        )
        return QueryResult(
            query_id=query_id,
            rows=rows,
            submitted_at=submitted,
            started_at=submitted,
            finished_at=self.sim.now,
        )

    def _new_query_id(self) -> int:
        self._next_query_id += 1
        return self._next_query_id

    def run_query(self, plan: PlanNode) -> List[tuple]:
        """Convenience: spawn, run the clock, return the rows (tests)."""
        proc = self.sim.spawn(self.execute(plan), name="dist-query")
        self.sim.run()
        return proc.value.rows
