"""The six workloads: what is built, who submits what, and the oracles.

Every workload is closed-loop: a simulated client submits its next
operation only after the previous one returned.  Sizes are FROZEN (see
perf/README.md for why each workload exists).  ``--seed`` drives every
client parameter stream -- predicate parameters, keys, key-range widths,
inserted values -- while the dataset seed stays ``Scale.seed``.  The
*sequence of operation types* per client and the arrival and think times
are a fixed schedule: sharing in this system is decided by who overlaps
whom, so a seed that moved arrivals would move every virtual number by
10-20% and no bound could tell a regression from another seed.  The
engines only ever see generated plans and SQL text.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Sequence

from repro import (
    AggSpec,
    Aggregate,
    Col,
    GroupBy,
    HashJoin,
    IndexScan,
    Limit,
    Schema,
    Sort,
    TableScan,
)
from repro.harness.config import (
    Scale,
    build_sharded_wisconsin_system,
    build_tpch_system,
    with_overrides,
)
from repro.lineage import RecoveryManager
from repro.relational import Between, walk_plan
from repro.sql import plan as sql_plan
from repro.storage import TransactionManager
from repro.workloads.tpch.queries import QUERY_BUILDERS

# ---------------------------------------------------------------------------
# Frozen sizes
# ---------------------------------------------------------------------------
#: The four scan workloads: LINEITEM is ~14x the 32-frame pool.
TPCH = with_overrides(Scale(name="perf"), tpch_factor=0.6, buffer_pages=32)
#: dml_mix: ORDERS + CUSTOMER + the ledger fit the 512-frame pool.
TPCH_CACHED = with_overrides(Scale(name="perf"), tpch_factor=1.0,
                             buffer_pages=512)
#: scaleout_4h: BIG1/BIG2 at 8x the harness default (800 pages each, 200
#: per host against 32 frames per host).
WISCONSIN = with_overrides(Scale(name="perf"), wisconsin_big_rows=32_000,
                           buffer_pages=32)

MIX_CLIENTS, MIX_QUERIES, MIX_STAGGER = 12, 4, 7.0
SHARE_QUERIES, SHARE_STAGGER, SHARE_THINK = 5, 17.0, 15.0
SCALEOUT_CLIENTS, SCALEOUT_QUERIES, SCALEOUT_STAGGER = 6, 8, 2.0
LOOKUP_CLIENTS, LOOKUPS, LOOKUP_SPAN = 4, 600, 64
ANALYST_CLIENTS, ANALYST_QUERIES = 3, 24
WRITER_CLIENTS, WRITER_CYCLES = 2, 24        # 9 statements per cycle
#: 170 transactions put the 75th percentile of all 3,244 response times in
#: the middle of a plateau (the median SQL write) instead of on its edge.
TXN_CLIENTS, TXNS, TXN_INSERTS, ABORT_EVERY = 2, 170, 5, 10
#: Seeds the frozen operation-type schedules (NOT the parameter streams).
SCHEDULE_SEED = 20050614


# ---------------------------------------------------------------------------
# Clients, operations, systems
# ---------------------------------------------------------------------------
@dataclass
class Op:
    """One client operation: ``run(system)`` is a coroutine returning rows."""

    kind: str
    run: Callable[["System"], Generator]
    #: Set when the iterator-engine oracle can re-run the operation alone.
    plan: object = None
    #: True when the plan root defines a row order the oracle must match.
    ordered: bool = False


@dataclass
class Client:
    ops: List[Op]
    start: float = 0.0
    #: Think time before each operation after the first.
    think: Sequence[float] = ()


@dataclass
class Done:
    """What one operation did in one run."""

    kind: str
    submitted: float
    finished: float
    rows: Optional[List[tuple]]
    error: Optional[str] = None

    @property
    def response(self) -> float:
        return self.finished - self.submitted


@dataclass
class System:
    """One freshly built deployment, as the benchmark sees it."""

    sim: object
    #: ``(host, storage manager, engine)`` per simulated host.
    shards: list
    execute: Callable[[object], Generator]
    network: object = None
    executor: object = None
    transactions: object = None
    recovery: object = None
    #: Host seconds the clients spent inside ``repro.sql.plan``.
    sql_plan_s: float = 0.0
    sql_statements: int = 0

    @property
    def catalog(self):
        return self.shards[0][1].catalog

    def plan_sql(self, text: str):
        start = time.perf_counter()
        node = sql_plan(text, self.catalog)
        self.sql_plan_s += time.perf_counter() - start
        self.sql_statements += 1
        return node


def _single_host(built) -> System:
    host, sm, engine = built
    return System(sim=host.sim, shards=[(host, sm, engine)],
                  execute=engine.execute)


def _plan_op(plan, kind: str = "query", ordered: bool = False) -> Op:
    def run(system: System) -> Generator:
        result = yield from system.execute(plan)
        return result.rows

    return Op(kind, run, plan=plan, ordered=ordered)


def _client_process(system: System, client: Client, done: List[Done]):
    sim = system.sim
    if client.start > 0:
        yield sim.timeout(client.start)
    for i, op in enumerate(client.ops):
        if i and client.think:
            yield sim.timeout(client.think[i - 1])
        submitted = sim.now
        try:
            rows, error = (yield from op.run(system)), None
        except Exception as exc:  # an operation that raises is a failed one
            rows, error = None, f"{type(exc).__name__}: {exc}"
        done.append(Done(op.kind, submitted, sim.now, rows, error))


def run_clients(system: System, clients: Sequence[Client]) -> List[List[Done]]:
    """Run every client to completion; one ``Done`` list per client, in
    submission order (so index ``[c][i]`` is ``clients[c].ops[i]``)."""
    logs: List[List[Done]] = [[] for _ in clients]
    procs = [
        system.sim.spawn(_client_process(system, client, log),
                         name=f"client{i}")
        for i, (client, log) in enumerate(zip(clients, logs))
    ]
    system.sim.run_until_done(procs)
    return logs


def _rng(seed: int, *stream) -> random.Random:
    return random.Random("/".join(map(str, (seed,) + stream)))


def _distinct_plan(builder, rng: random.Random, seen: set):
    """Draw a TPC-H plan whose substitution parameters are new to this run.

    "Multiple clients do not run identical queries at the same time"
    (section 5.3).  An identical pair is answered from one execution, so
    how many such pairs a seed happened to draw would decide its numbers.
    """
    while True:
        plan = builder(rng)
        parameters = tuple(
            node.predicate.signature() for node in walk_plan(plan)
            if getattr(node, "predicate", None) is not None)
        if not parameters or (builder, parameters) not in seen:
            seen.add((builder, parameters))
            return plan


# ---------------------------------------------------------------------------
# Result comparison
# ---------------------------------------------------------------------------
def _sort_key(row: tuple) -> tuple:
    return tuple(
        (0, 0) if v is None
        else (1, float(f"{v:.6g}")) if isinstance(v, float)
        else (1, v)
        for v in row
    )


def rows_match(got, want, ordered: bool) -> bool:
    """Row-set equality: order-insensitive unless *ordered*, floats to 9
    significant digits (a circular scan legitimately rotates the order a
    float sum accumulates in)."""
    if got is None or len(got) != len(want):
        return False
    if not ordered:
        got, want = sorted(got, key=_sort_key), sorted(want, key=_sort_key)
    for a, b in zip(got, want):
        if len(a) != len(b):
            return False
        for x, y in zip(a, b):
            if isinstance(x, float) and isinstance(y, float):
                if not math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif x != y:
                return False
    return True


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
class Workload:
    name = ""
    why = ""

    def build(self) -> System:
        raise NotImplementedError

    def clients(self, seed: int) -> List[Client]:
        raise NotImplementedError

    def check(self, clients, logs, system: System, trace: bool):
        """Oracle.  Returns ``(wrong, readings)``: one message per
        operation or invariant that is wrong, and the per-layer readings
        that need a reference run (taken only when *trace*).  *system* is
        the deployment the logs came from, after the run."""
        raise NotImplementedError


def _iterator_oracle(clients, logs) -> List[str]:
    """Re-run each distinct plan once, alone, on a fresh iterator engine."""
    _, sm, engine = build_tpch_system(TPCH, "dbmsx")
    expected: Dict[str, List[tuple]] = {}
    wrong = []
    for c, (client, log) in enumerate(zip(clients, logs)):
        for i, (op, done) in enumerate(zip(client.ops, log)):
            signature = op.plan.signature(sm.catalog)
            if signature not in expected:
                expected[signature] = engine.run_query(op.plan)
            if not rows_match(done.rows, expected[signature], op.ordered):
                wrong.append(f"client {c} op {i}: rows differ from the "
                             f"iterator oracle")
    return wrong


class TpchMix(Workload):
    """12 clients x 4 queries from the paper's eight (Fig. 12)."""

    def __init__(self, name: str, persona: str, backend: str, why: str):
        self.name, self.persona, self.backend, self.why = (
            name, persona, backend, why)

    def build(self) -> System:
        return _single_host(
            build_tpch_system(TPCH, self.persona, backend=self.backend))

    def clients(self, seed: int) -> List[Client]:
        slots = MIX_CLIENTS * MIX_QUERIES
        names = sorted(QUERY_BUILDERS)
        schedule = (names * (slots // len(names) + 1))[:slots]
        random.Random(SCHEDULE_SEED).shuffle(schedule)
        out, seen = [], set()
        for c in range(MIX_CLIENTS):
            rng = _rng(seed, "mix", c)
            mine = schedule[c * MIX_QUERIES:(c + 1) * MIX_QUERIES]
            out.append(Client(
                start=MIX_STAGGER * c,
                ops=[_plan_op(_distinct_plan(QUERY_BUILDERS[q], rng, seen))
                     for q in mine],
            ))
        return out

    def check(self, clients, logs, system, trace):
        return _iterator_oracle(clients, logs), {}


class ScanShare(Workload):
    name = "scan_share"
    why = ("60 q6 scans arriving mid-scan over a table 14x the pool: the "
           "most expression-bound workload, and the one circular-scan "
           "sharing decides (Fig. 8)")

    def __init__(self, persona: str = "qpipe"):
        self.persona = persona

    def build(self) -> System:
        return _single_host(build_tpch_system(TPCH, self.persona))

    def clients(self, seed: int) -> List[Client]:
        out, seen = [], set()
        for c in range(MIX_CLIENTS):
            rng = _rng(seed, "share", c)
            out.append(Client(
                start=SHARE_STAGGER * c,
                ops=[_plan_op(_distinct_plan(QUERY_BUILDERS["q6"], rng, seen))
                     for _ in range(SHARE_QUERIES)],
                think=[SHARE_THINK] * (SHARE_QUERIES - 1),
            ))
        return out

    def check(self, clients, logs, system, trace):
        readings = {}
        if trace:
            # What sharing saved: the same clients with OSP switched off.
            off = ScanShare("baseline").build()
            run_clients(off, clients)
            mine = system.shards[0][0].disk.stats.blocks_read
            theirs = off.shards[0][0].disk.stats.blocks_read
            readings["osp.blocks_saved_ratio"] = 1.0 - mine / theirs
        return _iterator_oracle(clients, logs), readings


class DmlMix(Workload):
    name = "dml_mix"
    why = ("3,244 short lookups, SQL writes and transactions on tables "
           "that fit the pool: per-operation overhead, locks, heap/B+tree "
           "updates, WAL and lineage log -- the layers the scans only read")

    LEDGER = Schema.of("l_txn:int", "l_seq:int", "l_amount:float")

    def build(self) -> System:
        system = _single_host(build_tpch_system(TPCH_CACHED, "qpipe"))
        _, sm, engine = system.shards[0]
        sm.create_table("ledger", self.LEDGER)
        system.transactions = TransactionManager(sm)
        system.recovery = RecoveryManager(engine)
        return system

    # -- operations ---------------------------------------------------------
    @staticmethod
    def _sql_op(kind: str, text: str) -> Op:
        """Parse, plan and run *text*; an analyst's query runs under the
        RecoveryManager, i.e. with write-ahead lineage on."""
        def run(system: System) -> Generator:
            plan = system.plan_sql(text)
            if kind == "analyst":
                return (yield from system.recovery.run(plan)).rows
            return (yield from system.execute(plan)).rows

        return Op(kind, run)

    @staticmethod
    def _txn_op(txn_no: int, amounts: Sequence[float], abort: bool) -> Op:
        def run(system: System) -> Generator:
            tm = system.transactions
            txn = tm.begin()
            for seq, amount in enumerate(amounts):
                yield from tm.insert(txn, "ledger", (txn_no, seq, amount))
            if abort:
                yield from tm.abort(txn)
            else:
                yield from tm.commit(txn)
            return [(0 if abort else len(amounts),)]

        return Op("txn", run)

    def clients(self, seed: int) -> List[Client]:
        orders = int(15_000 * TPCH_CACHED.tpch_factor)
        customers = int(1_500 * TPCH_CACHED.tpch_factor)
        out = []
        for c in range(LOOKUP_CLIENTS):
            rng = _rng(seed, "lookup", c)
            ops = []
            for _ in range(LOOKUPS):
                span = rng.randrange(LOOKUP_SPAN // 2, LOOKUP_SPAN * 3 // 2)
                lo = rng.randrange(1, orders - span)
                ops.append(_plan_op(
                    IndexScan("orders", "o_orderkey_idx", lo=lo,
                              hi=lo + span, ordered=True),
                    kind="lookup"))
            out.append(Client(ops))
        for c in range(ANALYST_CLIENTS):
            rng = _rng(seed, "analyst", c)
            ops = []
            for i in range(ANALYST_QUERIES):
                if i % 3 == 0:
                    text = ("SELECT c_mktsegment, COUNT(*), SUM(c_acctbal) "
                            "FROM customer WHERE c_nationkey >= "
                            f"{rng.randrange(0, 12)} GROUP BY c_mktsegment")
                elif i % 3 == 1:
                    year = rng.randrange(1993, 1998)
                    text = ("SELECT o_orderpriority, COUNT(*) FROM orders "
                            f"WHERE o_year = {year} GROUP BY o_orderpriority")
                else:
                    text = ("SELECT COUNT(*), SUM(o_totalprice) FROM orders "
                            f"WHERE o_custkey <= {rng.randrange(100, customers)}")
                ops.append(self._sql_op("analyst", text))
            out.append(Client(ops))
        for c in range(WRITER_CLIENTS):
            rng = _rng(seed, "writer", c)
            ops = []
            for cycle in range(WRITER_CYCLES):
                key = rng.randrange(1, orders + 1)
                ops.append(self._sql_op(
                    "dml", "UPDATE orders SET o_totalprice = o_totalprice + 1 "
                           f"WHERE o_orderkey = {key}"))
                fresh = [1_000_000 + (c * WRITER_CYCLES + cycle) * 4 + j
                         for j in range(4)]
                for k in fresh:
                    ops.append(self._sql_op(
                        "dml", f"INSERT INTO customer VALUES ({k}, "
                               f"'Customer#{k}', {rng.randrange(25)}, "
                               f"{rng.randrange(0, 9999)}.5, 'BUILDING')"))
                for k in fresh:
                    ops.append(self._sql_op(
                        "dml", f"DELETE FROM customer WHERE c_custkey = {k}"))
            out.append(Client(ops))
        for c in range(TXN_CLIENTS):
            rng = _rng(seed, "txn", c)
            ops = [
                self._txn_op(
                    c * TXNS + t,
                    [round(rng.uniform(1.0, 100.0), 2)
                     for _ in range(TXN_INSERTS)],
                    abort=(t % ABORT_EVERY == ABORT_EVERY - 1),
                )
                for t in range(TXNS)
            ]
            out.append(Client(ops))
        return out

    def check(self, clients, logs, system, trace):
        wrong = []
        flat = [d for log in logs for d in log]
        for c, log in enumerate(logs):
            for i, done in enumerate(log):
                if done.kind == "dml" and done.rows != [(1,)]:
                    wrong.append(f"client {c} op {i}: DML affected "
                                 f"{done.rows}, want one row")
        _, sm, engine = system.shards[0]
        _, fresh_sm, fresh_engine = self.build().shards[0]
        if sm.num_rows("customer") != fresh_sm.num_rows("customer"):
            wrong.append("CUSTOMER row count changed")
        committed = sum(d.rows[0][0] for d in flat
                        if d.kind == "txn" and d.rows)
        if sm.num_rows("ledger") != committed:
            wrong.append(f"ledger holds {sm.num_rows('ledger')} rows, "
                         f"committed {committed}")
        updates = WRITER_CLIENTS * WRITER_CYCLES
        total = "SELECT SUM(o_totalprice) FROM orders"
        before, after = (
            e.run_query(sql_plan(total, e.sm.catalog))[0][0]
            for e in (fresh_engine, engine))
        if not math.isclose(after - before, updates, rel_tol=0, abs_tol=1e-3):
            wrong.append(f"SUM(o_totalprice) grew by {after - before}, "
                         f"want {updates}")
        return wrong, {}


# scaleout_4h's query shapes, from public plan nodes (the harness's
# scale-out figure runs the same four with fixed parameters).
def _selective_scan(table: str, rng: random.Random):
    lo = rng.randrange(0, 98)
    return Aggregate(
        TableScan(table, predicate=Between(Col("onepercent"), lo, lo + 1)),
        [AggSpec("sum", Col("unique2")), AggSpec("count", None)])


def _scan_big1(rng: random.Random):
    return _selective_scan("big1", rng)


def _scan_big2(rng: random.Random):
    return _selective_scan("big2", rng)


def _gather_join(rng: random.Random):
    """Replicated-build hash join under a Sort: fragments gather."""
    lo = rng.randrange(0, WISCONSIN.wisconsin_big_rows // 10 - 400)
    return Sort(
        HashJoin(
            TableScan("small", project=["unique1", "unique2"]),
            TableScan("big1", predicate=Between(Col("unique1"), lo, lo + 400),
                      project=["unique1", "ten"], alias="b"),
            "unique1", "b.unique1"),
        ["unique2"])


def _shuffle(rng: random.Random):
    """A GroupBy over a partitioned table: partial groups shuffle."""
    floor = rng.randrange(0, WISCONSIN.wisconsin_big_rows // 2)
    return GroupBy(
        TableScan("big2", predicate=Col("unique1") >= floor),
        ["ten"],
        [AggSpec("sum", Col("unique1")), AggSpec("count", None)])


def _broadcast_join(rng: random.Random):
    """Partitioned x partitioned join under a Limit: the build broadcasts.
    The probe scan's order reaches the LIMIT, so it is an *ordered* scan:
    circular sharing may otherwise rotate delivery order."""
    lo = rng.randrange(0, WISCONSIN.wisconsin_big_rows - 100)
    return Limit(
        HashJoin(
            TableScan("big2", predicate=Between(Col("unique1"), lo, lo + 100),
                      project=["unique1", "four"]),
            TableScan("big1", project=["unique1", "twenty"], alias="b",
                      ordered=True),
            "unique1", "b.unique1"),
        2000)


class Scaleout(Workload):
    name = "scaleout_4h"
    why = ("48 scans, joins and a shuffle over BIG1/BIG2 range-partitioned "
           "on 4 simulated hosts: the only workload through repro.shard "
           "and the network model")

    def __init__(self, hosts: int = 4):
        self.hosts = hosts

    def build(self) -> System:
        cluster, sharded, executor = build_sharded_wisconsin_system(
            WISCONSIN, self.hosts)
        return System(
            sim=cluster.sim,
            shards=[(s.host, s.sm, s.engine) for s in sharded],
            execute=executor.execute,
            network=sharded.network,
            executor=executor,
        )

    def clients(self, seed: int) -> List[Client]:
        slots = SCALEOUT_CLIENTS * SCALEOUT_QUERIES
        shapes = [_scan_big1, _scan_big1, _scan_big1, _scan_big2, _scan_big2,
                  _gather_join, _shuffle, _broadcast_join]
        schedule = (shapes * (slots // len(shapes) + 1))[:slots]
        random.Random(SCHEDULE_SEED).shuffle(schedule)
        out, seen = [], set()
        for c in range(SCALEOUT_CLIENTS):
            rng = _rng(seed, "scaleout", c)
            mine = schedule[c * SCALEOUT_QUERIES:(c + 1) * SCALEOUT_QUERIES]
            out.append(Client(
                start=SCALEOUT_STAGGER * c,
                ops=[_plan_op(_distinct_plan(shape, rng, seen),
                              ordered=shape in (_gather_join, _broadcast_join))
                     for shape in mine],
            ))
        return out

    def check(self, clients, logs, system, trace):
        reference = run_clients(Scaleout(hosts=1).build(), clients)
        wrong = []
        for c, (client, log, ref) in enumerate(zip(clients, logs, reference)):
            for i, (op, done, want) in enumerate(zip(client.ops, log, ref)):
                if want.rows is None or not rows_match(
                        done.rows, want.rows, op.ordered):
                    wrong.append(f"client {c} op {i}: rows differ from "
                                 f"the 1-host build")
        speedup = makespan(reference) / makespan(logs)
        return wrong, {"shard.speedup_vs_1h": speedup}


def makespan(logs) -> float:
    flat = [d for log in logs for d in log]
    return max(d.finished for d in flat) - min(d.submitted for d in flat)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        TpchMix("mix_packets", "qpipe", "packets",
                "the paper's Fig. 12 mix on the packet engine with OSP: "
                "row-at-a-time expression closures, packet dispatch and "
                "sharing all do real work"),
        TpchMix("mix_pushed", "dbmsx", "pushed",
                "the same plans on the fused push engine, which bypasses "
                "relational closures, engine and osp: kernel and storage "
                "work shows largest, an expression change shows nothing"),
        TpchMix("mix_iterator", "dbmsx", "packets",
                "the same plans on the Volcano reference engine: the same "
                "closures through a different operator library, and the "
                "oracle every other result is checked against"),
        ScanShare(),
        DmlMix(),
        Scaleout(),
    )
}
