"""Property test: both engines return identical results for random
plans.

Hypothesis generates random (but well-formed) logical plans over the
fixture tables; the QPipe engine and the iterator engine must agree on
every one of them.  This is the repository's strongest end-to-end
correctness check: it covers scans, index scans, filters, projections,
sorts, all three joins, aggregates and group-bys in random compositions.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseline.engine import IteratorEngine
from repro.engine.qpipe import QPipeConfig, QPipeEngine
from repro.hw.host import Host, HostConfig
from repro.relational.expressions import AggSpec, Col
from repro.relational.plans import (
    Aggregate,
    AntiJoin,
    Filter,
    GroupBy,
    HashJoin,
    IndexScan,
    LeftOuterJoin,
    Limit,
    MergeJoin,
    NLJoin,
    Project,
    SemiJoin,
    Sort,
    TableScan,
)
from repro.storage.manager import StorageManager

import tests.conftest as cf


def build_db():
    host = Host(HostConfig())
    sm = StorageManager(host, buffer_pages=96)
    sm.create_table("r", cf.R_SCHEMA, clustered_on=["id"])
    sm.load_table("r", cf.make_r_rows(n=160))
    sm.create_index("r", ["id"], name="r_id", clustered=True)
    sm.create_index("r", ["grp"], name="r_grp")
    sm.create_table("s", cf.S_SCHEMA)
    sm.load_table("s", cf.make_s_rows(n=70, r_n=160))
    return host, sm


def r_predicate(rng: random.Random):
    return rng.choice(
        [
            None,
            Col("grp") == rng.randrange(7),
            Col("val") > rng.uniform(10, 90),
            (Col("grp") <= 4) & (Col("val") < rng.uniform(30, 95)),
        ]
    )


def r_source(rng: random.Random):
    choice = rng.randrange(3)
    if choice == 0:
        return TableScan("r", predicate=r_predicate(rng))
    if choice == 1:
        lo = rng.randrange(0, 120)
        return IndexScan(
            "r", "r_id", lo=lo, hi=lo + rng.randrange(10, 60),
            ordered=rng.random() < 0.5,
        )
    grp = rng.randrange(7)
    return IndexScan("r", "r_grp", lo=grp, hi=grp + rng.randrange(0, 3))


def random_plan(seed: int):
    rng = random.Random(seed)
    base = r_source(rng)
    shape = rng.randrange(6)
    if shape == 0:
        return Sort(base, keys=["val"], descending=rng.random() < 0.5)
    if shape == 1:
        return GroupBy(
            base,
            ["grp"],
            [AggSpec("count", None, "n"), AggSpec("sum", Col("val"), "sv")],
        )
    if shape == 2:
        return Aggregate(
            Filter(base, Col("val") >= rng.uniform(0, 50)),
            [AggSpec("min", Col("id"), "lo"), AggSpec("max", Col("id"), "hi"),
             AggSpec("count", None, "n")],
        )
    if shape == 3:
        join = HashJoin(base, TableScan("s"), "id", "rid")
        return GroupBy(join, ["grp"], [AggSpec("sum", Col("w"), "sw")])
    if shape == 4:
        join = MergeJoin(
            Sort(base, keys=["id"]),
            Sort(TableScan("s"), keys=["rid"]),
            "id",
            "rid",
        )
        return Aggregate(join, [AggSpec("count", None, "n")])
    return Project(
        Sort(base, keys=["id"]),
        ["twice"],
        exprs=[Col("val") * 2],
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_engines_agree_on_random_plans(seed):
    """Differential: iterator vs QPipe."""
    plan = random_plan(seed)

    host, sm = build_db()
    reference = IteratorEngine(sm).run_query(plan)

    host2, sm2 = build_db()
    qpipe = QPipeEngine(sm2, QPipeConfig(osp_enabled=True)).run_query(plan)

    assert sorted(qpipe) == sorted(reference)
    # Order-producing roots must match exactly, not just as multisets.
    if isinstance(plan, (Sort, Project)):
        assert qpipe == reference


def hash_family_plan(seed: int):
    """One of the four hash-family joins over random inputs."""
    rng = random.Random(seed)
    left = r_source(rng)
    right = TableScan(
        "s", predicate=rng.choice([None, Col("w") > rng.uniform(1, 9)])
    )
    shape = rng.randrange(4)
    if shape == 0:
        join = HashJoin(left, right, "id", "rid")
        return GroupBy(join, ["grp"], [AggSpec("sum", Col("w"), "sw")])
    join_type = (SemiJoin, AntiJoin, LeftOuterJoin)[shape - 1]
    return join_type(left, right, "id", "rid")


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), hash_family=st.booleans())
def test_engines_agree_under_memory_pressure(seed, hash_family):
    """The spill paths (external sort, Grace hash join) on both engines:
    a tiny work_mem forces them.  Rows agree, and every temp file is
    dropped."""
    plan = (hash_family_plan if hash_family else random_plan)(seed)

    host, sm = build_db()
    iterator = IteratorEngine(sm, work_mem_tuples=40)
    reference = iterator.run_query(plan)
    assert sm.leftovers(iterator) == []

    host2, sm2 = build_db()
    config = QPipeConfig(osp_enabled=True, work_mem_tuples=40)
    engine = QPipeEngine(sm2, config)
    qpipe = engine.run_query(plan)
    # repr: an outer join's None padding does not order against floats.
    assert sorted(qpipe, key=repr) == sorted(reference, key=repr)
    assert sm2.leftovers(engine) == []


def satisfied_limit_plans():
    """``LIMIT 0`` over, under and inside streaming chains and breakers."""
    scan = TableScan("r", predicate=Col("grp") < 5)
    return {
        "bare": Limit(TableScan("r"), 0),
        "over-chain": Limit(
            Project(Filter(scan, Col("val") > 20.0), ["id", "val"]), 0
        ),
        "inside-chain": Project(
            Limit(Filter(scan, Col("val") > 20.0), 0), ["id"]
        ),
        "over-probe": Limit(SemiJoin(scan, TableScan("s"), "id", "rid"), 0),
        "under-probe": SemiJoin(
            Limit(scan, 0), TableScan("s"), "id", "rid"
        ),
        "under-breaker": Sort(Limit(scan, 0), keys=["val"]),
        "over-breaker": Limit(Sort(scan, keys=["val"]), 0, offset=3),
    }


def test_satisfied_limit_never_pulls_its_input():
    """A LIMIT that is satisfied before it has emitted a row must not
    pull below itself -- not even once.  On the iterator engine: no
    block at t = 0, except that a probe *above* the satisfied limit
    builds from its right input first."""
    for name, plan in satisfied_limit_plans().items():
        host, sm = build_db()
        assert IteratorEngine(sm).run_query(plan) == [], name
        idle = name != "under-probe"
        assert (host.sim.now == 0.0) == idle, name
        assert (host.disk.stats.blocks_read == 0) == idle, name
        host2, sm2 = build_db()
        qpipe = QPipeEngine(sm2, QPipeConfig(osp_enabled=True))
        assert qpipe.run_query(plan) == [], name


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_osp_on_off_agree_on_random_plans(seed):
    plan = random_plan(seed)
    host, sm = build_db()
    with_osp = QPipeEngine(sm, QPipeConfig(osp_enabled=True)).run_query(plan)
    host2, sm2 = build_db()
    without = QPipeEngine(sm2, QPipeConfig(osp_enabled=False)).run_query(plan)
    assert sorted(with_osp) == sorted(without)


# ---------------------------------------------------------------------------
# Differential harness: seeded random Wisconsin SQL through all engines
# ---------------------------------------------------------------------------
from repro.sql import plan as sql_plan  # noqa: E402
from repro.workloads.wisconsin import WisconsinScale, load_wisconsin  # noqa: E402

DIFFERENTIAL_SEEDS = list(range(30))


def build_wisconsin_db():
    host = Host(HostConfig())
    sm = StorageManager(host, buffer_pages=64)
    load_wisconsin(sm, WisconsinScale(big_rows=300), seed=7)
    return host, sm


def random_wisconsin_sql(seed: int) -> str:
    """One random (but deterministic per seed) Wisconsin-style query.

    Every ORDER BY key below is unique per row/group, so LIMIT results
    are well-defined and comparable across engines.
    """
    rng = random.Random(seed)
    big = rng.choice(["big1", "big2"])
    k = rng.randrange(50, 280)
    a = rng.randrange(0, 150)
    b = a + rng.randrange(20, 120)
    d = rng.randrange(10)
    # Every other LIMIT asks for no rows at all: an engine must then not
    # pull (and pay for) the sort below it.
    limit = 10 * (d % 2)
    templates = [
        f"SELECT onepercent, COUNT(*) AS n, SUM(unique1) AS s FROM {big} "
        f"WHERE unique1 < {k} GROUP BY onepercent ORDER BY onepercent",
        f"SELECT unique1, unique2 FROM {big} "
        f"WHERE unique1 BETWEEN {a} AND {b} ORDER BY unique1",
        f"SELECT DISTINCT ten FROM {big} WHERE unique1 < {k}",
        f"SELECT COUNT(*) AS n FROM {big} "
        f"JOIN small ON {big}.unique1 = small.unique1 "
        f"WHERE {big}.unique1 < {k}",
        f"SELECT four, MIN(unique1) AS lo, MAX(unique1) AS hi FROM {big} "
        f"WHERE unique1 >= {a} GROUP BY four ORDER BY four",
        f"SELECT unique2 FROM small WHERE tenpercent = {d} "
        f"ORDER BY unique2 LIMIT {limit}",
    ]
    return templates[rng.randrange(len(templates))]


def _run_concurrent(host, engine, plans, stagger: float = 0.0):
    """Submit all *plans* with small staggers so OSP can share work."""
    procs = []

    def client(p, delay):
        yield host.sim.timeout(delay)
        result = yield from engine.execute(p)
        return result

    for i, p in enumerate(plans):
        procs.append(host.sim.spawn(client(p, i * stagger), name=f"dq{i}"))
    host.sim.run_until_done(procs)
    return [proc.value.rows for proc in procs]


def _is_aggregate_sql(sql: str) -> bool:
    return any(fn in sql for fn in ("COUNT(", "SUM(", "MIN(", "MAX("))


def test_differential_wisconsin_sql():
    """~30 seeded random SQL queries agree across the iterator engine,
    QPipe with sharing off, QPipe with sharing on (submitted
    concurrently)."""
    queries = {seed: random_wisconsin_sql(seed) for seed in DIFFERENTIAL_SEEDS}

    host_ref, sm_ref = build_wisconsin_db()
    ref_engine = IteratorEngine(sm_ref)
    reference = {
        seed: sorted(ref_engine.run_query(sql_plan(sql, sm_ref.catalog)))
        for seed, sql in queries.items()
    }

    # The seed range must actually exercise aggregate equality.
    assert sum(_is_aggregate_sql(sql) for sql in queries.values()) >= 5

    host_off, sm_off = build_wisconsin_db()
    engine_off = QPipeEngine(sm_off, QPipeConfig(osp_enabled=False))
    for seed, sql in queries.items():
        got = sorted(engine_off.run_query(sql_plan(sql, sm_off.catalog)))
        assert got == reference[seed], f"OSP-off mismatch seed {seed}: {sql}"

    host_on, sm_on = build_wisconsin_db()
    engine_on = QPipeEngine(sm_on, QPipeConfig(osp_enabled=True))
    compiled = [sql_plan(sql, sm_on.catalog) for sql in queries.values()]
    all_rows = _run_concurrent(host_on, engine_on, compiled)
    for (seed, sql), rows in zip(queries.items(), all_rows):
        assert sorted(rows) == reference[seed], (
            f"OSP-on mismatch seed {seed}: {sql}"
        )
    # The concurrent submission must actually have exercised sharing.
    stats = engine_on.osp_stats
    assert stats.attaches or stats.shared_page_deliveries
