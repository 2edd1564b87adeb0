"""Distributed execution differentials: byte-identical to single-host.

Every test runs real partitioned Wisconsin deployments built by the
harness builder (range-partitioned BIG tables, replicated SMALL) and
compares full result rows -- not digests -- across host counts,
engines, and planner strategies.  The reference is always the 1-host
deployment, where every table is unpartitioned and the executor runs
plans locally on the plain engine.
"""

from dataclasses import replace

import pytest

from repro.harness.config import SMOKE, build_sharded_wisconsin_system
from repro.relational.expressions import AggSpec, Between, Col
from repro.relational.plans import (
    Aggregate,
    Gather,
    GroupBy,
    HashJoin,
    Limit,
    MergeJoin,
    Sort,
    TableScan,
)
from repro.sql.planner import UnshardablePlan, plan_distributed

#: Small-but-real deployment: keeps 9 cluster builds per test run cheap.
TINY = replace(SMOKE, name="tiny", wisconsin_big_rows=900)

ENGINES = [
    pytest.param("qpipe", id="qpipe-packets"),
    pytest.param("dbmsx", id="dbmsx-iterator"),
]


def _plans():
    """One plan per distribution strategy (built fresh per deployment)."""
    count = AggSpec("count", None)
    return {
        "local": Aggregate(  # replicated table only: runs on one shard
            TableScan("small"), [AggSpec("sum", Col("unique2")), count]
        ),
        "gather": Aggregate(  # partitioned scan, order-insensitive suffix
            TableScan("big1", predicate=Between(Col("onepercent"), 0, 1)),
            [AggSpec("sum", Col("unique2")), count],
        ),
        "shuffle": GroupBy(  # grouped aggregate: hash repartition
            TableScan("big2"),
            ["ten"],
            [AggSpec("sum", Col("unique1")), count],
        ),
        "broadcast": Limit(  # partitioned x partitioned hash join
            HashJoin(
                TableScan(
                    "big2",
                    predicate=Between(Col("unique1"), 0, 60),
                    project=["unique1", "four"],
                ),
                # ordered: the probe order flows through to the LIMIT.
                TableScan(
                    "big1", project=["unique1", "twenty"], alias="b",
                    ordered=True,
                ),
                "unique1",
                "b.unique1",
            ),
            500,
        ),
        "repl-join": Sort(  # replicated build, partitioned probe: gather
            HashJoin(
                TableScan("small", project=["unique1", "unique2"]),
                TableScan(
                    "big1",
                    predicate=Between(Col("unique1"), 0, 300),
                    project=["unique1", "ten"],
                    alias="b",
                ),
                "unique1",
                "b.unique1",
            ),
            ["unique2"],
        ),
    }


def _run_all(engine, hosts, prefer_shuffle=True):
    _cluster, system, executor = build_sharded_wisconsin_system(
        TINY, hosts, system=engine, prefer_shuffle=prefer_shuffle,
    )
    rows = {
        name: executor.run_query(plan) for name, plan in _plans().items()
    }
    return rows, executor, system


# ---------------------------------------------------------------------------
# The ISSUE differential: every engine, every host count, same bytes
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
def test_sharded_rows_identical_across_host_counts(engine):
    reference, ref_exec, _ = _run_all(engine, hosts=1)
    assert set(ref_exec.stats.strategies) == {"local"}  # 1 host = no dist
    for hosts in (2, 4):
        rows, executor, _ = _run_all(engine, hosts=hosts)
        for name in reference:
            assert rows[name] == reference[name], (
                f"{name} diverged at {hosts} hosts on {engine}"
            )
        assert executor.stats.strategies == {
            "local": 1, "gather": 2, "shuffle": 1, "broadcast": 1,
        }
        assert executor.stats.queries == len(reference)
        assert executor.stats.bytes_shipped > 0


def test_sharded_rows_identical_across_engines():
    """The relational answer is engine-independent, sharded or not."""
    assert _run_all("dbmsx", hosts=2)[0] == _run_all("qpipe", hosts=2)[0]


def test_prefer_shuffle_off_falls_back_to_gather():
    """With shuffle disabled the grouped aggregate gathers raw rows to
    the coordinator instead -- a different exchange pattern, the same
    answer."""
    shuffled, exec_s, _ = _run_all("qpipe", hosts=2)
    gathered, exec_g, _ = _run_all("qpipe", hosts=2, prefer_shuffle=False)
    assert gathered == shuffled
    assert "shuffle" in exec_s.stats.strategies
    assert "shuffle" not in exec_g.stats.strategies
    assert exec_g.stats.strategies.get("gather") == 3


def test_network_traffic_flows_only_when_partitioned():
    _, exec1, sys1 = _run_all("qpipe", hosts=1)
    _, exec4, sys4 = _run_all("qpipe", hosts=4)
    assert sys1.network.stats.messages == 0  # everything is loopback
    assert exec1.stats.bytes_shipped == 0  # nothing is partitioned
    assert sys4.network.stats.messages > 0
    assert sys4.network.stats.bytes_on_wire > 0
    # Coordinator-resident shards exchange over loopback, off the wire.
    assert sys4.network.stats.loopback_messages > 0


# ---------------------------------------------------------------------------
# Planner classification
# ---------------------------------------------------------------------------
def test_planner_picks_documented_strategies():
    _, system, _executor = _run_all("qpipe", hosts=2)
    catalog = system.catalog
    for expected, plan in _plans().items():
        dist = plan_distributed(plan, catalog)
        want = {"repl-join": "gather"}.get(expected, expected)
        assert dist.strategy == want, f"{expected}: got {dist.strategy}"


def test_planner_rejects_unshardable_shapes():
    _, system, _executor = _run_all("qpipe", hosts=2)
    catalog = system.catalog
    # MergeJoin's interleaved consumption has no partition-safe rewrite.
    with pytest.raises(UnshardablePlan):
        plan_distributed(
            MergeJoin(
                TableScan("big1", project=["unique1", "two"]),
                TableScan("big2", project=["unique1", "four"], alias="b"),
                "unique1",
                "b.unique1",
            ),
            catalog,
        )
    # Partitioned build with a replicated probe: the probe (driver) side
    # is whole, so neither gather nor broadcast reproduces the answer.
    with pytest.raises(UnshardablePlan):
        plan_distributed(
            HashJoin(
                TableScan("big1", project=["unique1", "two"]),
                TableScan("small", project=["unique1", "four"], alias="b"),
                "unique1",
                "b.unique1",
            ),
            catalog,
        )
    # Explicit exchange operators belong to the planner, not user plans.
    with pytest.raises(UnshardablePlan):
        plan_distributed(Gather(TableScan("big1")), catalog)


# ---------------------------------------------------------------------------
# The coordinator's suffix: the streaming operators' own stages
# ---------------------------------------------------------------------------
def test_suffix_runs_the_engines_stages_and_still_refuses_a_probe(db):
    from repro.baseline.engine import IteratorEngine
    from repro.baseline.operators import ExecContext
    from repro.relational.plans import Distinct, Filter, Project, SemiJoin
    from repro.shard.merge import apply_suffix

    host, sm, r_rows, _s_rows = db
    scan = TableScan("r")
    kept = Filter(scan, Col("grp") < 3)
    cols = Project(kept, ["grp", "tag"])
    once = Distinct(cols)
    some = Limit(once, 5, offset=2)
    ctx = ExecContext(sm=sm, host=host)

    def suffix_of(ops):
        proc = host.sim.spawn(apply_suffix(ops, r_rows, sm.catalog, ctx))
        host.sim.run()
        return proc.value

    before = host.cpu.total_bursts
    rows = suffix_of([kept, cols, once, some])
    # Filter, project and distinct charge per input row; LIMIT nothing.
    assert host.cpu.total_bursts - before == 3
    assert rows == IteratorEngine(sm).run_query(some)
    assert suffix_of([Limit(scan, 0)]) == []
    # A probe has a second input: the planner never peels one, and the
    # evaluator refuses rather than guess.
    probe = SemiJoin(scan, TableScan("s"), "id", "rid")
    with pytest.raises(TypeError, match="no merge evaluator for SemiJoin"):
        next(apply_suffix([probe], r_rows, sm.catalog, ctx))
