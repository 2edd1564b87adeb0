"""Tests for the InvariantChecker: green on real traces, red on corrupt."""

import pytest

from repro.engine.qpipe import QPipeConfig, QPipeEngine
from repro.harness.config import build_sharded_wisconsin_system
from repro.hw.host import Host, HostConfig
from repro.obs import InvariantChecker, InvariantViolation, Tracer
from repro.relational.expressions import AggSpec, Col
from repro.relational.plans import Aggregate, Sort, TableScan
from repro.storage.manager import StorageManager

import tests.conftest as cf
from tests.test_shard_exec import TINY, _plans


def build_db():
    host = Host(HostConfig())
    sm = StorageManager(host, buffer_pages=32)
    sm.create_table("r", cf.BIG_R_SCHEMA)
    sm.load_table("r", cf.make_big_r_rows(n=600))
    return host, sm


def shared_workload_trace():
    """Two overlapping identical queries with OSP on: the trace contains
    attach events alongside the full packet lifecycles."""
    host, sm = build_db()
    tracer = Tracer(host.sim)
    engine = QPipeEngine(sm, QPipeConfig(osp_enabled=True))

    def plan():
        return Aggregate(
            Sort(TableScan("r", predicate=Col("grp") <= 5), keys=["val"]),
            [AggSpec("count", None, "n")],
        )

    procs = [
        host.sim.spawn(engine.execute(plan()), name=f"q{i}") for i in range(3)
    ]
    host.sim.run_until_done(procs)
    return tracer


def test_checker_green_on_real_shared_trace():
    tracer = shared_workload_trace()
    attaches = [
        e for e in tracer.events if e["type"] == "packet.attach"
    ]
    assert attaches, "workload must actually exercise sharing"
    checker = InvariantChecker(tracer.events)
    checker.assert_ok()
    assert checker.ok


# ---------------------------------------------------------------------------
# Deliberate corruptions: each must be flagged.
# ---------------------------------------------------------------------------
def _valid_packet_events():
    return [
        {"ts": 0.0, "type": "packet.create", "packet": "q1p0",
         "query": 1, "engine": "agg", "op": "agg", "parent": None},
        {"ts": 0.1, "type": "packet.enqueue", "packet": "q1p0",
         "query": 1, "engine": "agg", "op": "agg"},
        {"ts": 0.2, "type": "packet.dispatch", "packet": "q1p0",
         "query": 1, "engine": "agg", "op": "agg"},
        {"ts": 1.0, "type": "packet.complete", "packet": "q1p0",
         "query": 1, "engine": "agg", "op": "agg", "satellite": False},
    ]


def test_valid_synthetic_trace_passes():
    assert InvariantChecker(_valid_packet_events()).check() == []


def test_checker_green_on_a_traced_four_host_run():
    """Every host numbers its queries from 1, and a broadcast join runs
    two queries on each host: packet and query ids are checked per host."""
    _cluster, system, executor = build_sharded_wisconsin_system(TINY, 4)
    tracer = Tracer(system.sim)
    for plan in _plans().values():
        executor.run_query(plan)
    assert "broadcast" in executor.stats.strategies
    nodes = {
        event["node"] for event in tracer.events
        if event["type"].startswith("packet.")
    }
    assert nodes == {f"host{i}" for i in range(4)}
    assert InvariantChecker(tracer.events).check() == []


def test_one_packet_id_on_two_hosts_is_two_packets():
    on_two = [
        dict(event, node=node)
        for node in ("host0", "host1")
        for event in _valid_packet_events()
    ]
    on_two.sort(key=lambda event: event["ts"])
    assert InvariantChecker(on_two).check() == []
    on_one = [dict(event, node="host0") for event in on_two]
    violations = InvariantChecker(on_one).check()
    assert "packet host0/q1p0 created twice" in violations


def test_clock_regression_flagged():
    events = _valid_packet_events()
    events[2]["ts"] = 0.05  # before the enqueue at 0.1
    violations = InvariantChecker(events).check()
    assert any("clock went backwards" in v for v in violations)


def test_double_complete_flagged():
    events = _valid_packet_events()
    events.append(dict(events[-1], ts=1.5))
    violations = InvariantChecker(events).check()
    assert any("completed twice" in v for v in violations)


def test_complete_without_dispatch_or_attach_flagged():
    events = _valid_packet_events()
    del events[2]  # drop the dispatch
    violations = InvariantChecker(events).check()
    assert any("without dispatch or attach" in v for v in violations)


def test_dispatch_without_enqueue_flagged():
    events = _valid_packet_events()
    del events[1]  # drop the enqueue
    violations = InvariantChecker(events).check()
    assert any("dispatched without enqueue" in v for v in violations)


def test_generic_attach_outside_wop_flagged():
    events = _valid_packet_events()[:1] + [
        {"ts": 0.5, "type": "packet.attach", "packet": "q1p0",
         "query": 1, "engine": "agg", "op": "agg", "host": "q0p0",
         "mechanism": "generic", "host_tuples": 500, "can_replay": False},
    ]
    violations = InvariantChecker(events).check()
    assert any("outside the WoP" in v for v in violations)


def test_mj_split_against_cost_model_flagged():
    events = _valid_packet_events()[:1] + [
        {"ts": 0.5, "type": "packet.attach", "packet": "q1p0",
         "query": 1, "engine": "iscan", "op": "iscan", "host": "q0p0",
         "mechanism": "mj-split", "saved": 3, "extra": 10},
    ]
    violations = InvariantChecker(events).check()
    assert any("against the cost model" in v for v in violations)


def test_unknown_attach_mechanism_flagged():
    events = _valid_packet_events()[:1] + [
        {"ts": 0.5, "type": "packet.attach", "packet": "q1p0",
         "query": 1, "engine": "agg", "op": "agg", "host": "q0p0",
         "mechanism": "telepathy"},
    ]
    violations = InvariantChecker(events).check()
    assert any("unknown mechanism" in v for v in violations)


def test_unbalanced_pins_flagged():
    events = [
        {"ts": 0.0, "type": "pool.pin", "file": 1, "block": 2},
        {"ts": 0.1, "type": "pool.pin", "file": 1, "block": 2},
        {"ts": 0.2, "type": "pool.unpin", "file": 1, "block": 2},
    ]
    violations = InvariantChecker(events).check()
    assert any("still pinned at end of trace" in v for v in violations)


def test_evicting_pinned_page_flagged():
    events = [
        {"ts": 0.0, "type": "pool.pin", "file": 1, "block": 2},
        {"ts": 0.1, "type": "pool.evict", "file": 1, "block": 2},
        {"ts": 0.2, "type": "pool.unpin", "file": 1, "block": 2},
    ]
    violations = InvariantChecker(events).check()
    assert any("pinned page (1, 2) was evicted" in v for v in violations)


def test_corrupting_a_real_trace_is_detected():
    """The acceptance-criterion case: a genuine engine trace, minimally
    corrupted, must turn the checker red."""
    tracer = shared_workload_trace()
    events = [dict(e) for e in tracer.events]
    completes = [
        i for i, e in enumerate(events) if e["type"] == "packet.complete"
    ]
    events.append(dict(events[completes[0]], ts=events[-1]["ts"] + 1))
    checker = InvariantChecker(events)
    assert not checker.ok
    with pytest.raises(InvariantViolation) as err:
        checker.assert_ok()
    assert err.value.violations


def test_assert_ok_raises_with_violation_list():
    events = _valid_packet_events()
    events.append(dict(events[-1]))
    with pytest.raises(InvariantViolation) as err:
        InvariantChecker(events).assert_ok()
    assert any("completed twice" in v for v in err.value.violations)
    assert "invariant violation" in str(err.value)
