"""Tests for the tracing subsystem: Tracer, exporters, QueryTrace."""

import json

from repro.engine.qpipe import QPipeEngine
from repro.hw.host import Host, HostConfig
from repro.obs import (
    NULL_TRACER,
    NullTracer,
    QueryTrace,
    Tracer,
    chrome_trace,
    jsonl_dumps,
    query_ids,
    read_jsonl,
    write_jsonl,
)
from repro.relational.expressions import AggSpec, Col
from repro.relational.plans import Aggregate, Filter, Sort, TableScan
from repro.sim import Simulator
from repro.storage.manager import StorageManager

import tests.conftest as cf


def build_db():
    host = Host(HostConfig())
    sm = StorageManager(host, buffer_pages=32)
    sm.create_table("r", cf.BIG_R_SCHEMA)
    sm.load_table("r", cf.make_big_r_rows(n=600))
    return host, sm


def traced_run(plan=None):
    host, sm = build_db()
    tracer = Tracer(host.sim)
    engine = QPipeEngine(sm)
    if plan is None:
        plan = Sort(
            Filter(TableScan("r"), Col("grp") <= 4),
            keys=["val"],
        )
    rows = engine.run_query(plan)
    return tracer, rows


def test_simulator_defaults_to_null_tracer():
    sim = Simulator()
    assert sim.tracer is NULL_TRACER
    assert not sim.tracer.enabled
    # Every hook is a no-op returning None.
    assert NullTracer().osp("anything", field=1) is None
    assert NullTracer().pool("hit", 1, 2) is None
    assert NullTracer().proc("spawn", "p") is None


def test_tracer_installs_itself_and_records():
    sim = Simulator()
    tracer = Tracer(sim)
    assert sim.tracer is tracer
    assert tracer.enabled
    tracer.pool("hit", 3, 9)
    assert tracer.events == [
        {"ts": 0.0, "type": "pool.hit", "file": 3, "block": 9}
    ]


def test_traced_query_has_full_packet_lifecycle():
    tracer, rows = traced_run()
    assert rows  # the query returned data
    types = {e["type"] for e in tracer.events}
    assert {"packet.create", "packet.enqueue", "packet.dispatch",
            "packet.complete"} <= types
    assert "pool.miss" in types
    assert "proc.spawn" in types
    # Deterministic packet ids, never Python object ids.
    pids = {e["packet"] for e in tracer.events if "packet" in e}
    assert pids and all(p.startswith("q") and "p" in p for p in pids)
    # Virtual timestamps are monotone.
    stamps = [e["ts"] for e in tracer.events]
    assert stamps == sorted(stamps)


def test_jsonl_round_trip(tmp_path):
    tracer, _ = traced_run()
    path = tmp_path / "trace.jsonl"
    write_jsonl(tracer.events, path)
    assert read_jsonl(path) == tracer.events
    # Deterministic rendering: keys sorted, one object per line.
    blob = jsonl_dumps(tracer.events)
    lines = blob.splitlines()
    assert len(lines) == len(tracer.events)
    first = json.loads(lines[0])
    assert list(first) == sorted(first)


def test_chrome_trace_threads_and_slices():
    tracer, _ = traced_run()
    doc = chrome_trace(tracer.events)
    events = doc["traceEvents"]
    thread_names = {
        e["args"]["name"] for e in events if e.get("name") == "thread_name"
    }
    # One thread per micro-engine touched, plus the bufferpool thread.
    assert {"fscan", "filter", "sort", "bufferpool"} <= thread_names
    completes = [
        e for e in tracer.events if e["type"] == "packet.complete"
    ]
    slices = [e for e in events if e.get("ph") == "X"]
    assert len(slices) == len(completes)
    assert all(s["dur"] >= 0 for s in slices)


def test_query_trace_analysis():
    tracer, _ = traced_run()
    qids = query_ids(tracer.events)
    assert len(qids) == 1
    qt = QueryTrace(tracer.events, qids[0])
    # Three plan nodes -> three packets: scan, filter, sort.
    assert len(qt.packets) == 3
    root = qt.root
    assert root is not None and root.op == "sort"
    path = qt.critical_path()
    assert path[0] is root and len(path) >= 2
    assert qt.response_time() > 0
    breakdown = qt.wait_breakdown()
    assert {"fscan", "filter", "sort"} <= set(breakdown)
    assert sum(slot["service"] for slot in breakdown.values()) > 0
    assert qt.shared_packets() == []


def test_disabled_tracing_records_nothing():
    host, sm = build_db()
    engine = QPipeEngine(sm)
    engine.run_query(
        Aggregate(TableScan("r"), [AggSpec("count", None, "n")])
    )
    assert host.sim.tracer is NULL_TRACER
