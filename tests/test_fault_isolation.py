"""Failure isolation for shared pipelines (OSP under faults).

One participant of a shared scan or shared operator dying must not take
the others with it: satellites of a crashed host detach into private
catch-up executions, a crashed shared scanner restarts for its surviving
consumers, and aborting a satellite's query leaves the host untouched.
"""

import pytest

from repro.engine.qpipe import QPipeConfig, QPipeEngine
from repro.faults import QueryAborted
from repro.faults.errors import FaultError
from repro.obs import Tracer
from repro.obs.invariants import InvariantChecker
from repro.relational.expressions import AggSpec, Col
from repro.relational.plans import Aggregate, TableScan


def count_plan(predicate=None):
    return Aggregate(
        TableScan("r", predicate=predicate), [AggSpec("count", None, "n")]
    )


def spawn_catching(host, engine, plan, name="client", delay=0.0):
    box = {}

    def client():
        if delay:
            yield host.sim.timeout(delay)
        try:
            result = yield from engine.execute(plan)
        except FaultError as exc:
            box["error"] = exc
            return None
        box["rows"] = result.rows
        return result

    box["proc"] = host.sim.spawn(client(), name=name)
    return box


def trace_types(tracer):
    return [e["type"] for e in tracer.events]


def assert_clean(sm, engine, tracer):
    assert sm.leftovers(engine) == []
    assert InvariantChecker(tracer.events).check() == []


# ---------------------------------------------------------------------------
# Crashed shared scanner: survivors get a restarted scan, not an abort
# ---------------------------------------------------------------------------
def test_scanner_crash_mid_wrap_satellites_complete(big_db):
    """Killing the host scanner of an active shared circular scan
    mid-wrap must leave the attached consumers producing complete,
    correct results (the restarted scanner resumes at the crash
    position and every consumer still sees each page exactly once)."""
    host, sm, r_rows, _s = big_db
    engine = QPipeEngine(sm, QPipeConfig(osp_enabled=True))
    tracer = Tracer(host.sim)

    # Different predicates: both share the circular scan, neither can
    # piggyback on the other's aggregate.
    first = spawn_catching(host, engine, count_plan(), name="first")
    second = spawn_catching(
        host, engine, count_plan(Col("grp") == 3), name="second", delay=0.1
    )

    crashed = {}

    def killer():
        yield host.sim.timeout(0.25)
        scan = engine.engines["fscan"].circular.scans.get("r")
        assert scan is not None and scan.scanner_proc.alive
        # Mid-wrap: the second consumer attached mid-file, and the
        # scanner is away from page 0.
        crashed["position"] = scan.current_page
        crashed["consumers"] = len(scan.consumers)
        scan.scanner_proc.interrupt("injected scanner crash")

    host.sim.spawn(killer(), name="killer")
    host.sim.run()

    assert crashed["position"] != 0
    assert crashed["consumers"] == 2
    assert first["rows"] == [(len(r_rows),)]
    want = sum(1 for row in r_rows if row[1] == 3)
    assert second["rows"] == [(want,)]
    assert "osp.scanner_restart" in trace_types(tracer)
    assert engine.queries_aborted == 0
    assert_clean(sm, engine, tracer)


# ---------------------------------------------------------------------------
# Crashed host packet: generic satellites detach and re-execute privately
# ---------------------------------------------------------------------------
def test_host_crash_redispatches_generic_satellite(big_db):
    host, sm, r_rows, _s = big_db
    engine = QPipeEngine(sm, QPipeConfig(osp_enabled=True))
    tracer = Tracer(host.sim)

    first = spawn_catching(host, engine, count_plan(), name="first")
    # Identical signature: the second query's aggregate attaches to the
    # first's as a generic satellite.
    second = spawn_catching(host, engine, count_plan(), name="second", delay=0.05)
    host.sim.schedule(0.2, engine.cancel, 1, "host query aborted")
    host.sim.run()

    types = trace_types(tracer)
    assert "packet.attach" in types  # the share really happened
    assert isinstance(first["error"], QueryAborted)
    # The satellite was detached (not dragged down) and completed.
    assert "packet.detach" in types
    assert second["rows"] == [(len(r_rows),)]
    assert engine.queries_aborted == 1
    assert_clean(sm, engine, tracer)


def test_satellite_abort_leaves_host_undisturbed(big_db):
    host, sm, r_rows, _s = big_db
    engine = QPipeEngine(sm, QPipeConfig(osp_enabled=True))
    tracer = Tracer(host.sim)

    first = spawn_catching(host, engine, count_plan(), name="first")
    second = spawn_catching(host, engine, count_plan(), name="second", delay=0.05)
    host.sim.schedule(0.2, engine.cancel, 2, "satellite query aborted")
    host.sim.run()

    types = trace_types(tracer)
    assert "packet.attach" in types
    assert isinstance(second["error"], QueryAborted)
    # The host query never noticed.
    assert first["rows"] == [(len(r_rows),)]
    assert engine.queries_aborted == 1
    assert_clean(sm, engine, tracer)
