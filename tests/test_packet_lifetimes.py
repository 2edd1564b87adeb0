"""Lifetime oracle: a finished query leaves no packet behind.

Every :class:`Packet`, :class:`FanOut` and :class:`TupleBuffer` built
during a run is tracked through a weak reference.  Once the run is over
and the cycle collector has run, none may survive while the caller still
holds the *system* (host, storage manager, engine): an idle worker, a
closed fan-out's replay ring, the deadlock detector's buffer registry or
a finished relay process that still pinned one would keep that query's
whole packet tree -- and every batch of rows in it -- alive.
"""

import gc
import weakref

import pytest

from repro.engine.buffers import FanOut, FanOutClosed, TupleBuffer
from repro.engine.packets import Packet
from repro.engine.qpipe import QPipeConfig, QPipeEngine
from repro.faults import QueryAborted
from repro.harness.config import build_sharded_wisconsin_system
from repro.relational.expressions import AggSpec, Col
from repro.relational.plans import (
    Aggregate,
    GroupBy,
    HashJoin,
    Sort,
    TableScan,
)
from repro.sim import Simulator

from tests.test_osp_order_sensitive import mj_plan, solo_duration
from tests.test_shard_exec import TINY, _plans


@pytest.fixture
def tracked(monkeypatch):
    """Weak references to every Packet, FanOut and TupleBuffer built."""
    refs = []
    for cls in (Packet, FanOut, TupleBuffer):
        def tracking(self, *args, _init=cls.__init__, **kwargs):
            _init(self, *args, **kwargs)
            refs.append(weakref.ref(self))

        monkeypatch.setattr(cls, "__init__", tracking)
    return refs


def survivors(refs):
    gc.collect()
    return [obj for obj in (ref() for ref in refs) if obj is not None]


def run_clients(host, engine, plans):
    """Run ``(delay, plan)`` clients, then the simulation, to completion;
    returns the rows (or the QueryAborted) of each client, in order."""
    out = [None] * len(plans)

    def client(i, delay, plan):
        yield host.sim.timeout(delay)
        try:
            result = yield from engine.execute(plan)
        except QueryAborted as exc:
            # Without its traceback: the frames it references are the
            # caller's to keep, not the engine's.
            out[i] = exc.with_traceback(None)
            return
        out[i] = result.rows

    procs = [
        host.sim.spawn(client(i, delay, plan), name=f"client{i}")
        for i, (delay, plan) in enumerate(plans)
    ]
    host.sim.run_until_done(procs)
    # Let abandoned producers (a merge-join restart's old input) wind down.
    host.sim.run()
    return out


def report_plan():
    """Sort over GroupBy over a hash join: three pipeline breakers."""
    return Sort(
        GroupBy(
            HashJoin(TableScan("r"), TableScan("s"), "id", "rid"),
            ["grp"],
            [AggSpec("count", None, "n"), AggSpec("sum", Col("w"), "sw")],
        ),
        ["grp"],
    )


def scan_plan(lo):
    return Aggregate(
        TableScan("r", predicate=Col("val") >= lo),
        [AggSpec("count", None, "n")],
    )


# ---------------------------------------------------------------------------
# Single host
# ---------------------------------------------------------------------------
def test_a_shared_cohort_leaves_nothing_behind(big_db, tracked):
    """Circular-scan sharing, hash join, group-by and sort, with
    satellites attached to in-progress hosts."""
    host, sm, _r, _s = big_db
    engine = QPipeEngine(sm, QPipeConfig(osp_enabled=True))
    rows = run_clients(host, engine, [
        (0.0, report_plan()),
        (0.02, report_plan()),
        (0.05, scan_plan(10.0)),
        (0.1, scan_plan(50.0)),
        (0.15, report_plan()),
    ])
    assert rows[0] == rows[1] == rows[4]
    assert engine.osp_stats.total_attaches > 0
    assert engine.osp_stats.shared_page_deliveries > 0
    assert survivors(tracked) == []
    assert engine.live_buffers() == []


def test_a_merge_join_split_leaves_nothing_behind(big_db, tracked):
    """Section 4.3.2: the late query's two-pass split relay finishes
    after its host; neither may pin the other."""
    host, sm, _r, _s = big_db
    engine = QPipeEngine(
        sm,
        QPipeConfig(osp_enabled=True, replay_tuples=64, buffer_tuples=256),
    )
    stagger = solo_duration() / 2
    run_clients(host, engine, [(0.0, mj_plan("count")),
                               (stagger, mj_plan("sum"))])
    assert engine.osp_stats.mj_splits >= 1
    assert survivors(tracked) == []


def test_a_cancelled_query_leaves_nothing_behind(big_db, tracked):
    """An abort mid-run tears down a host whose satellite must survive."""
    host, sm, r_rows, _s = big_db
    engine = QPipeEngine(sm, QPipeConfig(osp_enabled=True))
    host.sim.schedule(0.05, engine.cancel, 1, "user hit ctrl-c")
    rows = run_clients(host, engine, [
        (0.0, report_plan()),
        (0.01, report_plan()),
        (0.0, scan_plan(0.0)),
    ])
    assert isinstance(rows[0], QueryAborted)
    assert rows[1] == engine.run_query(report_plan())
    assert rows[2] == [(len(r_rows),)]
    assert engine.queries_aborted == 1
    assert survivors(tracked) == []


# ---------------------------------------------------------------------------
# Four hosts
# ---------------------------------------------------------------------------
def test_a_four_host_run_leaves_nothing_behind(tracked):
    _cluster, system, executor = build_sharded_wisconsin_system(
        TINY, 4, system="qpipe"
    )
    for plan in _plans().values():
        executor.run_query(plan)
    assert set(executor.stats.strategies) >= {"gather", "shuffle",
                                              "broadcast"}
    assert survivors(tracked) == []
    assert all(shard.engine.live_buffers() == [] for shard in system)


# ---------------------------------------------------------------------------
# The replay ring of a closed fan-out
# ---------------------------------------------------------------------------
def _fanout(sim):
    return FanOut(sim, TupleBuffer(sim, capacity_tuples=8, name="primary"))


def test_replaying_attach_on_a_closed_fanout_raises():
    sim = Simulator()
    fan = _fanout(sim)
    late = TupleBuffer(sim, capacity_tuples=8, name="late")
    seen = []

    def producer_then_late_attach():
        yield from fan.put([(1,), (2,)])
        fan.close()
        try:
            yield from fan.attach(late, replay=True)
        except FanOutClosed as exc:
            seen.append(exc)

    sim.spawn(producer_then_late_attach())
    sim.spawn(fan.primary.drain())
    sim.run()
    assert len(seen) == 1 and "replay after close" in str(seen[0])
    assert not late.closed  # never attached: the caller still owns it


def test_a_promised_replay_survives_close():
    """The attach decision and the attach are separate simulator steps;
    a satellite admitted while the fan-out was open still gets the whole
    output when the producer closes in between."""
    sim = Simulator()
    fan = _fanout(sim)
    late = TupleBuffer(sim, capacity_tuples=8, name="late")
    got = {}

    def producer():
        yield from fan.put([(1,), (2,)])
        fan.promise_replay(late)
        fan.close()
        yield from fan.attach(late, replay=True)

    def reader():
        got["rows"] = yield from late.drain()

    def unpromised():
        yield sim.timeout(1.0)
        try:
            yield from fan.attach(TupleBuffer(sim, 8), replay=True)
        except FanOutClosed:
            got["refused"] = True

    sim.spawn(producer())
    sim.spawn(fan.primary.drain())
    sim.spawn(reader())
    sim.spawn(unpromised())
    sim.run()
    assert got["rows"] == [(1,), (2,)]
    # Only the promised buffer was owed a replay.
    assert got["refused"]
