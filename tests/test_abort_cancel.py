"""Query abort, cancellation, deadlines, and resource reclamation.

An abort -- explicit cancel, deadline, injected fault, client disconnect
-- must tear the whole packet tree down, close every buffer so consumers
see EOF, and release every buffer-pool pin and table lock.  Also covers
the starvation diagnostics (each stuck process names what it waits on)
and the deadlock detector's stale-edge filtering.
"""

import pytest

from repro.engine.qpipe import QPipeConfig, QPipeEngine
from repro.faults import QueryAborted
from repro.faults.errors import FaultError
from repro.relational.expressions import AggSpec, Col
from repro.relational.plans import Aggregate, Sort, TableScan, UpdateRows
from repro.sim import Channel, Interrupted, Simulator, StarvationError


def count_plan():
    return Aggregate(TableScan("r"), [AggSpec("count", None, "n")])


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


# ---------------------------------------------------------------------------
# Explicit cancellation and deadlines
# ---------------------------------------------------------------------------
def test_explicit_cancel_mid_query(big_db):
    host, sm, _r, _s = big_db
    engine = QPipeEngine(sm, QPipeConfig(osp_enabled=True))
    box = spawn_catching(host, engine, count_plan())
    # Cancel mid-scan (a big_db scan takes ~0.4 virtual seconds).
    host.sim.schedule(0.05, engine.cancel, 1, "user hit ctrl-c")
    host.sim.run()
    assert isinstance(box["error"], QueryAborted)
    assert "user hit ctrl-c" in str(box["error"])
    assert engine.queries_aborted == 1
    assert sm.leftovers(engine) == []


def test_cancel_unknown_or_finished_query_is_false(db):
    host, sm, r_rows, _s = db
    engine = QPipeEngine(sm, QPipeConfig(osp_enabled=True))
    assert engine.cancel(999) is False
    assert engine.run_query(count_plan()) == [(len(r_rows),)]
    assert engine.cancel(1) is False  # already finished


def test_deadline_aborts_slow_query(big_db):
    host, sm, _r, _s = big_db
    engine = QPipeEngine(sm, QPipeConfig(osp_enabled=True))
    box = {}

    def client():
        try:
            yield from engine.execute(count_plan(), deadline=0.05)
        except QueryAborted as exc:
            box["error"] = exc

    host.sim.spawn(client())
    host.sim.run()
    assert "deadline" in str(box["error"])
    assert sm.leftovers(engine) == []


def test_deadline_is_an_absolute_virtual_instant(big_db):
    """``deadline`` names the instant the query dies, not a budget from
    submission: submitted at t=0.1 with deadline=0.30, it aborts at
    exactly t=0.30 (0.40 would mean a budget)."""
    host, sm, _r, _s = big_db
    engine = QPipeEngine(sm, QPipeConfig(osp_enabled=True))
    box = {}

    def client():
        yield host.sim.timeout(0.1)
        try:
            yield from engine.execute(count_plan(), deadline=0.30)
        except QueryAborted as exc:
            box["error"] = exc
            box["at"] = host.sim.now

    host.sim.spawn(client())
    host.sim.run()
    assert "deadline of 0.300s exceeded" in str(box["error"])
    assert box["at"] == 0.30
    assert sm.leftovers(engine) == []


def test_deadline_far_away_does_not_fire(db):
    host, sm, r_rows, _s = db
    engine = QPipeEngine(sm, QPipeConfig(osp_enabled=True))
    box = spawn_catching(host, engine, count_plan())

    def run_with_deadline():
        result = yield from engine.execute(count_plan(), deadline=1e6)
        box["deadline_rows"] = result.rows

    host.sim.spawn(run_with_deadline())
    host.sim.run()
    assert box["deadline_rows"] == [(len(r_rows),)]
    assert engine.queries_aborted == 0


def test_client_disconnect_cleans_up_server_side(big_db):
    host, sm, _r, _s = big_db
    engine = QPipeEngine(sm, QPipeConfig(osp_enabled=True))

    def client():
        yield from engine.execute(count_plan())

    proc = host.sim.spawn(client(), name="doomed-client")
    host.sim.schedule(0.05, proc.interrupt, "connection lost")
    host.sim.run()
    assert not proc.alive
    assert engine.queries_aborted == 1
    assert sm.leftovers(engine) == []


# ---------------------------------------------------------------------------
# Aborted writers leave no residual locks
# ---------------------------------------------------------------------------
def test_aborted_update_releases_exclusive_lock(big_db):
    """Killing an Update mid-write must drop its X lock so later scans
    and writers proceed (no residual exclusive lock)."""
    host, sm, r_rows, _s = big_db
    engine = QPipeEngine(sm, QPipeConfig(osp_enabled=True))
    update = UpdateRows(
        "r", Col("grp") == 3, lambda row: (row[0], row[1], 0.0, row[3])
    )
    box = spawn_catching(host, engine, update, name="writer")
    host.sim.schedule(0.1, engine.cancel, 1, "abort the writer")
    host.sim.run()
    assert isinstance(box["error"], QueryAborted)
    assert sm.leftovers(engine) == []

    # A follow-up scan must acquire the shared lock immediately and run.
    after = spawn_catching(host, engine, count_plan(), name="reader")
    host.sim.run()
    assert after["rows"] == [(len(r_rows),)]


def test_lock_release_where_and_release_if_held(db):
    host, sm, _r, _s = db
    locks = sm.locks
    from repro.storage.locks import LockMode

    def holder():
        yield locks.acquire(("q", 1, "p0"), "r", LockMode.SHARED)
        yield locks.acquire(("q", 2, "p0"), "r", LockMode.SHARED)

    host.sim.spawn(holder())
    host.sim.run()
    # Quiet no-op for a grant that is not held.
    assert locks.release_if_held(("q", 3, "p0"), "r") is False
    assert locks.release_if_held(("q", 1, "p0"), "r") is True
    assert locks.release_if_held(("q", 1, "p0"), "r") is False
    # Sweep by predicate (the abort path's reclamation).
    dropped = locks.release_where(
        lambda owner: isinstance(owner, tuple) and owner[1] == 2
    )
    assert dropped == 1
    assert locks.holders("r") == []


# ---------------------------------------------------------------------------
# Starvation diagnostics (StarvationError names the blockers)
# ---------------------------------------------------------------------------
def test_starvation_error_names_blocked_processes():
    sim = Simulator()
    channel = Channel(sim, capacity=4, name="stuck-pipe")

    def consumer():
        yield channel.get()

    proc = sim.spawn(consumer(), name="starving-consumer")
    with pytest.raises(StarvationError) as exc:
        sim.run_until_done([proc])
    message = str(exc.value)
    assert "starving-consumer" in message
    assert "get on channel stuck-pipe" in message


def test_starvation_error_describes_lock_waits(db):
    host, sm, _r, _s = db
    from repro.storage.locks import LockMode

    def writer():
        yield sm.locks.acquire(("q", 1, "p0"), "r", LockMode.EXCLUSIVE)
        yield host.sim.timeout(1e9)  # never releases

    def blocked():
        yield sm.locks.acquire(("q", 2, "p0"), "r", LockMode.EXCLUSIVE)

    host.sim.spawn(writer(), name="writer")
    proc = host.sim.spawn(blocked(), name="blocked-writer")
    with pytest.raises(StarvationError) as exc:
        host.sim.run_until_done([proc])
    message = str(exc.value)
    assert "blocked-writer" in message
    assert "lock on 'r'" in message


# ---------------------------------------------------------------------------
# Deadlock detector: stale waits-for edges
# ---------------------------------------------------------------------------
def test_deadlock_detector_ignores_stale_edges(db):
    """A completed/aborted endpoint must not contribute waits-for edges:
    phantom cycles during teardown would materialise innocent buffers."""
    from repro.engine.buffers import TupleBuffer
    from repro.engine.packets import Packet, PacketState, QueryContext
    from repro.osp.deadlock import DeadlockDetector

    host, sm, _r, _s = db
    engine = QPipeEngine(sm, QPipeConfig(osp_enabled=True))
    sim = host.sim
    query = QueryContext(query_id=1, plan=None, sm=sm, host_machine=host)

    def packet(pid):
        p = Packet(query=query, plan=None, signature=pid, engine_name="x")
        p.packet_id = pid
        p.state = PacketState.RUNNING
        return p

    a, b = packet("pA"), packet("pB")

    def wire(producer, consumer, name):
        buf = TupleBuffer(
            sim, capacity_tuples=1, name=name,
            producer=producer, consumer=consumer,
        )
        engine.register_buffer(buf)
        return buf

    ab = wire(a, b, "a->b")
    ba = wire(b, a, "b->a")

    # Fill both buffers and park a blocked producer on each: a real cycle.
    def stuff(buf):
        yield from buf.put([(1,)])
        yield from buf.put([(2,)])  # blocks: capacity 1

    sim.spawn(stuff(ab))
    sim.spawn(stuff(ba))
    sim.run()
    detector = DeadlockDetector(engine)

    # The cycle exists, but a cancelled endpoint makes its edges stale.
    a.state = PacketState.CANCELLED
    assert detector.check_once() is None
    a.state = PacketState.RUNNING
    # Likewise an aborted query: teardown must not look like a deadlock.
    query.aborted = True
    assert detector.check_once() is None
    query.aborted = False

    # With both endpoints live again, the cycle is real and gets resolved.
    assert detector.check_once() is not None
    assert engine.osp_stats.deadlocks_resolved == 1
