"""The fault-injection subsystem: plan DSL, injector, storage hardening.

Covers the deterministic fault-schedule DSL, the disk-hook and
process-fault delivery channels, the buffer pool's bounded
retry-with-backoff for transient errors, checksum verification, and the
Interrupted-during-I/O cleanup (no leaked pin, no stale in-flight slot:
the storage manager's teardown oracle finds nothing held).
"""

import pytest

from repro.engine.qpipe import QPipeConfig, QPipeEngine
from repro.faults import (
    DiskReadError,
    FaultInjector,
    FaultPlan,
    PageCorruptError,
    QueryAborted,
    random_plan,
)
from repro.faults.errors import FaultError
from repro.obs import Tracer
from repro.relational.expressions import AggSpec
from repro.relational.plans import Aggregate, TableScan
from repro.storage.bufferpool import MAX_RETRIES


def count_plan():
    return Aggregate(TableScan("r"), [AggSpec("count", None, "n")])


def make_engine(sm, **overrides):
    return QPipeEngine(sm, QPipeConfig(osp_enabled=True, **overrides))


def spawn_catching(host, engine, plan, name="client"):
    """Spawn a client that records either the result rows or the typed
    failure (an unhandled exception in a process crashes the simulation,
    exactly so tests cannot silently swallow real bugs)."""
    box = {}

    def client():
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
# The plan DSL
# ---------------------------------------------------------------------------
def test_fault_plan_builders_and_describe():
    plan = (
        FaultPlan()
        .disk_error(at=5.0, table="r", transient=True)
        .latency_spike(at=2.0, extra_latency=1.5)
        .corrupt_page(at=9.0, transient=False)
        .crash_query(at=30.0, target=1)
        .crash_scanner(at=40.0, table="r")
        .disconnect(at=45.0, target=0)
    )
    assert len(plan) == 6
    lines = plan.describe()
    assert len(lines) == 6
    # describe() is time-ordered.
    assert "slow" in lines[0] and "disk error on r" in lines[1]


def test_fault_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan().disk_error(at=0.0, count=0)
    from repro.faults.plan import DiskFault, ProcessFault

    with pytest.raises(ValueError):
        DiskFault(at=0.0, kind="explode")
    with pytest.raises(ValueError):
        ProcessFault(at=0.0, kind="meteor")


def test_random_plan_is_deterministic():
    a = random_plan(17, tables=["r", "s"])
    b = random_plan(17, tables=["r", "s"])
    assert a.disk_faults == b.disk_faults
    assert a.process_faults == b.process_faults
    assert random_plan(18).disk_faults != a.disk_faults


# ---------------------------------------------------------------------------
# Disk-channel faults through a live engine
# ---------------------------------------------------------------------------
def test_transient_disk_error_is_retried_to_success(db):
    host, sm, r_rows, _s = db
    engine = make_engine(sm)
    tracer = Tracer(host.sim)
    plan = FaultPlan().disk_error(at=0.0, table="r", transient=True, count=2)
    injector = FaultInjector(plan).attach(engine)

    rows = engine.run_query(count_plan())
    assert rows == [(len(r_rows),)]
    assert [e["type"] for e in injector.fired].count("disk_error") == 2
    retries = [e for e in tracer.events if e["type"] == "fault.retry"]
    assert len(retries) == 2
    assert engine.queries_aborted == 0


def test_permanent_disk_error_aborts_with_typed_failure(db):
    host, sm, _r, _s = db
    engine = make_engine(sm)
    plan = FaultPlan().disk_error(at=0.0, table="r", transient=False)
    FaultInjector(plan).attach(engine)

    box = spawn_catching(host, engine, count_plan())
    host.sim.run()
    assert isinstance(box["error"], DiskReadError)
    assert not box["error"].transient
    assert engine.queries_aborted == 1
    # All resources reclaimed: no pins, no table locks.
    assert sm.leftovers(engine) == []


def test_dead_block_poisons_every_later_read(db):
    host, sm, _r, _s = db
    engine = make_engine(sm)
    plan = FaultPlan().disk_error(at=0.0, table="r", transient=False)
    injector = FaultInjector(plan).attach(engine)

    first = spawn_catching(host, engine, count_plan())
    host.sim.run()
    assert isinstance(first["error"], DiskReadError)
    # The armed fault is consumed, but the block stays dead.
    second = spawn_catching(host, engine, count_plan())
    host.sim.run()
    assert isinstance(second["error"], DiskReadError)
    assert engine.queries_aborted == 2


def test_latency_spike_slows_but_does_not_fail(db):
    host, sm, r_rows, _s = db
    baseline_engine = make_engine(sm)
    start = host.sim.now
    assert baseline_engine.run_query(count_plan()) == [(len(r_rows),)]
    baseline = host.sim.now - start

    engine = make_engine(sm)
    sm.pool.invalidate_file(sm.table_file_id("r"))
    plan = FaultPlan().latency_spike(
        at=0.0, extra_latency=5.0, table="r", count=3
    )
    injector = FaultInjector(plan).attach(engine)
    start = host.sim.now
    assert engine.run_query(count_plan()) == [(len(r_rows),)]
    spiked = min(3, sm.num_pages("r"))  # one spike per page read
    assert len(injector.fired) == spiked
    assert host.sim.now - start >= baseline + spiked * 5.0 - 1e-9


def test_transient_corruption_retries_clean(db):
    host, sm, r_rows, _s = db
    engine = make_engine(sm)
    tracer = Tracer(host.sim)
    plan = FaultPlan().corrupt_page(at=0.0, table="r", transient=True)
    FaultInjector(plan).attach(engine)

    rows = engine.run_query(count_plan())
    assert rows == [(len(r_rows),)]
    kinds = [e["type"] for e in tracer.events if e["type"].startswith("fault.")]
    assert "fault.page_corrupt" in kinds and "fault.retry" in kinds


def test_permanent_corruption_aborts(db):
    host, sm, _r, _s = db
    engine = make_engine(sm)
    plan = FaultPlan().corrupt_page(at=0.0, table="r", transient=False)
    FaultInjector(plan).attach(engine)

    box = spawn_catching(host, engine, count_plan())
    host.sim.run()
    assert isinstance(box["error"], PageCorruptError)
    assert sm.leftovers(engine) == []


# ---------------------------------------------------------------------------
# Storage-level units
# ---------------------------------------------------------------------------
def test_blockstore_corruption_marks(db):
    _host, sm, _r, _s = db
    fid = sm.table_file_id("r")
    # Transient: the first failed verify clears the mark.
    sm.store.corrupt_block(fid, 0, permanent=False)
    with pytest.raises(PageCorruptError) as exc:
        sm.store.verify_block(fid, 0)
    assert exc.value.transient
    sm.store.verify_block(fid, 0)  # clean again
    # Permanent: every verify fails.
    sm.store.corrupt_block(fid, 1, permanent=True)
    for _ in range(2):
        with pytest.raises(PageCorruptError) as exc:
            sm.store.verify_block(fid, 1)
        assert not exc.value.transient


def test_bufferpool_retry_exhaustion_gives_up(db):
    host, sm, _r, _s = db
    tracer = Tracer(host.sim)
    attempts = []

    def always_fail(file_id, block_no):
        from repro.faults.injector import FaultAction

        attempts.append(block_no)
        return FaultAction(
            error=DiskReadError(file_id, block_no, transient=True)
        )

    host.disk.fault_hook = always_fail
    fid = sm.table_file_id("r")

    outcome = {}

    def reader():
        try:
            yield from sm.pool.get_page(fid, 0)
        except FaultError as exc:
            outcome["error"] = exc

    host.sim.spawn(reader())
    host.sim.run()
    assert isinstance(outcome["error"], DiskReadError)
    assert len(attempts) == 1 + MAX_RETRIES  # first try + the retries
    kinds = [e["type"] for e in tracer.events if e["type"].startswith("fault.")]
    assert kinds.count("fault.retry") == MAX_RETRIES
    assert kinds.count("fault.giveup") == 1
    assert sm.leftovers() == []


def test_interrupted_io_leaves_no_pin_or_inflight_slot(db):
    """A process killed mid-read must not leak its pin or leave a stale
    in-flight coalescing slot behind."""
    host, sm, _r, _s = db
    fid = sm.table_file_id("r")

    def pinned_reader():
        yield from sm.pool.get_page(fid, 0, pin=True)

    proc = host.sim.spawn(pinned_reader())
    host.sim.schedule(
        host.disk.seek_time / 2, proc.interrupt, "killed mid-read"
    )
    host.sim.run()
    assert not proc.alive
    assert sm.leftovers() == []
    # The page is still readable afterwards by anyone else.
    ok = host.sim.spawn(sm.pool.get_page(fid, 0))
    host.sim.run()
    assert ok.triggered and ok.ok


def test_interrupted_on_hit_path_releases_pin(db):
    """The pin taken on a buffer-hit is released when the hit-cost wait
    is interrupted."""
    host, sm, _r, _s = db
    fid = sm.table_file_id("r")
    warm = host.sim.spawn(sm.pool.get_page(fid, 0))
    host.sim.run()
    assert warm.triggered and warm.ok

    def hit_reader():
        yield from sm.pool.get_page(fid, 0, pin=True)

    proc = host.sim.spawn(hit_reader())
    host.sim.schedule(
        sm.pool.page_hit_cost / 2, proc.interrupt, "killed on hit path"
    )
    host.sim.run()
    assert not proc.alive
    assert sm.leftovers() == []


# ---------------------------------------------------------------------------
# Process-channel faults
# ---------------------------------------------------------------------------
def test_crash_query_picks_deterministic_victim(big_db):
    host, sm, _r, _s = big_db
    engine = make_engine(sm)
    plan = FaultPlan().crash_query(at=0.05, target=0)
    injector = FaultInjector(plan).attach(engine)

    boxes = [
        spawn_catching(host, engine, count_plan(), name=f"client-{i}")
        for i in range(2)
    ]
    host.sim.run()
    # Exactly one died, with the injected QueryAborted; sorted-id order
    # makes the victim the first-submitted query.
    assert isinstance(boxes[0]["error"], QueryAborted)
    assert "injected process crash" in str(boxes[0]["error"])
    assert "error" not in boxes[1] and "rows" in boxes[1]
    assert injector.fired[0]["type"] == "query_crash"
    assert sm.leftovers(engine) == []


def test_disconnect_interrupts_registered_client(big_db):
    host, sm, _r, _s = big_db
    engine = make_engine(sm)
    plan = FaultPlan().disconnect(at=0.05, target=0)
    injector = FaultInjector(plan).attach(engine)
    outcome = {}

    def client():
        from repro.sim import Interrupted

        try:
            result = yield from engine.execute(count_plan())
        except Interrupted:
            outcome["status"] = "disconnected"
            return None
        outcome["status"] = "completed"
        return result

    proc = host.sim.spawn(client(), name="client-0")
    injector.register_client(proc)
    host.sim.run()
    assert outcome["status"] == "disconnected"
    assert engine.queries_aborted == 1
    assert sm.leftovers(engine) == []
