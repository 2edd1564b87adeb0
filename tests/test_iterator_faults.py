"""Fault teardown on the iterator engine.

A crashed or disconnected query unwinds through the one query driver,
``IteratorEngine.execute``: the interrupt leaves the operator tree
through its ``finally``, which must drop any live spill files, leave
every buffer pin released, and sweep the query's locks.  These tests pin
that balance after faults land mid-sort-spill and mid-join-partitioning,
and that the engine stays usable afterwards.
"""

import pytest

from repro.baseline.engine import IteratorEngine
from repro.faults import FaultInjector, FaultPlan, QueryAborted
from repro.faults.errors import FaultError
from repro.relational.plans import HashJoin, Sort, TableScan


def make_engine(sm):
    # A tiny memory budget so sorts spill runs and hash joins partition
    # to temp files -- teardown has real satellites to clean up.
    return IteratorEngine(sm, work_mem_tuples=500)


def spawn_catching(host, engine, plan, name="client"):
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


def assert_balanced(sm, engine):
    assert sm.leftovers(engine) == []
    assert engine._active == {}


def sort_plan():
    return Sort(TableScan("r"), keys=["val"])


def join_plan():
    return HashJoin(TableScan("r"), TableScan("s"), "id", "rid")


@pytest.mark.parametrize("plan_fn", [sort_plan, join_plan],
                         ids=["sort-spill", "hash-partition"])
def test_crash_mid_spill_releases_everything(big_db, plan_fn):
    host, sm, _, _ = big_db
    engine = make_engine(sm)
    injector = FaultInjector(
        FaultPlan().crash_query(at=0.2, target=0)
    ).attach(engine)
    box = spawn_catching(host, engine, plan_fn())
    host.sim.run()
    assert isinstance(box.get("error"), QueryAborted)
    assert engine.queries_aborted == 1
    assert_balanced(sm, engine)
    assert injector.fired


def test_client_interrupt_runs_pipeline_finalizers(big_db):
    """A raw process interrupt (client disconnect, no abort_query call)
    must still unwind the operator tree and drop spill files."""
    host, sm, _, _ = big_db
    engine = make_engine(sm)
    box = spawn_catching(host, engine, sort_plan())

    def killer():
        yield host.sim.timeout(0.25)
        if box["proc"].alive:
            box["proc"].interrupt("client disconnected")
        return None

    host.sim.spawn(killer(), name="killer")
    host.sim.run()
    # The Interrupted propagates out of the client (it is not a
    # FaultError), so the query produced neither rows nor a typed error.
    assert "rows" not in box and "error" not in box
    assert_balanced(sm, engine)


def test_engine_survives_repeated_crashes(big_db):
    """Crash several spilling queries back to back, then run one clean:
    no residue from the crashed runs may leak into the survivor."""
    host, sm, r_rows, _ = big_db
    engine = make_engine(sm)
    plan = FaultPlan()
    for at in (0.2, 0.6, 1.0):
        plan.crash_query(at=at, target=0)
    FaultInjector(plan).attach(engine)
    boxes = []

    def submit(delay, plan_fn):
        def client():
            yield host.sim.timeout(delay)
            boxes.append(spawn_catching(host, engine, plan_fn()))
            return None
        host.sim.spawn(client(), name=f"submit-{delay}")

    submit(0.0, sort_plan)
    submit(0.45, join_plan)
    submit(0.85, sort_plan)
    host.sim.run()
    assert sum(isinstance(b.get("error"), QueryAborted)
               for b in boxes) == 3
    assert_balanced(sm, engine)

    survivor = spawn_catching(host, engine, sort_plan())
    host.sim.run()
    expected = sorted(r_rows, key=lambda row: row[2])
    assert [row[2] for row in survivor["rows"]] == \
        [row[2] for row in expected]
    assert_balanced(sm, engine)
