"""End-to-end tests for generalized sharing (:mod:`repro.folding`).

Correctness is non-negotiable: per-query results under folding must be
byte-identical to the unfolded run (and agree with the iterator
engine), and the trace invariants must hold even when the fold
donor -- the query that opened the group -- is cancelled or crashed
mid-fold, or when the circular scanner every member rides crashes.
"""

from repro.baseline.engine import IteratorEngine
from repro.engine.qpipe import QPipeConfig, QPipeEngine
from repro.faults import FaultInjector, FaultPlan
from repro.faults.errors import FaultError, QueryAborted
from repro.harness.config import SMOKE, build_wisconsin_system
from repro.hw.host import Host, HostConfig
from repro.obs import InvariantChecker, Tracer
from repro.osp.circular import CircularScanManager
from repro.relational.expressions import AggSpec, Between, Col
from repro.relational.plans import Aggregate, GroupBy, TableScan
from repro.storage.manager import StorageManager
from repro.workloads.wisconsin import WisconsinScale, load_wisconsin


def build_db(buffer_pages: int = 64, **host_overrides):
    host = Host(HostConfig(**host_overrides))
    sm = StorageManager(host, buffer_pages=buffer_pages)
    load_wisconsin(sm, WisconsinScale(big_rows=300), seed=7)
    return host, sm


def fold_plans(count: int = 4):
    """A subsumption chain over big1, widest first: whole-query
    ``Aggregate`` folds plus one ``GroupBy`` whose scan folds."""
    plans = []
    for i in range(count):
        pred = Between(Col("unique1"), 0, 280 - 40 * i)
        aggs = [
            AggSpec("sum", Col("unique2"), "s"),
            AggSpec("count", Col("unique1"), "c"),
        ]
        if i % 3 == 2:
            plans.append(GroupBy(TableScan("big1", pred), ["tenpercent"], aggs))
        else:
            plans.append(Aggregate(TableScan("big1", pred), aggs))
    return plans


def run_concurrent(host, engine, plans, stagger: float = 0.0):
    procs = []

    def client(plan, delay):
        yield host.sim.timeout(delay)
        result = yield from engine.execute(plan)
        return result

    for i, plan in enumerate(plans):
        procs.append(host.sim.spawn(client(plan, i * stagger), name=f"q{i}"))
    host.sim.run_until_done(procs)
    return [p.value.rows for p in procs]


def make_engine(sm, folded: bool) -> QPipeEngine:
    engine = QPipeEngine(sm, QPipeConfig(osp_enabled=True))
    engine.config.fold_enabled = folded
    return engine


# ---------------------------------------------------------------------------
# Differential: folded vs unfolded vs iterator, per query
# ---------------------------------------------------------------------------
def test_folded_results_identical_across_engines():
    plans = fold_plans(5)

    host_ref, sm_ref = build_db()
    reference = [IteratorEngine(sm_ref).run_query(p) for p in plans]

    for stagger in (0.0, 0.008):
        host_off, sm_off = build_db()
        unfolded = run_concurrent(
            host_off, make_engine(sm_off, folded=False), plans, stagger
        )
        host_on, sm_on = build_db()
        engine = make_engine(sm_on, folded=True)
        folded = run_concurrent(host_on, engine, plans, stagger)

        # Byte-identity: exact rows in exact order, per query.
        assert folded == unfolded
        assert [sorted(rows) for rows in folded] == [
            sorted(rows) for rows in reference
        ]
        if stagger == 0.0:
            # Simultaneous arrival: everything folds into one group.
            stats = engine.fold_stats
            assert stats.groups == 1
            assert stats.folded == len(plans) - 1
            assert stats.members["scan"] >= 1 and stats.members["agg"] >= 2
            assert stats.banks >= 1
            assert stats.pages_saved > 0


def test_fold_trace_invariants_clean():
    host, sm = build_db()
    tracer = Tracer(host.sim)
    engine = make_engine(sm, folded=True)
    run_concurrent(host, engine, fold_plans(5), stagger=0.008)
    assert engine.fold_stats.folded >= 3
    attaches = [
        e for e in tracer.events
        if e["type"] == "packet.attach"
        and e["mechanism"].startswith("fold-")
    ]
    # Each group's first member attaches too: the scanner is the host.
    stats = engine.fold_stats
    assert len(attaches) == stats.folded + stats.groups
    assert {e["host"] for e in attaches} == {"scanner-big1"}
    assert InvariantChecker(tracer.events).check() == []


# ---------------------------------------------------------------------------
# Acceptance: >=25% folded throughput gain at >=4 similar queries
# ---------------------------------------------------------------------------
def test_fold_gain_and_invariance_at_smoke_scale():
    from repro.harness import FIGURES

    series, sharing, lines = FIGURES["fold"].run(
        SMOKE, count=(4, 6), similarity=(1.0,)
    )
    # The grid's two configs, then the one with a rejected member.
    *gains, rejected_gain = series.curve("gain (%)")
    assert all(gain >= 25.0 for gain in gains), gains
    assert len(lines) == 3 and all(
        "results identical: yes" in line
        and line.endswith("folded <= unfolded: yes")
        for line in lines
    )
    assert lines[-1].startswith("  4q sim=1.0 +reject:")
    assert rejected_gain >= 0.0
    assert sharing.curve("fold rate") == [1.0, 1.0, 0.75]


# ---------------------------------------------------------------------------
# Donor failure mid-fold: exactly-once delivery must survive
# ---------------------------------------------------------------------------
def _run_with_donor_failure(fail, deadline=None):
    """Run 4 foldable queries; *fail* ends the donor (query 1) mid-scan,
    or *deadline* is the donor's.

    Returns (per-client outcome boxes, engine, tracer events).
    """
    host, sm = build_db()
    tracer = Tracer(host.sim)
    engine = make_engine(sm, folded=True)
    plans = fold_plans(4)
    boxes = [{} for _ in plans]

    def client(i, plan):
        try:
            result = yield from engine.execute(
                plan, deadline=deadline if i == 0 else None
            )
        except (FaultError, QueryAborted) as exc:
            boxes[i]["error"] = exc
            return None
        boxes[i]["rows"] = result.rows
        return result

    procs = [
        host.sim.spawn(client(i, plan), name=f"q{i}")
        for i, plan in enumerate(plans)
    ]
    if fail is not None:
        fail(host, engine)
    host.sim.run_until_done(procs)
    return boxes, engine, tracer.events


def _unfolded_rows():
    host, sm = build_db()
    return run_concurrent(host, make_engine(sm, folded=False), fold_plans(4))


def assert_donor_alone_ended(boxes, engine, events):
    """The donor's end dropped only the donor: the other members finish
    folded, with the unfolded run's rows, and nobody re-executes."""
    reference = _unfolded_rows()
    assert isinstance(boxes[0].get("error"), QueryAborted)
    for i in (1, 2, 3):
        assert boxes[i]["rows"] == reference[i]
    assert engine.fold_stats.folded == 3
    assert not any(e["type"] == "packet.detach" for e in events)
    completed = {
        e["packet"] for e in events
        if e["type"] == "packet.complete" and e["satellite"]
    }
    assert len(completed) == 3
    assert InvariantChecker(events).check() == []


def test_donor_cancelled_mid_fold():
    boxes, engine, events = _run_with_donor_failure(
        lambda host, engine: host.sim.schedule(
            0.015, lambda: engine.cancel(1, "client gave up")
        )
    )
    assert_donor_alone_ended(boxes, engine, events)


def test_donor_crashed_mid_fold():
    """An injected process crash of the donor fails the donor alone."""
    def crash(host, engine):
        FaultInjector(FaultPlan().crash_query(at=0.015, target=0)).attach(engine)

    boxes, engine, events = _run_with_donor_failure(crash)
    assert_donor_alone_ended(boxes, engine, events)


def test_donor_deadline_mid_fold():
    boxes, engine, events = _run_with_donor_failure(None, deadline=0.015)
    assert_donor_alone_ended(boxes, engine, events)


def test_scanner_crash_mid_fold_is_exactly_once(monkeypatch):
    """The scanner thread -- every member's host -- crashes inside the
    group's step for a page and restarts there: the scan member (which
    joined late, from the ring) still takes every page exactly once, and
    every query's rows -- counts included, so no bank saw a page twice --
    are the unfolded run's."""
    live = []
    mark = CircularScanManager._mark_delivered

    def recording(scan, consumer):
        live.append(scan.current_page)
        mark(scan, consumer)

    monkeypatch.setattr(
        CircularScanManager, "_mark_delivered", staticmethod(recording)
    )
    plans, stagger = fold_plans(4), 0.016
    host, sm = build_db()
    tracer = Tracer(host.sim)
    engine = make_engine(sm, folded=True)
    FaultInjector(
        FaultPlan().crash_scanner(at=0.0485, table="big1")
    ).attach(engine)
    rows = run_concurrent(host, engine, plans, stagger)

    restarts = [
        e for e in tracer.events if e["type"] == "osp.scanner_restart"
    ]
    (joined,) = [
        e for e in tracer.events
        if e["type"] == "packet.attach" and e["mechanism"] == "fold-scan"
    ]
    assert restarts and 0 < joined["host_pages"] < restarts[0]["position"]
    num_pages = sm.num_pages("big1")
    # The scan member: the ring's pages, then every other page live once.
    assert sorted(live) == list(range(joined["host_pages"], num_pages))
    host_off, sm_off = build_db()
    assert rows == run_concurrent(
        host_off, make_engine(sm_off, folded=False), plans, stagger
    )
    assert InvariantChecker(tracer.events).check() == []


# ---------------------------------------------------------------------------
# WoP rejections: cost model, closed window, sealed ring
# ---------------------------------------------------------------------------
def test_cost_model_rejects_expensive_residuals():
    """With an absurdly slow CPU the residual filtering outweighs the
    saved I/O, so the WoP cost rule refuses the fold -- and the queries
    still run (unfolded) to the right answer."""
    host, sm = build_db(cpu_per_tuple=10.0)
    engine = make_engine(sm, folded=True)
    plans = fold_plans(3)
    rows = run_concurrent(host, engine, plans)
    assert engine.fold_stats.folded == 0
    assert engine.fold_stats.rejected["cost"] >= 2

    host_ref, sm_ref = build_db(cpu_per_tuple=10.0)
    reference = [IteratorEngine(sm_ref).run_query(p) for p in plans]
    assert [sorted(r) for r in rows] == [sorted(r) for r in reference]


def test_window_closes_for_non_subsumed_late_arrivals():
    """A late query whose predicate the wide scan does not cover cannot
    widen a scan that already filtered pages: it must run privately."""
    host, sm = build_db()
    engine = make_engine(sm, folded=True)
    aggs = [AggSpec("count", Col("unique1"), "c")]
    plans = [
        Aggregate(TableScan("big1", Between(Col("unique1"), 0, 100)), aggs),
        # Disjoint range, arriving after pages were filtered.
        Aggregate(TableScan("big1", Between(Col("unique1"), 200, 299)), aggs),
    ]
    rows = run_concurrent(host, engine, plans, stagger=0.035)
    assert engine.fold_stats.rejected["window-closed"] == 1
    assert engine.fold_stats.folded == 0
    host_ref, sm_ref = build_db()
    reference = [IteratorEngine(sm_ref).run_query(p) for p in plans]
    assert [sorted(r) for r in rows] == [sorted(r) for r in reference]


def test_sealed_ring_rejects_late_joiner():
    """Once the survivor ring overflows (tiny replay budget), mid-scan
    joins are refused -- correct results, no partial replay."""
    host, sm = build_db()
    engine = QPipeEngine(
        sm, QPipeConfig(osp_enabled=True, replay_tuples=8)
    )
    engine.config.fold_enabled = True
    plans = fold_plans(3)
    rows = run_concurrent(host, engine, plans, stagger=0.02)
    stats = engine.fold_stats
    assert stats.rejected["ring-dropped"] >= 1
    host_ref, sm_ref = build_db()
    reference = [IteratorEngine(sm_ref).run_query(p) for p in plans]
    assert [sorted(r) for r in rows] == [sorted(r) for r in reference]
