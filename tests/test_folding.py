"""End-to-end tests for generalized sharing (:mod:`repro.folding`).

Correctness is non-negotiable: per-query results under folding must be
byte-identical to the unfolded run (and agree with the iterator
engine), and the trace invariants must hold even when the fold
donor -- the host query whose widened scan everyone rides -- is
cancelled or crashed mid-fold.
"""

from repro.baseline.engine import IteratorEngine
from repro.engine.qpipe import QPipeConfig, QPipeEngine
from repro.faults import FaultInjector, FaultPlan
from repro.faults.errors import FaultError, QueryAborted
from repro.harness.config import SMOKE, build_wisconsin_system
from repro.hw.host import Host, HostConfig
from repro.obs import InvariantChecker, Tracer
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
    assert len(attaches) == engine.fold_stats.folded
    assert InvariantChecker(tracer.events).check() == []


# ---------------------------------------------------------------------------
# Acceptance: >=25% folded throughput gain at >=4 similar queries
# ---------------------------------------------------------------------------
def test_fold_gain_and_invariance_at_smoke_scale():
    from repro.harness import FIGURES

    series, sharing, lines = FIGURES["fold"].run(
        SMOKE, count=(4, 6), similarity=(1.0,)
    )
    gains = series.curve("gain (%)")
    assert all(gain >= 25.0 for gain in gains), gains
    assert lines and all(line.endswith("yes") for line in lines)
    assert all(rate == 1.0 for rate in sharing.curve("fold rate"))


# ---------------------------------------------------------------------------
# Donor failure mid-fold: exactly-once delivery must survive
# ---------------------------------------------------------------------------
def _run_with_donor_failure(fail):
    """Run 4 foldable queries; *fail* kills the donor (query 1) mid-scan.

    Returns (per-client outcome boxes, engine, tracer events).
    """
    host, sm = build_db()
    tracer = Tracer(host.sim)
    engine = make_engine(sm, folded=True)
    plans = fold_plans(4)
    boxes = [{} for _ in plans]

    def client(i, plan):
        try:
            result = yield from engine.execute(plan)
        except (FaultError, QueryAborted) as exc:
            boxes[i]["error"] = exc
            return None
        boxes[i]["rows"] = result.rows
        return result

    procs = [
        host.sim.spawn(client(i, plan), name=f"q{i}")
        for i, plan in enumerate(plans)
    ]
    fail(host, engine)
    host.sim.run_until_done(procs)
    return boxes, engine, tracer.events


def _reference_rows():
    host, sm = build_db()
    return [IteratorEngine(sm).run_query(p) for p in fold_plans(4)]


def assert_unfolded(engine, events, members):
    """Every member the donor's early end redispatched was unfolded: one
    ``fold.unfold`` event and one ``FoldStats.unfolds`` count each."""
    assert engine.fold_stats.unfolds == members
    assert sum(e["type"] == "fold.unfold" for e in events) == members
    assert sum(e["type"] == "packet.detach" for e in events) == members


def test_donor_cancelled_mid_fold():
    """Cancelling the host query unfolds the members into private
    re-executions that still deliver exactly-once."""
    boxes, engine, events = _run_with_donor_failure(
        lambda host, engine: host.sim.schedule(
            0.015, lambda: engine.cancel(1, "client gave up")
        )
    )
    reference = _reference_rows()
    assert isinstance(boxes[0].get("error"), QueryAborted)
    for i in (1, 2, 3):
        assert sorted(boxes[i]["rows"]) == sorted(reference[i])
    assert engine.fold_stats.folded == 3
    assert_unfolded(engine, events, 3)
    assert InvariantChecker(events).check() == []


def test_donor_crashed_mid_fold():
    """An injected process crash of the donor behaves like PR 2's
    host-death path: members detach, redispatch, and finish correctly."""
    def crash(host, engine):
        FaultInjector(FaultPlan().crash_query(at=0.015, target=0)).attach(engine)

    boxes, engine, events = _run_with_donor_failure(crash)
    reference = _reference_rows()
    assert isinstance(boxes[0].get("error"), QueryAborted)
    for i in (1, 2, 3):
        assert sorted(boxes[i]["rows"]) == sorted(reference[i])
    assert engine.fold_stats.folded == 3
    assert_unfolded(engine, events, 3)
    assert InvariantChecker(events).check() == []


def test_donor_deadline_mid_fold():
    host, sm = build_db()
    tracer = Tracer(host.sim)
    engine = make_engine(sm, folded=True)
    plans = fold_plans(4)
    boxes = [{} for _ in plans]

    def client(i, plan, deadline=None):
        try:
            result = yield from engine.execute(plan, deadline=deadline)
        except QueryAborted as exc:
            boxes[i]["error"] = exc
            return None
        boxes[i]["rows"] = result.rows
        return result

    procs = [
        host.sim.spawn(
            client(i, plan, deadline=0.015 if i == 0 else None), name=f"q{i}"
        )
        for i, plan in enumerate(plans)
    ]
    host.sim.run_until_done(procs)
    reference = _reference_rows()
    assert isinstance(boxes[0].get("error"), QueryAborted)
    for i in (1, 2, 3):
        assert sorted(boxes[i]["rows"]) == sorted(reference[i])
    assert_unfolded(engine, tracer.events, 3)
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
