"""Order-sensitive scan sharing: the section 4.3.2 two-pass strategy.

The Figure 9 scenario: two identical merge-join queries over clustered
index scans, arriving at different times.  The merge-join needs its
inputs in key order (spike overlap for the scans), but its *parent* is
order-insensitive, so the OSP coordinator lets the late query piggyback
on the in-progress scan ([P..EOF] in order), then runs a second join
pass over the missed prefix ([0..P)) -- reading the non-shared relation
twice, gated by the worst-case cost check.
"""

import pytest

from repro.baseline.engine import IteratorEngine
from repro.engine.qpipe import QPipeConfig, QPipeEngine
from repro.faults.errors import QueryAborted
from repro.obs import Tracer
from repro.relational.expressions import AggSpec, Col
from repro.relational.plans import (
    Aggregate,
    GroupBy,
    IndexScan,
    Limit,
    MergeJoin,
    Sort,
    TableScan,
)


def mj_plan(agg_func: str = "count"):
    """Figure 9's Q4-like plan: Agg over MergeJoin over ordered IScans.

    The aggregate differs between the two queries (count vs sum), like
    qgen-parameterised Q4 instances: the join subtrees match but the
    whole plans do not, so sharing must happen below the root.
    """
    agg = (
        AggSpec("count", None, "n")
        if agg_func == "count"
        else AggSpec("sum", Col("w"), "sw")
    )
    return Aggregate(
        MergeJoin(
            IndexScan("r", "r_id", ordered=True),
            IndexScan("s", "s_rid", ordered=True),
            "id",
            "rid",
        ),
        [agg],
    )


def expected_count(r_rows, s_rows):
    r_ids = {r[0] for r in r_rows}
    return sum(1 for s in s_rows if s[1] in r_ids)


def expected_sum(r_rows, s_rows):
    r_ids = {r[0] for r in r_rows}
    return sum(s[2] for s in s_rows if s[1] in r_ids)


def run_two(big_db, engine, interarrival):
    host, _sm, _r, _s = big_db
    procs = []

    def client(delay, agg_func):
        yield host.sim.timeout(delay)
        result = yield from engine.execute(mj_plan(agg_func))
        return result

    procs.append(host.sim.spawn(client(0.0, "count")))
    procs.append(host.sim.spawn(client(interarrival, "sum")))
    host.sim.run_until_done(procs)
    return [p.value for p in procs]


def solo_duration():
    """Measured duration of one merge-join query run alone (fresh db).

    Concurrent scans seek on every page, so analytic page-count estimates
    undershoot badly; staggering is expressed against this measurement.
    """
    import tests.conftest as cf
    from repro.hw.host import Host, HostConfig
    from repro.storage.manager import StorageManager

    host = Host(HostConfig())
    sm = StorageManager(host, buffer_pages=32)
    sm.create_table("r", cf.BIG_R_SCHEMA, clustered_on=["id"])
    sm.load_table("r", cf.make_big_r_rows())
    sm.create_index("r", ["id"], name="r_id", clustered=True)
    sm.create_table("s", cf.BIG_S_SCHEMA, clustered_on=["rid"])
    sm.load_table("s", cf.make_big_s_rows())
    sm.create_index("s", ["rid"], name="s_rid", clustered=True)
    engine = QPipeEngine(sm, QPipeConfig(osp_enabled=True))
    proc = host.sim.spawn(engine.execute(mj_plan("count")))
    host.sim.run()
    return proc.value.finished_at


def test_merge_join_single_query_correct(big_db):
    _h, sm, r_rows, s_rows = big_db
    engine = QPipeEngine(sm, QPipeConfig(osp_enabled=True))
    rows = engine.run_query(mj_plan())
    assert rows == [(expected_count(r_rows, s_rows),)]


def test_split_share_produces_correct_counts(big_db):
    """The late query joins via two passes yet counts every match once."""
    host, sm, r_rows, s_rows = big_db
    engine = QPipeEngine(
        sm, QPipeConfig(osp_enabled=True, replay_tuples=64)
    )
    results = run_two(big_db, engine, interarrival=solo_duration() / 2)
    assert results[0].rows == [(expected_count(r_rows, s_rows),)]
    assert results[1].rows[0][0] == pytest.approx(
        expected_sum(r_rows, s_rows)
    )


def test_split_share_is_used(big_db):
    """At mid-scan arrival the split (not a plain attach) kicks in."""
    host, sm, _r, _s = big_db
    engine = QPipeEngine(
        sm,
        QPipeConfig(osp_enabled=True, replay_tuples=64, buffer_tuples=256),
    )
    run_two(big_db, engine, interarrival=solo_duration() / 2)
    assert engine.osp_stats.mj_splits >= 1


def test_split_rejected_when_not_worth_it():
    """When the remaining shared pages are fewer than the pages of the
    non-shared relation, the cost check refuses to split."""
    import tests.conftest as cf
    from repro.hw.host import Host, HostConfig
    from repro.storage.manager import StorageManager

    host = Host(HostConfig())
    sm = StorageManager(host, buffer_pages=64)
    # r small, s big: re-reading s twice can never pay off.
    r_rows = cf.make_big_r_rows(n=200)
    s_rows = cf.make_big_s_rows(n=4000, r_n=200)
    sm.create_table("r", cf.BIG_R_SCHEMA, clustered_on=["id"])
    sm.load_table("r", r_rows)
    sm.create_index("r", ["id"], name="r_id", clustered=True)
    sm.create_table("s", cf.BIG_S_SCHEMA, clustered_on=["rid"])
    sm.load_table("s", s_rows)
    sm.create_index("s", ["rid"], name="s_rid", clustered=True)
    engine = QPipeEngine(
        sm, QPipeConfig(osp_enabled=True, replay_tuples=16)
    )
    procs = []

    def client(delay, agg_func):
        yield host.sim.timeout(delay)
        result = yield from engine.execute(mj_plan(agg_func))
        return result

    procs.append(host.sim.spawn(client(0.0, "count")))
    procs.append(host.sim.spawn(client(0.9, "sum")))
    host.sim.run_until_done(procs)
    assert procs[0].value.rows == [(expected_count(r_rows, s_rows),)]
    assert procs[1].value.rows[0][0] == pytest.approx(
        expected_sum(r_rows, s_rows)
    )
    assert engine.osp_stats.mj_splits == 0


def test_split_speeds_up_late_arrival(big_db):
    """With the split, the pair finishes sooner than with OSP off."""
    import tests.conftest as cf
    from repro.hw.host import Host, HostConfig
    from repro.storage.manager import StorageManager

    def build():
        host = Host(HostConfig())
        sm = StorageManager(host, buffer_pages=32)
        sm.create_table("r", cf.BIG_R_SCHEMA, clustered_on=["id"])
        sm.load_table("r", cf.make_big_r_rows())
        sm.create_index("r", ["id"], name="r_id", clustered=True)
        sm.create_table("s", cf.BIG_S_SCHEMA, clustered_on=["rid"])
        sm.load_table("s", cf.make_big_s_rows())
        sm.create_index("s", ["rid"], name="s_rid", clustered=True)
        return host, sm

    def makespan(osp):
        host, sm = build()
        engine = QPipeEngine(
            sm, QPipeConfig(osp_enabled=osp, replay_tuples=64)
        )
        procs = []

        def client(delay, agg_func):
            yield host.sim.timeout(delay)
            result = yield from engine.execute(mj_plan(agg_func))
            return result

        stagger = solo_duration() / 2
        procs.append(host.sim.spawn(client(0.0, "count")))
        procs.append(host.sim.spawn(client(stagger, "sum")))
        host.sim.run_until_done(procs)
        return max(p.value.finished_at for p in procs)

    assert makespan(True) < makespan(False)


def test_split_join_survives_the_other_input_ending_first():
    """s.rid covers only the lower half of r.id, so the s side runs dry
    while the late query is still piggybacking on [P..EOF] of r."""
    import tests.conftest as cf
    from repro.hw.host import Host, HostConfig
    from repro.storage.manager import StorageManager

    host = Host(HostConfig())
    sm = StorageManager(host, buffer_pages=64)
    r_rows = cf.make_big_r_rows()
    s_rows = cf.make_big_s_rows(r_n=len(r_rows) // 2)
    sm.create_table("r", cf.BIG_R_SCHEMA, clustered_on=["id"])
    sm.load_table("r", r_rows)
    sm.create_index("r", ["id"], name="r_id", clustered=True)
    sm.create_table("s", cf.BIG_S_SCHEMA, clustered_on=["rid"])
    sm.load_table("s", s_rows)
    sm.create_index("s", ["rid"], name="s_rid", clustered=True)
    engine = QPipeEngine(
        sm, QPipeConfig(osp_enabled=True, replay_tuples=64)
    )
    db = (host, sm, r_rows, s_rows)
    results = run_two(db, engine, interarrival=solo_duration() / 2)
    assert engine.osp_stats.mj_splits == 1
    assert results[0].rows == [(expected_count(r_rows, s_rows),)]
    assert results[1].rows[0][0] == pytest.approx(
        expected_sum(r_rows, s_rows)
    )


def _same_rows(got, want):
    """Equal row for row: exactly, except that float aggregates may
    differ by summation order (a shared scan delivers wrapped pages;
    builtin ``sum`` compensates from Python 3.12)."""
    assert len(got) == len(want)
    for g, w in zip(sorted(got), sorted(want)):
        assert len(g) == len(w)
        for a, b in zip(g, w):
            if isinstance(a, float) or isinstance(b, float):
                assert a == pytest.approx(b, rel=1e-9)
            else:
                assert a == b


@pytest.mark.parametrize("figure", ["fig9", "fig10", "fig11"])
def test_a_two_query_figure_never_plots_a_wrong_answer(figure):
    """At every SMOKE interarrival of Figures 9-11 both queries return,
    with sharing on, the rows they return with sharing off.  (Figure 9's
    flat curve once came from runs that skipped the split's second pass
    and returned wrong sums at gaps 60 / 80 / 100.)"""
    from repro.harness import FIGURES, SMOKE
    from repro.harness.experiments import two_query_results

    specs = FIGURES[figure].specs(SMOKE)
    rows = {
        (spec.coord["system"], spec.coord["gap"]): [
            result.rows for result in two_query_results(spec)
        ]
        for spec in specs
    }
    gaps = FIGURES[figure].axes["gap"]
    assert set(rows) == {(s, g) for s in ("baseline", "qpipe") for g in gaps}
    for gap in gaps:
        for got, want in zip(rows["qpipe", gap], rows["baseline", gap]):
            assert want, (figure, gap)
            _same_rows(got, want)


# ---------------------------------------------------------------------------
# Concurrent cohorts: a split whose host ends early, and a sort
# re-emission whose consumer closes
# ---------------------------------------------------------------------------
def cohort_db():
    """A 3,000-row ``r`` clustered on ``id`` and a 1,500-row ``s`` under
    48 pool frames: large enough for the section 4.3.2 cost check to take
    a split.  Returns ``(host, sm)``."""
    import tests.conftest as cf
    from repro.hw.host import Host, HostConfig
    from repro.storage.manager import StorageManager

    host = Host(HostConfig())
    sm = StorageManager(host, buffer_pages=48)
    sm.create_table("r", cf.R_SCHEMA, clustered_on=["id"])
    sm.load_table("r", cf.make_r_rows(n=3000))
    sm.create_index("r", ["id"], name="r_id", clustered=True)
    sm.create_table("s", cf.S_SCHEMA)
    sm.load_table("s", cf.make_s_rows(n=1500, r_n=3000))
    return host, sm


def cohort_join(w=None, lo=None, hi=None):
    """``r`` (ordered, ``lo <= id <= hi``) merge-joined with ``s``
    (``w > w``) sorted on ``rid``."""
    s = TableScan("s") if w is None else TableScan("s", predicate=Col("w") > w)
    return MergeJoin(
        IndexScan("r", "r_id", lo=lo, hi=hi, ordered=True),
        Sort(s, keys=["rid"]),
        "id",
        "rid",
    )


#: Virtual seconds a cohort may run: each finishes within two, so a
#: client still running at this horizon is a hang (a blocked producer
#: keeps the deadlock detector ticking forever).
COHORT_HORIZON = 60.0


def run_cohort(make_db, config, clients, end=None):
    """Run ``(delay, plan, deadline)`` clients on a fresh ``make_db()``.

    *end* (``(host, engine) -> None``) may schedule a cancel or a fault
    before the run.  Returns ``(rows, engine, sm, events)``: each
    client's rows or its QueryAborted (without its traceback, whose
    frames are not the engine's to keep), and the trace.
    """
    host, sm = make_db()
    tracer = Tracer(host.sim)
    engine = QPipeEngine(sm, config)
    rows = [None] * len(clients)

    def client(i, delay, plan, deadline):
        yield host.sim.timeout(delay)
        try:
            result = yield from engine.execute(plan, deadline=deadline)
        except QueryAborted as exc:
            rows[i] = exc.with_traceback(None)
            return
        rows[i] = result.rows

    if end is not None:
        end(host, engine)
    procs = [
        host.sim.spawn(client(i, *spec), name=f"client{i}")
        for i, spec in enumerate(clients)
    ]
    host.sim.run(until=COHORT_HORIZON)
    hung = [proc.name for proc in procs if proc.alive]
    assert not hung, f"{hung} still running at t={COHORT_HORIZON}"
    return rows, engine, sm, tracer.events


def cancel_at(at, query_id=1):
    return lambda host, engine: host.sim.schedule(
        at, engine.cancel, query_id, "client gave up"
    )


def _late_group_sums():
    return GroupBy(
        cohort_join(8.0), ["grp"], [AggSpec("sum", Col("w"), "sw")]
    )


#: The early query's end, four ways, each while the late query's split
#: still rides its index scan: ``(plan, end, deadline)``.
EARLY_HOST_ENDS = {
    "limit": (Limit(cohort_join(4.0), 37), None, None),
    "cancel-0.30": (cohort_join(4.0), cancel_at(0.30), None),
    "cancel-0.35": (cohort_join(4.0), cancel_at(0.35), None),
    "deadline-0.30": (cohort_join(4.0), None, 0.30),
}


@pytest.mark.parametrize("how", sorted(EARLY_HOST_ENDS))
def test_a_split_onto_a_host_that_ends_early_returns_every_row(how):
    """The late query's split reads segment A from the host's fan-out.
    When the host stops before its end of file, the pages it never read
    are read privately from the cursor captured at attach (once: wrong
    group sums, 171.19 / 171.19 / 164.27 instead of 377.46 / 404.39 /
    344.93)."""
    plan, end, deadline = EARLY_HOST_ENDS[how]
    late = _late_group_sums()
    clients = [(0.1, plan, deadline), (0.28, late, None)]
    buffers = dict(buffer_tuples=1024, replay_tuples=16)
    rows, engine, _sm, _events = run_cohort(
        cohort_db, QPipeConfig(**buffers), clients, end
    )
    assert engine.osp_stats.mj_splits == 1
    off, *_ = run_cohort(
        cohort_db, QPipeConfig(osp_enabled=False, **buffers), clients, end
    )
    _same_rows(rows[1], off[1])
    _same_rows(rows[1], IteratorEngine(cohort_db()[1]).run_query(late))


#: ``(host query, late query's arrival, re-emissions)``: the cohort
#: first seen crashing, and one whose late sort re-emits the host's
#: materialised result until its LIMIT closes the consumer.
CLOSED_CONSUMER_COHORTS = {
    "limit-host": (Limit(cohort_join(), 5), 0.37, 0),
    "reemission": (cohort_join(), 0.42, 1),
}


@pytest.mark.parametrize("cohort", sorted(CLOSED_CONSUMER_COHORTS))
def test_a_sort_reemission_whose_consumer_closes_ends_quietly(cohort):
    """A sort re-emission whose consumer has closed stops quietly (once:
    ``SimulationError: process sort-reemit#14 crashed`` of
    ``ChannelClosed``), and both queries return the iterator's rows."""
    host_plan, arrival, reemissions = CLOSED_CONSUMER_COHORTS[cohort]
    late = Limit(cohort_join(lo=1291, hi=2459), 6)
    clients = [(0.18, host_plan, None), (arrival, late, None)]
    rows, engine, _sm, _events = run_cohort(
        cohort_db, QPipeConfig(buffer_tuples=64, replay_tuples=16), clients
    )
    assert engine.osp_stats.sort_reemissions == reemissions
    for got, (_delay, plan, _deadline) in zip(rows, clients):
        assert got == IteratorEngine(cohort_db()[1]).run_query(plan)
