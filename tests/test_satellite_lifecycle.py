"""The satellite lifecycle: every attach mechanism against every way its
host can end.

A satellite rides another query's in-progress *host* packet (section
4.3).  Its host may reach its end of file or end early -- an early stop
under a LIMIT, a cancel, an injected crash, a deadline -- and its own
consumer may close before it is done.  The mechanism it attached with
decides its answer (DESIGN section 7, ``Packet.end_satellites``).  Each
cell below ends one host one way under one mechanism and checks two
oracles:

* rows -- every query that finishes returns what it returns with OSP
  off (any rows of the right count, where a LIMIT sits over an order the
  plan leaves open);
* teardown -- the trace checks clean (orphan satellites included), no
  buffer is live, no frame pinned and no lock held, every packet ended
  DONE or CANCELLED, and none is reachable once the run is over.

The circular scan's consumers stand in its table: their host is the
shared scanner thread, which can crash and restart, and a consumer can
close mid-pass.  Fold members ride that scanner too, so in the fold
cells "the host" is only the query that opened the group, and its end
ends its own ride alone.
"""

import functools
import gc

import pytest

from repro.engine.packets import Packet, PacketState
from repro.engine.qpipe import QPipeConfig
from repro.faults import FaultInjector, FaultPlan
from repro.obs import InvariantChecker
from repro.relational.expressions import AggSpec, Between, Col
from repro.relational.plans import (
    Aggregate,
    Distinct,
    GroupBy,
    Limit,
    TableScan,
)

from tests.test_folding import build_db as fold_db, fold_plans
from tests.test_osp_order_sensitive import (
    _same_rows,
    cancel_at,
    cohort_db,
    cohort_join,
    run_cohort,
)
from tests.test_packet_lifetimes import survivors, tracked  # noqa: F401


def _sums(join):
    return GroupBy(join, ["grp"], [AggSpec("sum", Col("w"), "sw")])


def crash_at(at):
    return lambda host, engine: FaultInjector(
        FaultPlan().crash_query(at=at, target=0)
    ).attach(engine)


def scanner_crash_at(at, table):
    return lambda host, engine: FaultInjector(
        FaultPlan().crash_scanner(at=at, table=table)
    ).attach(engine)


class Mechanism:
    """One attach mechanism's cohort: a host query (query 1) and the
    queries that ride it, and how each host end is staged."""

    def __init__(self, make_db, config, host, riders, attaches, *,
                 early_stop, consumer_close, end_at, scanner_hosted=False):
        self.make_db = make_db
        self.config = config
        self.host = host            # (delay, plan)
        self.riders = riders        # [(delay, plan)]
        self.attaches = attaches    # mechanisms the trace must show
        self.early_stop = early_stop        # the host plan under a LIMIT
        self.consumer_close = consumer_close  # riders with a closing consumer
        self.end_at = end_at        # when cancel / crash / deadline strike
        #: The riders' host is a circular scanner, not query 1's packet.
        self.scanner_hosted = scanner_hosted

    def cohort(self, end):
        """``(clients, end hook)`` for one host end."""
        delay, plan = self.host
        deadline = self.end_at if end == "deadline" else None
        if end == "early stop":
            plan = self.early_stop
        riders = self.consumer_close if end == "consumer close" else self.riders
        hook = {
            "cancel": cancel_at(self.end_at),
            "crash": crash_at(self.end_at),
        }.get(end)
        clients = [(delay, plan, deadline)]
        clients += [(at, rider, None) for at, rider in riders]
        return clients, hook


SMALL_BUFFERS = dict(buffer_tuples=64, replay_tuples=16)
FOLD_MEMBERS = fold_plans(4)
#: A fold member whose consumer closes after two rows.
FOLD_LIMITED = Limit(
    Distinct(TableScan("big1", Between(Col("unique1"), 0, 100))), 2
)

MECHANISMS = {
    # Late sort packets share the host's sort while it has no output.
    "generic": Mechanism(
        cohort_db, SMALL_BUFFERS,
        host=(0.1, cohort_join(4.0)),
        riders=[(0.15, _sums(cohort_join(4.0, lo=1000)))],
        attaches={"generic"},
        early_stop=Limit(cohort_join(4.0), 300),
        # The merge join leaves when its r side runs out mid-sort.
        consumer_close=[(0.15, _sums(cohort_join(4.0, lo=1000, hi=1500)))],
        end_at=0.45,
    ),
    # Section 4.3.2: the late ordered index scan splits onto the host's.
    # Its consumer closes inside segment A: the relay must let go of the
    # host's fan-out, or the host blocks on a full buffer for good.
    "mj-split": Mechanism(
        cohort_db, SMALL_BUFFERS,
        host=(0.1, cohort_join(4.0)),
        riders=[(0.28, _sums(cohort_join(8.0)))],
        attaches={"mj-split"},
        early_stop=Limit(cohort_join(4.0), 200),
        consumer_close=[(0.28, Limit(Distinct(cohort_join(8.0)), 3))],
        end_at=0.30,
    ),
    # Section 3.2: the late sort re-emits the host's materialised result.
    "sort-reemit": Mechanism(
        cohort_db, SMALL_BUFFERS,
        host=(0.18, cohort_join()),
        riders=[(0.42, _sums(cohort_join(lo=1291)))],
        attaches={"sort-reemit"},
        early_stop=Limit(cohort_join(), 200),
        consumer_close=[(0.42, Limit(cohort_join(lo=1291, hi=2459), 6))],
        end_at=0.45,
    ),
    # Folding: aggregate and scan members ride the scanner's wide filter.
    "fold": Mechanism(
        fold_db, dict(fold_enabled=True),
        host=(0.0, FOLD_MEMBERS[0]),
        riders=[(0.0, plan) for plan in FOLD_MEMBERS[1:]],
        attaches={"fold-agg", "fold-scan"},
        early_stop=Limit(
            Distinct(TableScan("big1", Between(Col("unique1"), 0, 290))), 5
        ),
        consumer_close=[(0.0, plan) for plan in FOLD_MEMBERS[1:]]
        + [(0.0, FOLD_LIMITED)],
        end_at=0.015,
        scanner_hosted=True,
    ),
}

HOST_ENDS = [
    "end of file", "early stop", "cancel", "crash", "deadline",
    "consumer close",
]


@functools.lru_cache(maxsize=None)
def osp_off_rows(make_db, plan):
    """*plan*'s rows run alone with every sharing mechanism off."""
    rows, *_ = run_cohort(
        make_db, QPipeConfig(osp_enabled=False), [(0.0, plan, None)]
    )
    return rows[0]


def check_rows(make_db, clients, rows):
    for (_delay, plan, _deadline), got in zip(clients, rows):
        if not isinstance(got, list):
            continue  # this host end aborted the query
        if isinstance(plan, Limit) and _order_left_open(plan.child):
            # Any rows of the right count: sharing may reorder them.
            whole = osp_off_rows(make_db, plan.child)
            assert len(got) == min(plan.count, len(whole))
            assert all(row in whole for row in got)
        else:
            _same_rows(got, osp_off_rows(make_db, plan))


def _order_left_open(plan):
    """Whether *plan* emits in an order sharing may change: a bare
    unordered scan, or a Distinct (its input may be split or folded)."""
    return isinstance(plan, Distinct) or (
        isinstance(plan, TableScan) and not plan.ordered
    )


@pytest.fixture
def no_cycle_collection():
    """Hold off the cycle collector for the run: every packet sits in a
    cycle with its output buffer, so each one stays inspectable until the
    oracle collects."""
    gc.disable()
    yield
    gc.enable()


def check_teardown(engine, sm, events, tracked):
    assert InvariantChecker(events).check() == []
    assert engine.live_buffers() == []
    assert sm.leftovers(engine) == []
    packets = [
        obj for obj in (ref() for ref in tracked)
        if isinstance(obj, Packet) and obj.query.sm is sm
    ]
    assert len(packets) == sum(e["type"] == "packet.create" for e in events)
    assert {p.state for p in packets} <= {
        PacketState.DONE, PacketState.CANCELLED
    }
    del packets
    assert survivors(tracked) == []


def ride_ends(events, mechanisms):
    """How each ride of a satellite attached by one of *mechanisms*
    ended: ``completed``, ``cancelled`` (its consumer closed) or ``host
    ended early`` (its host was cancelled while it rode, or it was
    detached to re-execute privately)."""
    riding, ends = {}, set()
    outcome = {
        "packet.complete": "completed",
        "packet.cancel": "cancelled",
        "packet.detach": "host ended early",
    }
    for event in events:
        kind, pid = event["type"], event.get("packet")
        if kind == "packet.attach" and event["mechanism"] in mechanisms:
            riding[pid] = event["host"]
        elif pid in riding and kind in outcome:
            del riding[pid]
            ends.add(outcome[kind])
        elif kind == "packet.cancel" and pid in riding.values():
            for sat in [sat for sat, host in riding.items() if host == pid]:
                del riding[sat]
                ends.add("host ended early")
    return ends


@pytest.mark.parametrize("end", HOST_ENDS)
@pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
def test_a_satellite_answers_its_host_end(
    mechanism, end, tracked, no_cycle_collection  # noqa: F811
):
    spec = MECHANISMS[mechanism]
    clients, hook = spec.cohort(end)
    rows, engine, sm, events = run_cohort(
        spec.make_db, QPipeConfig(**spec.config), clients, hook
    )
    attached = {
        e["mechanism"] for e in events if e["type"] == "packet.attach"
    }
    assert spec.attaches <= attached
    # The cell stages what it names: the ride ends that way.
    ends = ride_ends(events, spec.attaches)
    if end == "end of file":
        assert ends == {"completed"}
    elif end == "consumer close":
        assert "cancelled" in ends
    elif spec.scanner_hosted:
        # Query 1's end cancels its own ride; the others complete.
        assert ends == {"completed", "cancelled"}
    else:
        assert "host ended early" in ends
    if end in ("cancel", "crash", "deadline"):
        assert not isinstance(rows[0], list)
    check_rows(spec.make_db, clients, rows)
    check_teardown(engine, sm, events, tracked)


def test_a_fold_members_early_stop_leaves_the_others_riding(
    tracked, no_cycle_collection  # noqa: F811
):
    """A LIMIT that stops the group's first member mid-pass drops only
    that member: nobody re-executes, and the group completes the other
    three at its end."""
    spec = MECHANISMS["fold"]
    clients, hook = spec.cohort("early stop")
    rows, engine, sm, events = run_cohort(
        spec.make_db, QPipeConfig(**spec.config), clients, hook
    )
    assert not any(e["type"] == "packet.detach" for e in events)
    (complete,) = [e for e in events if e["type"] == "fold.complete"]
    assert complete["members"] == 3
    check_rows(spec.make_db, clients, rows)
    check_teardown(engine, sm, events, tracked)


def _circular_count(lo):
    return Aggregate(
        TableScan("s", predicate=Col("w") > lo),
        [AggSpec("count", None, "n"), AggSpec("sum", Col("w"), "sw")],
    )


CIRCULAR = {
    # The second scan attaches mid-pass; the scanner crashes and restarts.
    "scanner crash": (
        [(0.0, _circular_count(1.0), None), (0.02, _circular_count(2.0), None)],
        scanner_crash_at(0.04, "s"),
    ),
    # The second consumer closes after five rows, mid-pass.
    "consumer close": (
        [(0.0, _circular_count(1.0), None), (0.02, Limit(TableScan("s"), 5), None)],
        None,
    ),
}


@pytest.mark.parametrize("end", sorted(CIRCULAR))
def test_a_circular_scan_consumer_outlives_its_scanner_or_leaves(
    end, tracked, no_cycle_collection  # noqa: F811
):
    clients, hook = CIRCULAR[end]
    rows, engine, sm, events = run_cohort(
        cohort_db, QPipeConfig(), clients, hook
    )
    assert any(e["type"] == "osp.circular_attach" for e in events)
    if end == "scanner crash":
        assert any(e["type"] == "osp.scanner_restart" for e in events)
    check_rows(cohort_db, clients, rows)
    check_teardown(engine, sm, events, tracked)
