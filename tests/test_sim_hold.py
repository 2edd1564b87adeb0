"""Differential tests: ``Resource.hold`` against request -> timeout -> release.

``hold`` folds a device service into one kernel entry; the three-step
form below is the reference it must be indistinguishable from -- the
same (process, completion time) sequence *in order*, the same resource
accounting -- on random populations that collide on timestamps, queue,
read shared state at grant time and get interrupted while queued and
mid-service.

Two kinds of tie are outside the contract and the generated schedules
stay clear of them on purpose (DESIGN.md section 10, "one event per
service"):

* a bare ``sim.timeout(d)`` armed by *another* process at the instant of
  a grant, with ``d`` bit-identical to the service time: the three-step
  form arms the service timeout one now-queue hop later, so the two
  completions swap.  Sleeps and arrivals are therefore drawn off the
  service-time grid (never equal to a service time, never zero).
* an interrupt landing on the very instant of the victim's grant: the
  three-step form has not evaluated a callable duration yet, ``hold``
  has.  Killers fire on an eighth-second offset no grant can reach (the
  directed tests in test_sim_interrupt_leaks.py own that instant).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Resource, Simulator
from repro.sim.errors import Interrupted, StarvationError
from tests.sim_reference import on_paths

SERVICES = [0.0, 0.5, 1.0, 1.5]
SLEEPS = [0.25, 0.75, 1.25]
ARRIVALS = [0.0, 0.25, 0.75]


def occupy_hold(sim, res, duration):
    service = yield res.hold(duration)
    return service


def occupy_three_step(sim, res, duration):
    """The reference: what every device model spelled out before hold."""
    grant = yield res.request()
    try:
        service = duration() if callable(duration) else duration
        yield sim.timeout(service)
    finally:
        res.release(grant)
    return service


#: Steps are (kind, amount, device): two devices, like a disk and a CPU,
#: so one holder's next service can race another's queued grant.
steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("hold"), st.sampled_from(SERVICES), st.integers(0, 1)
        ),
        st.tuples(
            st.just("seek"), st.sampled_from(SERVICES[:3]), st.integers(0, 1)
        ),
        st.tuples(st.just("sleep"), st.sampled_from(SLEEPS), st.just(0)),
    ),
    min_size=1,
    max_size=5,
)
populations = st.lists(
    st.tuples(st.sampled_from(ARRIVALS), steps), min_size=1, max_size=6
)
kill_lists = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 40)), max_size=3
)


def run_population(occupy, capacity, population, kills):
    """Run one schedule; returns everything the two forms must agree on."""
    sim = Simulator()
    devices = [
        Resource(sim, capacity=capacity, name="cpu"),
        Resource(sim, capacity=1, name="disk"),
    ]
    log = []
    heads = [-1, -1]  # like a disk head: read and written at grant time only

    def worker(pid, arrival, plan):
        if arrival:
            yield sim.timeout(arrival)
        for step, (kind, amount, dev) in enumerate(plan):
            if kind == "sleep":
                yield sim.timeout(amount)
                log.append((pid, step, sim.now, None))
                continue
            if kind == "seek":
                def duration(pid=pid, amount=amount, dev=dev):
                    moved = heads[dev] != pid
                    heads[dev] = pid
                    return amount + (0.5 if moved else 0.0)
            else:
                duration = amount
            try:
                service = yield from occupy(sim, devices[dev], duration)
            except Interrupted:
                log.append((pid, step, sim.now, "killed"))
                return
            log.append((pid, step, sim.now, service))

    def killer(victim, when):
        yield sim.timeout(when)
        victim.interrupt("chaos")

    procs = [
        sim.spawn(worker(pid, arrival, plan), name=f"w{pid}")
        for pid, (arrival, plan) in enumerate(population)
    ]
    for index, tick in kills:
        sim.spawn(killer(procs[index % len(procs)], tick * 0.25 + 0.125))
    sim.run_until_done(procs)
    return (
        log,
        sim.now,
        [res.in_use for res in devices],
        [res.total_acquisitions for res in devices],
        [res.busy_time for res in devices],
        [res.utilization() for res in devices],
    )


#: ``fast=False`` runs both forms on the kernel's slow reference paths.
@pytest.mark.parametrize("fast", [True, False])
@settings(max_examples=120, deadline=None)
@given(
    capacity=st.integers(1, 3),
    population=populations,
    kills=kill_lists,
)
def test_hold_is_indistinguishable_from_three_step(
    fast, capacity, population, kills
):
    with on_paths(fast):
        held = run_population(occupy_hold, capacity, population, kills)
        reference = run_population(
            occupy_three_step, capacity, population, kills
        )
    assert held == reference
    assert held[2] == [0, 0]  # in_use


def test_hold_evaluates_callable_at_grant_not_at_queueing():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    seen = []

    def first():
        yield res.hold(2.0)

    def second():
        service = yield res.hold(lambda: seen.append(sim.now) or 1.0)
        assert service == 1.0

    sim.spawn(first())
    waiter = sim.spawn(second())
    sim.run_until_done([waiter])
    assert seen == [2.0] and sim.now == 3.0


def test_hold_releases_before_resuming_the_holder():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def holder():
        yield res.hold(1.0)
        order.append(("holder resumed", res.in_use, res.queue_length))

    def waiter():
        yield res.hold(lambda: order.append("waiter granted") or 1.0)

    sim.spawn(holder())
    sim.spawn(waiter())
    sim.run()
    # The waiter's service started (unit re-taken, queue empty) before
    # the first holder ran again.
    assert order == ["waiter granted", ("holder resumed", 1, 0)]
    assert res.in_use == 0 and res.total_acquisitions == 2


def test_one_kernel_entry_per_service():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user():
        for _ in range(10):
            yield res.hold(1.0)

    procs = [sim.spawn(user()), sim.spawn(user())]
    sim.run_until_done(procs)
    # 2 process starts + 20 services (queued or not) + 2 process exits.
    assert sim._seq == 24


def test_anyof_losing_hold_still_releases_the_unit():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def impatient():
        hold = res.hold(5.0)
        fired = yield sim.any_of([hold, sim.timeout(1.0)])
        log.append(("gave up", sim.now, hold in fired))

    def late():
        yield sim.timeout(2.0)
        yield res.hold(1.0)
        log.append(("late done", sim.now))

    sim.spawn(impatient())
    user = sim.spawn(late())
    sim.run_until_done([user])
    # The abandoned race loser runs its service out (t=5) and then frees
    # the unit by itself: nobody is left to run a ``finally``.
    assert log == [("gave up", 1.0, False), ("late done", 6.0)]
    assert res.in_use == 0


def test_queued_hold_losing_anyof_is_served_and_released():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder():
        yield res.hold(3.0)

    def impatient():
        yield sim.any_of([res.hold(1.0), sim.timeout(0.5)])

    sim.spawn(holder())
    sim.spawn(impatient())
    sim.run()
    assert sim.now == 4.0
    assert res.in_use == 0 and res.total_acquisitions == 2


@pytest.mark.parametrize("occupy", [occupy_hold, occupy_three_step])
def test_starvation_text_names_the_resource(occupy):
    sim = Simulator()
    res = Resource(sim, capacity=1, name="disk0")

    def hog():
        grant = yield res.request()
        try:
            yield sim.event()  # never fires
        finally:
            res.release(grant)

    def starved():
        yield from occupy(sim, res, 1.0)

    sim.spawn(hog())
    stuck = sim.spawn(starved(), name="scan")
    with pytest.raises(StarvationError) as info:
        sim.run_until_done([stuck])
    assert str(info.value) == (
        "simulation drained at t=0.000 with 1 live process(es): "
        "scan#2 waiting on resource disk0; "
        "also blocked: process#1 waiting on Event"
    )
