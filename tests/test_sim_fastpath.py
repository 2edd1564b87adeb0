"""The wall-clock fast paths change nothing about virtual time.

The slow paths they replaced -- a pure-heap ``schedule`` and
``_balance``-only channel transfers -- are a test reference
(``tests/sim_reference.py``).  Layers of evidence (DESIGN.md section 10):

* a property test pinning same-timestamp execution order -- ``priority``
  then ``seq`` -- across the now-queue fast path vs. the pure heap path,
  over randomized schedule mixes including nested scheduling;
* a differential test running one fig8 cell on the reference paths vs.
  the kernel's, asserting byte-identical JSONL traces and equal metrics;
* a bound on queue growth under cancel-heavy workloads (the lazy-
  deletion leak fix);
* a hypothesis differential over random channel programs: the direct
  hand-off of an offered item to a parked consumer (dead consumers at
  the head of the queue included) wakes everyone in the order the
  reference ``_balance`` matching loop does.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.config import SMOKE, build_tpch_system, with_overrides
from repro.obs import Tracer, jsonl_dumps
from repro.sim import Channel, ChannelClosed, Interrupted, Simulator
from repro.workloads.clients import ClosedLoopClient, run_workload
from repro.workloads.tpch import queries as Q
from tests.sim_reference import install, on_paths


def record_execution_order(seed, fast):
    """One randomized schedule mix; returns the callback execution order.

    Mixes zero-delay NORMAL entries (now-queue candidates), zero-delay
    URGENT entries, delayed entries, nested re-scheduling, and a sprinkle
    of cancellations -- all driven by the same seeded RNG so the fast and
    slow runs build identical schedules.
    """
    with on_paths(fast):
        sim = Simulator()
        rng = random.Random(seed)
        order = []
        entries = []

        def hit(tag, depth):
            order.append((sim.now, tag))
            if depth > 0 and rng.random() < 0.4:
                # Nested scheduling from inside a callback.
                entries.append(
                    sim.schedule(
                        rng.choice([0.0, 0.0, 1.0]),
                        hit,
                        f"{tag}.n",
                        depth - 1,
                        priority=rng.choice([0, 1]),
                    )
                )

        for i in range(200):
            delay = rng.choice([0.0, 0.0, 0.0, 1.0, 2.5, 7.0])
            priority = rng.choice([0, 1, 1, 1])
            entries.append(sim.schedule(delay, hit, str(i), 2,
                                        priority=priority))
        def cancelled_ran(*_args):
            raise AssertionError("cancelled entry executed")

        for i, entry in enumerate(entries[:200]):
            if rng.random() < 0.15:
                sim.cancel(entry)
                # Cancelled callbacks must never run.
                entry[3] = cancelled_ran
        sim.run()
        return order


@pytest.mark.parametrize("seed", range(12))
def test_same_timestamp_ordering_matches_pure_heap(seed):
    assert record_execution_order(seed, fast=True) == \
        record_execution_order(seed, fast=False)


def run_channel_program(ops, capacity, fast):
    """One channel, one op per step; returns the wake-order log.

    Each op is ``(delay, kind, n)``: *delay* 0 keeps it on the previous
    op's timestamp.  ``get`` and ``put`` spawn a party that may park;
    ``kill`` interrupts the n-th party spawned so far (a parked getter
    becomes an abandoned entry at the head of the queue); ``try_put``
    and ``close`` act inline.
    """
    with on_paths(fast):
        sim = Simulator()
        ch = Channel(sim, capacity=capacity)
        log = []
        parties = []

        def getter(tag):
            try:
                log.append((sim.now, tag, "got", (yield ch.get(owner=tag))))
            except (ChannelClosed, Interrupted) as exc:
                log.append((sim.now, tag, type(exc).__name__))

        def putter(tag, size):
            try:
                yield ch.put(tag, size=size, owner=tag)
                log.append((sim.now, tag, "accepted"))
            except (ChannelClosed, Interrupted) as exc:
                log.append((sim.now, tag, type(exc).__name__))

        def driver():
            for step, (delay, kind, n) in enumerate(ops):
                if delay:
                    yield sim.timeout(delay)
                tag = f"{kind}{step}"
                if kind == "get":
                    parties.append(sim.spawn(getter(tag)))
                elif kind == "put":
                    parties.append(sim.spawn(putter(tag, 1 + n % capacity)))
                elif kind == "try_put":
                    log.append((sim.now, tag, ch.try_put(tag, 1 + n % 2)))
                elif kind == "kill" and parties:
                    parties[n % len(parties)].interrupt(tag)
                elif kind == "close":
                    ch.close()
                log.append((sim.now, tag, ch.level, ch.blocked_consumers(),
                            ch.blocked_producers()))

        sim.spawn(driver())
        sim.run()
        log.append((sim.now, sim._seq, ch.total_put, ch.total_got, ch.level))
        return log


_CHANNEL_OPS = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 1]),
        st.sampled_from(
            ["get", "get", "get", "put", "put", "try_put", "kill", "close"]
        ),
        st.integers(0, 7),
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(ops=_CHANNEL_OPS, capacity=st.integers(1, 3))
def test_channel_hand_off_wakes_in_slow_path_order(ops, capacity):
    assert run_channel_program(ops, capacity, fast=True) == \
        run_channel_program(ops, capacity, fast=False)


def test_until_boundary_identical_fast_and_slow():
    for fast in (True, False):
        with on_paths(fast):
            sim = Simulator()
            seen = []
            sim.schedule(0.0, seen.append, "a")
            sim.schedule(5.0, seen.append, "b")
            sim.schedule(10.0, seen.append, "c")
            assert sim.run(until=5.0) == 5.0
            assert seen == ["a", "b"]
            assert sim.now == 5.0
            assert sim.run() == 10.0
            assert seen == ["a", "b", "c"]


def test_cancel_heavy_workload_keeps_queues_bounded():
    """Lazy deletion must not grow the heap without bound (leak fix)."""
    sim = Simulator()

    def nop():
        pass

    high_water = 0
    for round_no in range(200):
        entries = [sim.schedule(1.0 + i * 0.001, nop) for i in range(100)]
        for entry in entries[:95]:
            sim.cancel(entry)
        high_water = max(
            high_water, len(sim._heap) + len(sim._now_queue)
        )
    # 200 rounds x 95 cancelled entries would be ~19000 dead entries
    # without compaction; the live population is ~1000.
    live = 200 * 5
    assert high_water < 4 * live + 2 * Simulator.COMPACT_MIN_DEAD
    sim.run()


def test_compaction_preserves_execution_order():
    sim = Simulator()
    order = []
    entries = [
        sim.schedule(float((i * 13) % 50), order.append, i)
        for i in range(500)
    ]
    expected = sorted(
        (e[0], e[2], e[4][0]) for i, e in enumerate(entries) if i % 7
    )
    for i, entry in enumerate(entries):
        if i % 7 == 0:
            sim.cancel(entry)
    sim.run()
    assert order == [tag for (_t, _s, tag) in expected]


def run_fig8_cell():
    scale = with_overrides(SMOKE, tpch_factor=0.02)
    host, sm, engine = build_tpch_system(scale, "qpipe")
    tracer = Tracer(host.sim)
    clients = [
        ClosedLoopClient(
            i,
            lambda rng, i=i: Q.q6(random.Random(100 + i)),
            queries=1,
            start_delay=i * 10.0,
        )
        for i in range(2)
    ]
    metrics = run_workload(engine, clients, seed=5)
    return jsonl_dumps(tracer.events), metrics


def test_fig8_cell_identical_with_fast_paths_disabled(monkeypatch):
    blob_fast, metrics_fast = run_fig8_cell()
    install(monkeypatch)
    blob_slow, metrics_slow = run_fig8_cell()

    assert blob_fast  # tracing recorded something
    assert blob_fast == blob_slow
    assert metrics_fast.makespan == metrics_slow.makespan
    assert metrics_fast.blocks_read == metrics_slow.blocks_read
    assert metrics_fast.pool_hit_ratio == metrics_slow.pool_hit_ratio
    assert [r.rows for r in metrics_fast.results] == [
        r.rows for r in metrics_slow.results
    ]
    assert [
        (r.submitted_at, r.started_at, r.finished_at)
        for r in metrics_fast.results
    ] == [
        (r.submitted_at, r.started_at, r.finished_at)
        for r in metrics_slow.results
    ]
