"""Unit tests for the MicroEngine base: workers, queueing, OSP hooks."""

import pytest

from repro.engine.buffers import SEGMENT_BOUNDARY, FanOut, TupleBuffer
from repro.engine.micro_engine import MicroEngine
from repro.engine.packets import Packet, PacketState, QueryContext
from repro.engine.qpipe import QPipeConfig, QPipeEngine
from repro.relational.expressions import AggSpec, Col
from repro.relational.plans import (
    Aggregate,
    Distinct,
    Filter,
    Limit,
    Project,
    TableScan,
)


def make_engine(db, **kwargs):
    _h, sm, _r, _s = db
    return QPipeEngine(sm, QPipeConfig(**kwargs))


def make_packet(engine, plan=None, query_id=1):
    plan = plan or TableScan("r")
    query = QueryContext(
        query_id=query_id, plan=plan, sm=engine.sm,
        host_machine=engine.host,
    )
    return engine.dispatcher.build_subtree(
        query, plan, parent=None, parent_order_insensitive=True
    )


def test_workers_spawn_on_demand_up_to_the_pool_size(db):
    """None at construction; the k-th queued packet spawns worker k-1,
    the never-used worker a pool parked at t=0 would have handed it even
    when an older one is idle again; never more than ``workers``."""
    _h, sm, r_rows, _s = db
    before = sm.sim.process_count
    engine = make_engine(db, workers=1, osp_enabled=False)
    assert sm.sim.process_count == before
    assert all(m._worker_procs == [] for m in engine.engines.values())
    micro = engine.engines["fscan"]  # 4x workers
    assert micro.workers == 4

    def run(packets):
        for packet in packets:
            micro.enqueue(packet)
        spawned = len(micro._worker_procs)
        readers = [
            engine.sim.spawn(p.primary_output.drain()) for p in packets
        ]
        engine.sim.run_until_done(readers)
        assert all(sorted(r.value) == sorted(r_rows) for r in readers)
        return spawned

    assert run([make_packet(engine, query_id=0)]) == 1
    # Worker 0 is parked and idle; the next packet still starts worker 1.
    assert run([make_packet(engine, query_id=1)]) == 2
    assert run([make_packet(engine, query_id=i) for i in range(2, 8)]) == 4
    assert micro.packets_served == 8
    assert [p.name.split("#")[0] for p in micro._worker_procs] == [
        f"fscan-w{i}" for i in range(4)
    ]
    assert all(p.alive for p in micro._worker_procs)  # parked, not gone


def test_cancelled_packet_skipped_by_workers(db):
    engine = make_engine(db)
    packet = make_packet(engine)
    packet.state = PacketState.CANCELLED
    engine.engines["fscan"].enqueue(packet)
    engine.sim.run(until=1.0)
    assert packet.state is PacketState.CANCELLED
    assert engine.engines["fscan"].packets_served == 0


def test_packet_marked_done_after_serve(db):
    _h, sm, r_rows, _s = db
    engine = make_engine(db)
    packet = make_packet(engine)
    engine.engines["fscan"].enqueue(packet)
    rows = []

    def reader():
        got = yield from packet.primary_output.drain()
        rows.extend(got)

    engine.sim.spawn(reader())
    engine.sim.run()
    assert packet.state is PacketState.DONE
    assert sorted(rows) == sorted(r_rows)
    assert packet not in engine.engines["fscan"].active


def test_queue_overflow_waits_for_free_worker(db):
    """More packets than workers: the extras queue and run later."""
    _h, sm, r_rows, _s = db
    engine = make_engine(db, workers=1, osp_enabled=False)
    micro = engine.engines["fscan"]
    # fscan gets 4x workers; saturate all of them with held packets.
    packets = [make_packet(engine, query_id=i) for i in range(6)]
    for packet in packets:
        micro.enqueue(packet)
    readers = [
        engine.sim.spawn(p.primary_output.drain()) for p in packets
    ]
    engine.sim.run_until_done(readers)
    assert all(p.state is PacketState.DONE for p in packets)
    assert micro.packets_served == 6


def test_generic_attach_requires_same_signature(db):
    engine = make_engine(db)
    agg_a = make_packet(
        engine,
        Aggregate(TableScan("r"), [AggSpec("count", None, "n")]),
        query_id=1,
    )
    agg_b = make_packet(
        engine,
        Aggregate(TableScan("r"), [AggSpec("sum", Col("val"), "s")]),
        query_id=2,
    )
    micro = engine.engines["agg"]
    micro.active.append(agg_a)
    agg_a.state = PacketState.RUNNING
    assert micro.find_host(agg_b) is None  # different aggregates


def test_generic_attach_rejects_same_query(db):
    engine = make_engine(db)
    plan = Aggregate(TableScan("r"), [AggSpec("count", None, "n")])
    first = make_packet(engine, plan, query_id=7)
    second = make_packet(engine, plan, query_id=7)
    second.query = first.query  # same query object
    micro = engine.engines["agg"]
    micro.active.append(first)
    first.state = PacketState.RUNNING
    assert micro.find_host(second) is None


def test_can_attach_respects_replay_window(db):
    engine = make_engine(db, replay_tuples=4)
    plan = Aggregate(TableScan("r"), [AggSpec("count", None, "n")])
    host_packet = make_packet(engine, plan, query_id=1)
    newcomer = make_packet(engine, plan, query_id=2)
    host_packet.state = PacketState.RUNNING
    micro = engine.engines["agg"]
    assert micro.can_attach(host_packet, newcomer)  # nothing emitted

    def producer():
        yield from host_packet.output.put([(1,)] * 8)  # exceeds the ring

    def consumer():
        yield from host_packet.primary_output.drain()

    engine.sim.spawn(producer())
    engine.sim.spawn(consumer())
    engine.sim.run(until=1)
    assert not micro.can_attach(host_packet, newcomer)


def test_cancel_subtree_interrupts_running_worker(db):
    _h, sm, _r, _s = db
    engine = make_engine(db, osp_enabled=False)
    root = make_packet(
        engine, Aggregate(TableScan("r"), [AggSpec("count", None, "n")])
    )
    engine.dispatcher.enqueue_tree(root)
    engine.sim.run(until=0.01)  # let the scan start
    child = root.children[0]
    assert child.state is PacketState.RUNNING
    root.cancel_subtree()
    engine.sim.run(until=0.02)
    assert child.state is PacketState.CANCELLED
    assert child.output.closed


def test_release_inputs_cancels_orphan_children(db):
    """A parent finishing early cancels children nobody else needs."""
    _h, sm, r_rows, _s = db
    from repro.relational.plans import Limit

    engine = make_engine(db, osp_enabled=False)
    plan = Limit(TableScan("r"), count=3)
    rows = engine.run_query(plan)
    assert len(rows) == 3
    # The scan child must not be left running or queued.
    assert engine.engines["fscan"].active == []


# ---------------------------------------------------------------------------
# The one streaming serve: a stage between a get and a put
# ---------------------------------------------------------------------------
#: micro-engine -> (plan, forwards markers?, output per input segment)
STREAMS = {
    "filter": (lambda: Filter(TableScan("r"), Col("grp") < 2), True,
               [[(1, 0), (2, 1)], [(7, 0), (8, 1), (2, 1)]]),
    "project": (lambda: Project(TableScan("r"), ["id"]), True,
                [[(1,), (2,), (3,)], [(7,), (8,), (2,)]]),
    "distinct": (lambda: Distinct(TableScan("r")), False,
                 [[(1, 0), (2, 1), (3, 2)], [(7, 0), (8, 1)]]),
    "limit": (lambda: Limit(TableScan("r"), 4, offset=1), False,
              [[(2, 1), (3, 2)], [(7, 0), (8, 1)]]),
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_serve_forwards_or_swallows_a_segment_boundary(db, name):
    """Section 4.3.2: filter and project keep the segment structure for
    a merge join above them; distinct and limit end it."""
    make_plan, forwards, want = STREAMS[name]
    engine = make_engine(db, osp_enabled=False)
    packet = make_packet(engine, make_plan())
    micro = engine.engines[name]
    assert micro.forwards_markers is forwards
    source = packet.inputs[0]
    # Rows only as wide as the test needs; id and grp lead R_SCHEMA.
    segments = [[(1, 0), (2, 1), (3, 2)], [(7, 0), (8, 1), (2, 1)]]

    def producer():
        yield from source.put(segments[0])
        yield from source.put_marker()
        yield from source.put(segments[1])
        source.close()

    got = []

    def reader():
        while True:
            batch = yield from packet.primary_output.get()
            if batch is None:
                return
            got.append(batch)

    micro.enqueue(packet)
    engine.sim.spawn(producer())
    engine.sim.spawn(reader())
    engine.sim.run()
    assert packet.state is PacketState.DONE
    assert got == (
        [want[0], SEGMENT_BOUNDARY, want[1]] if forwards else want
    )
