"""Detach-on-stall for circular scans (section 3.3).

"If one file scan blocks trying to provide more tuples than its parent
node can consume, it will need to detach from the rest of the scans."
A stalled consumer must not hold the shared scanner hostage; once cut
loose it completes via a private catch-up scan and still sees every row
exactly once.
"""

from repro.engine.qpipe import QPipeConfig, QPipeEngine
from repro.relational.expressions import AggSpec, Col
from repro.relational.plans import Aggregate, TableScan


def test_stalled_consumer_is_detached_and_completes(big_db):
    host, sm, r_rows, _s = big_db
    engine = QPipeEngine(
        sm,
        QPipeConfig(
            osp_enabled=True,
            buffer_tuples=64,  # tiny buffer: a paused reader stalls fast
        ),
    )
    sim = host.sim

    def normal_client():
        result = yield from engine.execute(
            Aggregate(TableScan("r"), [AggSpec("count", None, "n")])
        )
        return result

    def stalling_client():
        """Reads its scan directly and pauses mid-stream."""
        from repro.engine.packets import QueryContext

        query = QueryContext(
            query_id=777, plan=TableScan("r"), sm=sm, host_machine=host
        )
        engine.active_queries += 1
        root = engine.dispatcher.dispatch(query)
        rows = []
        got_batches = 0
        while True:
            batch = yield from root.get()
            if batch is None:
                break
            rows.extend(batch)
            got_batches += 1
            if got_batches == 3:
                yield sim.timeout(60.0)  # stall far beyond the patience
        engine.active_queries -= 1
        return rows

    fast = sim.spawn(normal_client())
    slow = sim.spawn(stalling_client())
    sim.run_until_done([fast, slow])

    # The stalled consumer was cut loose...
    assert engine.osp_stats.scan_detaches == 1
    # ...the well-behaved query was not dragged down to the stall...
    assert fast.value.finished_at < 30.0
    # ...and the detached one still received every row exactly once.
    assert sorted(slow.value) == sorted(r_rows)
    assert len(slow.value) == len(r_rows)


def test_fast_consumers_never_detached(big_db):
    host, sm, r_rows, _s = big_db
    engine = QPipeEngine(sm, QPipeConfig(osp_enabled=True))
    procs = [
        host.sim.spawn(
            engine.execute(
                Aggregate(
                    TableScan("r", predicate=Col("grp") == g),
                    [AggSpec("count", None, "n")],
                )
            )
        )
        for g in range(3)
    ]
    host.sim.run_until_done(procs)
    assert engine.osp_stats.scan_detaches == 0
    for g, proc in enumerate(procs):
        assert proc.value.rows == [(sum(1 for r in r_rows if r[1] == g),)]
