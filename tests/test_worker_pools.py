"""On-demand µEngine worker pools against the eager pool they replaced.

A ``MicroEngine`` spawns worker k-1 for the k-th packet it queues, up to
its pool size; ``tests/pool_reference.py`` restores the pool that was
spawned whole when the engine was built.  Every input below runs under
both, and the two must agree on everything a run shows: rows (order
included), finish times, disk blocks read and written, the files left in
the block store, the :class:`InvariantChecker` verdict, and every trace
event with its timestamp -- apart from ``proc.*``, the spawns and
interrupts themselves, whose process names carry the simulator's spawn
count (``#N``) and so differ by the idle workers spawned before them.

What differs is exact arithmetic, and by exactly this much:

* ``sim._seq``: the eager pool's one t=0 entry per worker, which parked
  it on the queue -- the sum of the pool sizes, 152 per QPipeEngine
  (``fscan`` 32 + 15 x 8).  Spawning a worker for a packet costs the one
  entry the parked worker's hand-off cost.
* ``sim.process_count``: the workers the run never needed, i.e. the sum
  of the pool sizes less the workers spawned on demand.
"""

import json
import random
import re

import pytest

from repro.engine.qpipe import QPipeEngine
from repro.harness.config import (
    CLIENT_SEED_BASE,
    SMOKE,
    build_sharded_wisconsin_system,
    build_tpch_system,
    collected_tracers,
    disable_tracing,
    enable_tracing,
)
from repro.obs import InvariantChecker
from repro.workloads.tpch import queries as Q

import tests.test_operator_schedule as schedule
from tests import pool_reference
from tests.test_shard_exec import TINY, _plans

#: The fig8 cell: four staggered Q6 clients, 20 s apart, on QPipe.
FIG8_COUNT, FIG8_GAP = 4, 20.0


def shown(tracers, rows, finished, hosts, managers):
    """What a run shows, for both pools to agree on."""
    events = [e for t in tracers for e in t.events]
    return {
        "rows": rows,
        "finished": finished,
        "blocks": [
            (h.disk.stats.blocks_read, h.disk.stats.blocks_written)
            for h in hosts
        ],
        "files": [list(sm.store.files()) for sm in managers],
        "verdicts": [InvariantChecker(t.events).check() for t in tracers],
        "events": [e for e in events if not e["type"].startswith("proc.")],
    }


def schedule_scenario(scenario):
    host, sm, results = schedule.run(scenario, "packets", trace=True)
    return host.sim, shown(
        [host.sim.tracer],
        schedule.result_rows(sm, results),
        [result.finished_at for result in results],
        [host],
        [sm],
    )


def fig8_cell():
    enable_tracing()
    try:
        host, sm, engine = build_tpch_system(SMOKE, "qpipe")
        tracers = collected_tracers()
    finally:
        disable_tracing()
    sim = host.sim
    plans = [
        Q.q6(random.Random(CLIENT_SEED_BASE + i)) for i in range(FIG8_COUNT)
    ]

    def client(plan, delay):
        yield sim.timeout(delay)
        return (yield from engine.execute(plan))

    procs = [
        sim.spawn(client(plan, i * FIG8_GAP), name="client")
        for i, plan in enumerate(plans)
    ]
    sim.run_until_done(procs)
    results = [proc.value for proc in procs]
    return sim, shown(
        tracers,
        [result.rows for result in results],
        [result.finished_at for result in results],
        [host],
        [sm],
    )


def four_hosts():
    enable_tracing()
    try:
        cluster, system, executor = build_sharded_wisconsin_system(
            TINY, 4, system="qpipe"
        )
        tracers = collected_tracers()
    finally:
        disable_tracing()
    rows, finished = [], []
    for plan in _plans().values():
        rows.append(executor.run_query(plan))
        finished.append(cluster.sim.now)
    return cluster.sim, shown(
        tracers, rows, finished, cluster.hosts,
        [shard.sm for shard in system],
    )


INPUTS = {
    **{
        f"schedule-{name}": (lambda name=name: schedule_scenario(name))
        for name in schedule.SCENARIOS
    },
    "fig8-smoke": fig8_cell,
    "scaleout-4h": four_hosts,
}


@pytest.fixture
def engines(monkeypatch):
    """Every QPipeEngine built from here on, in order."""
    built = []
    init = QPipeEngine.__init__

    def tracking(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(QPipeEngine, "__init__", tracking)
    return built


def pools(engines):
    """``(sum of the pool sizes, workers spawned)`` over *engines*."""
    micros = [m for e in engines for m in e.engines.values()]
    return (
        sum(m.workers for m in micros),
        sum(len(m._worker_procs) for m in micros),
    )


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_on_demand_pools_show_what_eager_pools_showed(name, engines,
                                                      monkeypatch):
    sim, lazy = INPUTS[name]()
    size, spawned = pools(engines)
    built = len(engines)
    seq, processes = sim._seq, sim.process_count
    engines.clear()
    pool_reference.install(monkeypatch)
    eager_sim, eager = INPUTS[name]()
    assert pools(engines) == (size, size)

    assert lazy["events"] and lazy["rows"]
    for part in lazy:
        assert lazy[part] == eager[part], part
    # No event but proc.* names a process: nothing to normalise.
    assert not re.search(r"#\d", json.dumps(lazy["events"]))
    assert size == 152 * built
    assert 0 < spawned < size
    assert eager_sim._seq - seq == size
    assert eager_sim.process_count - processes == size - spawned
