"""Kernel-entry budget (ROADMAP item 1(a)): exact work, not host time.

The simulator is deterministic, so the number of kernel entries a fixed
scenario schedules is a constant of the code -- a golden, like a figure.
Pinning it turns "somebody re-introduced a hop per device service" into
a reviewed one-line diff instead of a few percent of host noise.
"""

import pytest

from repro.baseline.engine import IteratorEngine
from repro.engine.qpipe import QPipeConfig, QPipeEngine
from repro.hw.host import Host, HostConfig
from repro.pushexec import PushEngine
from repro.relational.expressions import AggSpec, Col
from repro.relational.plans import Aggregate, TableScan
from repro.storage.manager import StorageManager

import tests.conftest as cf

ROWS = 13_600  # 341 rows/page -> a 40-page table
POOL_PAGES = 16  # smaller than the table: every scan goes to disk
STAGGER = 0.012  # virtual seconds: each scan arrives mid-way through the last

ENGINES = {
    "packets": lambda sm: QPipeEngine(sm, QPipeConfig(osp_enabled=True)),
    "iterator": IteratorEngine,
    "pushed": PushEngine,
}

#: engine -> (kernel entries scheduled, processes spawned).  Before
#: Resource.hold (one entry per device service instead of a grant flush
#: plus a timeout) the same scenario cost:
#:   packets (1037, 157)    iterator (609, 3)    pushed (609, 3)
BUDGET = {
    "packets": (756, 157),
    "iterator": (329, 3),
    "pushed": (329, 3),
}


def q6_shaped(lo: float):
    """A selective scan-aggregate, like TPC-H q6."""
    predicate = (Col("val") >= lo) & (Col("val") < lo + 20.0) & (Col("grp") < 5)
    return Aggregate(
        TableScan("r", predicate=predicate),
        [AggSpec("sum", Col("val"), "revenue"), AggSpec("count", None, "n")],
    )


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_three_staggered_scans_cost_exactly_this_many_kernel_entries(name):
    host = Host(HostConfig())
    sm = StorageManager(host, buffer_pages=POOL_PAGES)
    sm.create_table("r", cf.R_SCHEMA, clustered_on=["id"])
    sm.load_table("r", cf.make_r_rows(n=ROWS))
    engine = ENGINES[name](sm)
    sim = host.sim

    def client(index):
        yield sim.timeout(index * STAGGER)
        result = yield from engine.execute(q6_shaped(10.0 + 25.0 * index))
        return result.rows

    clients = [sim.spawn(client(i), name="client") for i in range(3)]
    sim.run_until_done(clients)
    assert all(len(c.value) == 1 and c.value[0][1] > 0 for c in clients)
    assert host.disk.stats.blocks_read >= 40
    # sim._seq counts Simulator.schedule calls: every kernel entry.
    assert (sim._seq, sim.process_count) == BUDGET[name]
