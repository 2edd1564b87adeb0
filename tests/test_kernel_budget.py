"""Kernel-entry budget (ROADMAP item 1(a)): exact work, not host time.

The simulator is deterministic, so the number of kernel entries a fixed
scenario schedules is a constant of the code -- a golden, like a figure.
Pinning it turns "somebody re-introduced a hop per device service" into
a reviewed one-line diff instead of a few percent of host noise.

The second budget is the same idea one layer up: the Python calls a
join-under-group-by plan makes into ``repro.relational`` are O(batches),
and pinned, so a per-row callable in an operator body is a test failure.

The third prices the transfer path: the Python calls the scan scenario
makes into ``repro.sim`` per kernel entry, so a helper frame that comes
back under ``hold``, ``put`` or ``get`` is a reviewed one-line diff too.

The fourth pins a kernel that is rendered once per index, not once per
lookup: the clustered index scan's key-range filter.

The fifth is what keeps fusion honest: one frame per run of streaming
operators, not one per operator, shows in the Python calls a streaming
chain makes into the operator library.

The fourth and fifth count calls into named directories, so they move
when code moves between directories.  The sixth does not: the Python
calls the same two scenarios make into all of ``repro/`` and its
generated kernels, which a refactor may shuffle but not inflate.

Beside the call pins sit two on memory: the bytes a hash-join build
table holds, and the bytes a loaded B+tree index holds (and one adopted
copy of it adds), each on a unique and on a repeating key.  Object
sizes are CPython details, so they are pinned per version where one
disagrees.
"""

import ast
import gc
import os
import subprocess
import sys
import tracemalloc

import pytest

import repro
from repro.baseline.engine import IteratorEngine
from repro.engine.qpipe import QPipeConfig, QPipeEngine
from repro.hw.host import Host, HostConfig
from repro.relational.expressions import AggSpec, Col
from repro.relational import compile
from repro.relational.plans import (
    Aggregate,
    Filter,
    GroupBy,
    HashJoin,
    IndexScan,
    Limit,
    Project,
    TableScan,
)
from repro.relational.schema import Schema
from repro.storage.manager import StorageManager

import tests.conftest as cf

#: Comprehension frames exist only before Python 3.12 (PEP 709).
_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>"}
_SIM = os.sep + os.path.join("repro", "sim") + os.sep
_RELATIONAL = os.sep + os.path.join("repro", "relational") + os.sep
_BASELINE = os.sep + os.path.join("repro", "baseline") + os.sep
_REPRO = os.sep + "repro" + os.sep

ROWS = 13_600  # 341 rows/page -> a 40-page table
POOL_PAGES = 16  # smaller than the table: every scan goes to disk
STAGGER = 0.012  # virtual seconds: each scan arrives mid-way through the last

ENGINES = {
    "packets": lambda sm: QPipeEngine(sm, QPipeConfig(osp_enabled=True)),
    "iterator": IteratorEngine,
}

#: engine -> (kernel entries scheduled, processes spawned).  Before
#: Resource.hold (one entry per device service instead of a grant flush
#: plus a timeout) the same scenario cost:
#:   packets (1037, 157)    iterator (609, 3)
#: and packets 756 while every pool miss announced itself to nobody and
#: every patient put built an accept event it never waited on.  All 40
#: misses of the iterator run are piggybacked on (coalesced is 80), so
#: its count did not move: a lazily created in-flight event still wakes
#: its piggybackers.  While every µEngine spawned its whole worker pool
#: when the engine was built, packets read (595, 157): 152 idle workers
#: and the t=0 entry that parked each.  Of those 152, the run needs 6.
BUDGET = {
    "packets": (443, 11),
    "iterator": (329, 3),
}

#: engine -> Python calls into src/repro/sim/ while the three clients
#: run, i.e. per kernel entry scheduled in that window:
#:   packets 2955 / 443 = 6.7    iterator 1945 / 329 = 5.9
#: packets was 3416 / 443 = 7.7 while the engine's 152 workers were
#: spawned when it was built, each parking on its queue in this window.
#: Before the transfer-path PR: 6630 / 604 = 11.0 and 3074 / 329 = 9.3.
#: packets was 3428 while the deadlock sweep re-tested ``closed`` on every
#: buffer registered since the last sweep; buffers now leave the registry
#: when they close.  It was 3422 while each of the scenario's six
#: ``Channel``s read the fast-path toggle when it was built.  It was 2954
#: before a deadlock sweep that finds no cycle asked ``Simulator.idle``
#: whether anything else is pending (one sweep runs here).
SIM_CALLS = {
    "packets": 2955,
    "iterator": 1945,
}


def q6_shaped(lo: float):
    """A selective scan-aggregate, like TPC-H q6."""
    predicate = (Col("val") >= lo) & (Col("val") < lo + 20.0) & (Col("grp") < 5)
    return Aggregate(
        TableScan("r", predicate=predicate),
        [AggSpec("sum", Col("val"), "revenue"), AggSpec("count", None, "n")],
    )


def three_staggered_scans(name):
    """``(host, run)``: a loaded system, and the scenario as a thunk."""
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

    def run():
        clients = [sim.spawn(client(i), name="client") for i in range(3)]
        sim.run_until_done(clients)
        assert all(len(c.value) == 1 and c.value[0][1] > 0 for c in clients)

    return host, run


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_three_staggered_scans_cost_exactly_this_many_kernel_entries(name):
    host, run = three_staggered_scans(name)
    run()
    assert host.disk.stats.blocks_read >= 40
    # sim._seq counts Simulator.schedule calls: every kernel entry.
    assert (host.sim._seq, host.sim.process_count) == BUDGET[name]


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_three_staggered_scans_call_into_sim_exactly_this_often(name):
    host, run = three_staggered_scans(name)
    before = host.sim._seq
    calls, _ = python_calls(run, _SIM)
    assert calls == SIM_CALLS[name]
    assert calls < 8 * (host.sim._seq - before)


# ---------------------------------------------------------------------------
# Python calls into repro.relational: O(batches), not O(rows)
# ---------------------------------------------------------------------------
JOIN_ROWS = (3_410, 2_000)  # r: 10 pages, s: 3 pages

#: engine -> Python calls into src/repro/relational/ and its generated
#: kernels for one HashJoin-under-GroupBy query, code cache warm.  With
#: per-row key lambdas the iterator and packet engines made ~5,500.
#: packets made 211 while ``QPipeEngine.execute`` computed every query's
#: plan signature for the (deleted) result cache.
RELATIONAL_CALLS = {
    "packets": 179,
    "iterator": 172,
}

def python_calls(fn, *where):
    """``(Python calls while fn() ran into files whose name contains one
    of *where*, fn())``."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_name not in _COMPREHENSIONS and any(
            part in code.co_filename for part in where
        ):
            calls += 1

    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return calls, result


def join_under_group_by(name):
    host = Host(HostConfig())
    sm = StorageManager(host, buffer_pages=POOL_PAGES)
    sm.create_table("r", cf.R_SCHEMA, clustered_on=["id"])
    sm.load_table("r", cf.make_r_rows(n=JOIN_ROWS[0]))
    sm.create_table("s", cf.S_SCHEMA)
    sm.load_table("s", cf.make_s_rows(n=JOIN_ROWS[1], r_n=JOIN_ROWS[0]))
    plan = GroupBy(
        HashJoin(TableScan("r"), TableScan("s"), "id", "rid"),
        ["grp"],
        [AggSpec("sum", Col("w"), "sw")],
    )
    return lambda: ENGINES[name](sm).run_query(plan)


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_join_under_group_by_calls_relational_per_batch_not_per_row(name):
    join_under_group_by(name)()  # every kernel shape compiled once
    calls, rows = python_calls(
        join_under_group_by(name), _RELATIONAL, "<relational.compile"
    )
    assert len(rows) == 7
    assert calls == RELATIONAL_CALLS[name]
    assert calls < min(JOIN_ROWS) // 5


# ---------------------------------------------------------------------------
# What a hash table holds: one dict entry per build row
# ---------------------------------------------------------------------------
TABLE_SCHEMA = Schema.of("k:int", "v:int")
TABLE_ROWS = 10_000
PAGE_ROWS = 341  # built a page-sized batch at a time, as the engines do

#: table -> Python version -> bytes tracemalloc sees held by a table
#: ``compile.hash_build`` fills with TABLE_ROWS rows: every key unique,
#: or 2,000 keys x 5 rows (``i % 2000``, so the first repeat arrives
#: after five unique batches).  The dict header is a word longer before
#: 3.11.  While every key filed a one-row list the unique table held
#: 1174928 (3.10: 1174936): the same dict plus 10,000 lists.
TABLE_BYTES = {
    "unique": {(3, 10): 294936, "later": 294928},
    "five_per_key": {(3, 10): 313808, "later": 313800},
}
_TABLE_KEYS = {
    "unique": range(TABLE_ROWS),
    "five_per_key": [i % 2_000 for i in range(TABLE_ROWS)],
}


def table_bytes(keys) -> int:
    # A full collection empties the interpreter's free lists, so one
    # that ran inside the window -- or just before it, as an earlier
    # test's garbage happened to trigger -- made the build's scratch
    # dict a traced allocation: 64 bytes that depended on which tests
    # ran first.  Collect once here and not again until the end.
    gc.collect()
    gc.disable()
    try:
        return _table_bytes(keys)
    finally:
        gc.enable()


def _table_bytes(keys) -> int:
    rows = [(key, i) for i, key in enumerate(keys)]
    batches = [rows[i:i + PAGE_ROWS] for i in range(0, len(rows), PAGE_ROWS)]
    build = compile.hash_build("k", TABLE_SCHEMA)
    # Every path of the kernel runs once first: before 3.11 a code
    # object keeps a finished call's frame for reuse, which must not be
    # allocated inside the window.
    build({}, [(0, 0), (0, 1)])
    build({}, [(0, 0)])
    table: dict = {}
    # Empty the list free list, so every list the build keeps is a
    # traced allocation whatever ran before.
    spare = [[] for _ in range(200)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for batch in batches:
            build(table, batch)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(compile.table_rows(table)) == len(rows) and spare
    return held


@pytest.mark.parametrize("name", sorted(TABLE_BYTES))
def test_hash_tables_hold_exactly_this_many_bytes(name):
    pins = TABLE_BYTES[name]
    want = pins.get(sys.version_info[:2], pins["later"])
    assert table_bytes(_TABLE_KEYS[name]) == want


# ---------------------------------------------------------------------------
# What a loaded index holds: one int per RID, buckets and nodes shared
# ---------------------------------------------------------------------------
#: keys -> Python version -> (bytes a loaded index of the hash tables'
#: 10,000 rows holds, bytes one adopted copy of it adds), as
#: ``tests/index_bytes.py`` measures them: order 64, packed RIDs, and
#: the copy's block list over the image's own node dicts.  Object
#: layouts differ in every minor version; "later" is 3.13.  While every
#: entry was a ``RID`` in a per-key bucket list and an adopt copied two
#: lists per node, the same index and adopt held (3.11; 3.12 and 3.13
#: within 0.01 % of it, 3.10 1-2 % lower)
#:   unique        (1759288, 240016)
#:   five_per_key  (1120752, 49640)
#: and while an adopt made one dict per node, the copy added
#: (3.10 / 3.11 / 3.12 / 3.13)
#:   unique        60076 / 48264 / 48320 / 48272
#:   five_per_key  13268 / 10816 / 10872 / 10824
INDEX_BYTES = {
    "unique": {
        (3, 10): (521748, 2828),
        (3, 11): (548664, 3032),
        (3, 12): (548576, 3088),
        "later": (548608, 3040),
    },
    "five_per_key": {
        (3, 10): (488076, 1260),
        (3, 11): (524352, 1464),
        (3, 12): (524264, 1520),
        "later": (524296, 1472),
    },
}


def index_bytes(name: str) -> tuple:
    """``tests/index_bytes.py`` in a fresh interpreter (its docstring
    says why)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, root])}
    done = subprocess.run(
        [sys.executable, "-m", "tests.index_bytes", name], cwd=root,
        env=env, capture_output=True, text=True, check=True,
    )
    return ast.literal_eval(done.stdout)


@pytest.mark.parametrize("name", sorted(INDEX_BYTES))
def test_index_trees_hold_exactly_this_many_bytes(name):
    pins = INDEX_BYTES[name]
    want = pins.get(sys.version_info[:2], pins["later"])
    assert index_bytes(name) == want


# ---------------------------------------------------------------------------
# Index lookups: the key-range kernel belongs to the index, not the scan
# ---------------------------------------------------------------------------
LOOKUPS = 25

#: engine -> Python calls into src/repro/relational/ and its generated
#: kernels for 25 clustered index lookups on one fresh system.  While
#: every IndexScan rendered ``compile.key_range`` for itself (8 frames:
#: a ``_Source``, the key expression, ``close``) the same lookups made
#:   packets 554    iterator 379
#: i.e. 24 x 8 more: only the first lookup on an index builds it now
#: (``IndexInfo.key_range``).  And while every lookup also rebuilt the
#: index's key function (``StorageManager._key_fn``: one
#: ``Schema.index_of`` per key column) instead of reading
#: ``IndexInfo.key_of``:
#:   packets 362    iterator 187
#: packets made 337 while ``QPipeEngine.execute`` computed every query's
#: plan signature for the (deleted) result cache.
LOOKUP_CALLS = {
    "packets": 212,
    "iterator": 162,
}


def index_lookups(name):
    host = Host(HostConfig())
    sm = StorageManager(host, buffer_pages=POOL_PAGES)
    sm.create_table("r", cf.R_SCHEMA, clustered_on=["id"])
    sm.load_table("r", cf.make_r_rows(n=JOIN_ROWS[0]))
    sm.create_index("r", ["id"], name="r_id", clustered=True)
    engine = ENGINES[name](sm)
    return lambda: [
        engine.run_query(
            IndexScan("r", "r_id", lo=100 * i, hi=100 * i + 40, ordered=True)
        )
        for i in range(LOOKUPS)
    ]


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_index_lookups_render_the_range_filter_once_per_index(name):
    index_lookups(name)()  # the kernel's shape compiled once
    calls, results = python_calls(
        index_lookups(name), _RELATIONAL, "<relational.compile"
    )
    assert [len(rows) for rows in results] == [41] * LOOKUPS
    assert calls == LOOKUP_CALLS[name]


# ---------------------------------------------------------------------------
# Fusion: adjacent streaming operators share a frame
# ---------------------------------------------------------------------------
LIMIT_ROWS = 9_000  # of the 9,715 rows the filter keeps: met on page 37 of 40

#: engine -> Python calls into src/repro/baseline/ for one
#: Limit(Project(Filter(TableScan))) over the 40-page table: per source
#: batch, one chain of three stages.  Before fusion was the only builder
#: the iterator engine entered three one-stage chains per batch and made
#: 914, while a second, fused tree engine made 572.  While that fused
#: engine was a transliterated second operator library
#: (``_scan_source`` / ``_drive`` / ``pull_batch`` over ``(_BATCH,
#: rows)`` markers) it made 1139 to the unfused 909, i.e. fusing cost
#: more frames than it saved.  While the stages lived in
#: ``repro/baseline/stages.py`` (now ``repro/relational/stages.py``,
#: outside this filter: three constructors, ``build_stage`` and 37
#: ``LimitStage.apply`` frames) the unfused and fused pins read 957 and
#: 615.
CHAIN_CALLS = {"iterator": 572}


def streaming_chain(name):
    host = Host(HostConfig())
    sm = StorageManager(host, buffer_pages=POOL_PAGES)
    sm.create_table("r", cf.R_SCHEMA, clustered_on=["id"])
    sm.load_table("r", cf.make_r_rows(n=ROWS))
    plan = Limit(
        Project(Filter(TableScan("r"), Col("grp") < 5), ["id", "val"]),
        LIMIT_ROWS,
    )
    return lambda: ENGINES[name](sm).run_query(plan)


@pytest.mark.parametrize("name", sorted(CHAIN_CALLS))
def test_streaming_chain_enters_the_operator_library_exactly_this_often(name):
    streaming_chain(name)()  # every kernel shape compiled once
    calls, rows = python_calls(streaming_chain(name), _BASELINE)
    assert len(rows) == LIMIT_ROWS
    assert calls == CHAIN_CALLS[name]


# ---------------------------------------------------------------------------
# The same two scenarios with no directory in the filter
# ---------------------------------------------------------------------------
#: scenario -> engine -> Python calls into all of ``repro/`` plus the
#: generated kernels, as recorded before the operator bodies moved under
#: one roof (PR 21's parent).  A pin that names a directory cannot tell
#: a frame that went away from one that crossed its boundary; this one
#: only asks that nothing got more than 1 % dearer.  After that PR:
#:   lookups  packets 8617   iterator 4777
#:   chain    packets 10154  iterator 2822
#: (the packet chain's +57: ``LimitStage.apply`` and the stage
#: constructors are frames the inlined loops did not have).  The chain's
#: iterator pin is the fused engine's 2480 since fusion became the only
#: plan builder.
ALL_CALLS_BEFORE = {
    "lookups": {"packets": 8715, "iterator": 4825},
    "chain": {"packets": 10097, "iterator": 2480},
}
_SCENARIOS = {"lookups": index_lookups, "chain": streaming_chain}


@pytest.mark.parametrize("name", sorted(ENGINES))
@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
def test_no_scenario_enters_repro_more_than_a_percent_more_often(
    scenario, name
):
    make = _SCENARIOS[scenario]
    make(name)()  # every kernel shape compiled once
    # Collecting an earlier test's engine closes its parked worker
    # generators, which the profiler sees as calls: keep the collector
    # out of the window.
    gc.collect()
    gc.disable()
    try:
        calls, _ = python_calls(make(name), _REPRO, "<relational.compile")
    finally:
        gc.enable()
    assert calls <= ALL_CALLS_BEFORE[scenario][name] * 1.01
