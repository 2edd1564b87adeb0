"""The operators' virtual schedules, frozen (ROADMAP item 2(A)).

The engine differentials compare the two operator libraries on *rows*.
This matrix pins what each library *schedules* for the operators the
benchmark never runs -- external sort, merge join, NL join, DISTINCT,
LIMIT, the semi/anti/outer probes, both index-scan paths and DML --
and for the hash join on a unique and on a repeating build key, in
memory and partitioned (the benchmark never spills one) -- so
an operator body can move between modules with nothing simulated
moving: per plan and engine, the rows (order included), the virtual
finish time, the disk blocks read and written, the kernel entries, the
processes spawned and the files left in the block store.

Like ``BUDGET`` in ``tests/test_kernel_budget.py`` the readings are
constants of the code.  A change that moves one is a change to
simulated behaviour and says so; to re-record, run this file as a
module (``PYTHONPATH=src python -m tests.test_operator_schedule``).
"""

import hashlib

import pytest

from repro.baseline.engine import IteratorEngine
from repro.engine.qpipe import QPipeConfig, QPipeEngine
from repro.hw.host import Host, HostConfig
from repro.relational.expressions import Col
from repro.relational.plans import (
    AntiJoin,
    DeleteRows,
    Distinct,
    Filter,
    HashJoin,
    IndexScan,
    InsertRows,
    LeftOuterJoin,
    Limit,
    MergeJoin,
    NLJoin,
    Project,
    SemiJoin,
    Sort,
    TableScan,
    UpdateRows,
)
from repro.storage.manager import StorageManager

import tests.conftest as cf

R_ROWS = 13_600  # 341 rows/page -> a 40-page table
S_ROWS = 2_000  # 512 rows/page -> 4 pages; rid drawn from 400 values
S_KEYS = 400
POOL_PAGES = 16
SPILL = 1_000  # work_mem_tuples that turns r into 14 three-page runs
IN_MEMORY = 50_000

ENGINES = {
    "packets": lambda sm, mem: QPipeEngine(
        sm, QPipeConfig(osp_enabled=True, work_mem_tuples=mem)
    ),
    "iterator": lambda sm, mem: IteratorEngine(sm, work_mem_tuples=mem),
}


def s_side(alias):
    return Sort(TableScan("s", alias=alias), [f"{alias}.rid"])


def merge_join():
    """s joined to itself on rid: ~5 rows a key on both sides."""
    return MergeJoin(s_side("a"), s_side("b"), "a.rid", "b.rid")


def unique_build():
    """r built on its unique id, probed with s.rid."""
    return HashJoin(TableScan("r"), TableScan("s"), "id", "rid")


def dup_build():
    """s built on rid (~5 rows a key), probed with r.id."""
    return HashJoin(TableScan("s"), TableScan("r"), "rid", "id")


def bump_rid(row):
    return (row[0], row[1] + 1, row[2])


#: name -> (work_mem_tuples, [(arrival time, plan thunk)]).
SCENARIOS = {
    "sort_in_memory": (IN_MEMORY, [(0.0, lambda: Sort(TableScan("r"), ["val"]))]),
    "sort_spilled": (SPILL, [(0.0, lambda: Sort(TableScan("r"), ["val"]))]),
    "sort_spilled_desc_ties": (SPILL, [
        (0.0, lambda: Sort(TableScan("r"), ["grp", "tag"], descending=True)),
    ]),
    "sort_spilled_under_limit": (SPILL, [
        (0.0, lambda: Limit(Sort(TableScan("r"), ["val"]), 1500, 100)),
    ]),
    "sort_empty": (SPILL, [
        (0.0, lambda: Sort(TableScan("r", predicate=Col("val") < 0), ["val"])),
    ]),
    "sorts_staggered": (SPILL, [
        (0.0, lambda: Sort(TableScan("r"), ["val"])),
        (0.05, lambda: Sort(TableScan("r"), ["tag", "id"], descending=True)),
    ]),
    "merge_join_spilled": (SPILL, [(0.0, merge_join)]),
    "merge_join_in_memory": (IN_MEMORY, [(0.0, merge_join)]),
    "nl_join": (IN_MEMORY, [(0.0, lambda: NLJoin(
        TableScan("r", predicate=Col("id") < 400),
        TableScan("s", predicate=Col("sid") < 700),
        Col("id") == Col("rid"),
    ))]),
    "distinct": (IN_MEMORY, [
        (0.0, lambda: Distinct(Project(TableScan("r"), ["grp", "tag"]))),
    ]),
    "limit_offset": (IN_MEMORY, [(0.0, lambda: Limit(TableScan("r"), 500, 300))]),
    "limit_zero": (IN_MEMORY, [(0.0, lambda: Limit(TableScan("r"), 0))]),
    "limit_project_filter": (IN_MEMORY, [(0.0, lambda: Limit(
        Project(Filter(TableScan("r"), Col("grp") < 5), ["id", "val"]), 9000,
    ))]),
    "semi_join": (IN_MEMORY, [
        (0.0, lambda: SemiJoin(TableScan("r"), TableScan("s"), "id", "rid")),
    ]),
    "anti_join": (IN_MEMORY, [
        (0.0, lambda: AntiJoin(TableScan("r"), TableScan("s"), "id", "rid")),
    ]),
    "left_outer_join": (IN_MEMORY, [(0.0, lambda: LeftOuterJoin(
        TableScan("r", predicate=Col("id") < 1000), TableScan("s"), "id", "rid",
    ))]),
    "hash_join_unique_build": (IN_MEMORY, [(0.0, unique_build)]),
    "hash_join_dup_build": (IN_MEMORY, [(0.0, dup_build)]),
    "hash_join_spilled": (SPILL, [(0.0, unique_build)]),
    "hash_join_dup_spilled": (SPILL, [(0.0, dup_build)]),
    "left_outer_join_unique": (IN_MEMORY, [(0.0, lambda: LeftOuterJoin(
        TableScan("s"), TableScan("r"), "rid", "id",
    ))]),
    "iscan_clustered": (IN_MEMORY, [
        (0.0, lambda: IndexScan("r", "r_id", lo=1000, hi=2500, ordered=True)),
    ]),
    "iscan_clustered_open_lo": (IN_MEMORY, [(0.0, lambda: IndexScan(
        "r", "r_id", hi=1200, predicate=Col("grp") == 3, ordered=True,
    ))]),
    "iscan_rids_ordered": (IN_MEMORY, [
        (0.0, lambda: IndexScan("s", "s_rid", lo=50, hi=120, ordered=True)),
    ]),
    "iscan_rids_unordered": (IN_MEMORY, [
        (0.0, lambda: IndexScan("s", "s_rid", lo=50, hi=120)),
    ]),
    "insert": (IN_MEMORY, [(0.0, lambda: InsertRows(
        "s", [(S_ROWS + i, i % S_KEYS, 1.5) for i in range(50)]
    ))]),
    "update": (IN_MEMORY, [
        (0.0, lambda: UpdateRows("s", Col("sid") < 300, bump_rid)),
    ]),
    "delete": (IN_MEMORY, [(0.0, lambda: DeleteRows("s", Col("sid") >= 1500))]),
}

#: scenario -> engine -> (rows digest, finished_at of each query, disk
#: blocks read, blocks written, kernel entries, processes spawned, files
#: left in the store).  Recorded at the parent of the PR that moved the
#: operator bodies under one roof; that PR left every reading as it was,
#: and so did making the iterator engine fuse every streaming run.  The
#: five hash-join scenarios were recorded while every build table was a
#: dict of arrival-order row lists; a spilled join writes its build rows
#: to temp pages in the order the table hands them back, so their
#: readings pin that order.
SCHEDULE = {
    'sort_in_memory': {
        'packets': ('888f414aa42a', (2.18345,), 40, 0, 332, 155, 4),
        'iterator': ('888f414aa42a', (2.18345,), 40, 0, 84, 1, 4),
    },
    'sort_spilled': {
        'packets': ('888f414aa42a', (2.932650000000001,), 80, 40, 453, 155, 4),
        'iterator': ('888f414aa42a', (3.4664200000000007,), 80, 40, 191, 1, 4),
    },
    'sort_spilled_desc_ties': {
        'packets': ('8be125a4cbca', (2.932650000000001,), 80, 40, 453, 155, 4),
        'iterator': ('8be125a4cbca', (3.4664200000000007,), 80, 40, 191, 1, 4),
    },
    'sort_spilled_under_limit': {
        'packets': ('356c7222905a', (2.947650000000001,), 80, 40, 437, 155, 4),
        'iterator': ('356c7222905a', (2.7268999999999997,), 54, 40, 153, 1, 4),
    },
    'sort_empty': {
        'packets': ('2075510b5c64', (0.3160000000000002,), 40, 0, 248, 155, 4),
        'iterator': ('2075510b5c64', (0.3160000000000002,), 40, 0, 83, 1, 4),
    },
    'sorts_staggered': {
        'packets': ('83492d3f6de7', (4.886380000000003, 4.982380000000003), 124, 80, 669, 156, 4),
        'iterator': ('83492d3f6de7', (4.903060000000001, 4.999060000000001), 160, 80, 382, 2, 4),
    },
    'merge_join_spilled': {
        'packets': ('a083f031f2fb', (0.7687800000000052,), 12, 8, 1813, 155, 4),
        'iterator': ('a083f031f2fb', (1.0167400000000049,), 16, 8, 439, 1, 4),
    },
    'merge_join_in_memory': {
        'packets': ('a083f031f2fb', (0.41740999999999634,), 4, 0, 1793, 155, 4),
        'iterator': ('a083f031f2fb', (0.6727200000000051,), 8, 0, 417, 1, 4),
    },
    'nl_join': {
        'packets': ('07bbb9af8a95', (2.963450000000001,), 46, 2, 284, 156, 4),
        'iterator': ('07bbb9af8a95', (3.2480400000000063,), 46, 2, 101, 1, 4),
    },
    'distinct': {
        'packets': ('e98df4ee3aa7', (0.32202000000000025,), 40, 0, 492, 155, 4),
        'iterator': ('e98df4ee3aa7', (0.5880000000000015,), 40, 0, 163, 1, 4),
    },
    'limit_offset': {
        'packets': ('bac8fe9e3b86', (0.04341000000000001,), 4, 0, 189, 155, 4),
        'iterator': ('bac8fe9e3b86', (0.04223000000000001,), 3, 0, 9, 1, 4),
    },
    'limit_zero': {
        'packets': ('2075510b5c64', (0.0,), 0, 0, 161, 154, 4),
        'iterator': ('2075510b5c64', (0.0,), 0, 0, 3, 1, 4),
    },
    'limit_project_filter': {
        'packets': ('a7624c99baac', (0.3023100000000002,), 39, 0, 732, 155, 4),
        'iterator': ('a7624c99baac', (0.5104700000000009,), 37, 0, 151, 1, 4),
    },
    'semi_join': {
        'packets': ('82d5535b57dd', (0.3796500000000005,), 44, 0, 356, 156, 4),
        'iterator': ('82d5535b57dd', (0.5280000000000011,), 44, 0, 135, 1, 4),
    },
    'anti_join': {
        'packets': ('be68b7653f06', (0.3796500000000005,), 44, 0, 470, 156, 4),
        'iterator': ('be68b7653f06', (0.5280000000000011,), 44, 0, 135, 1, 4),
    },
    'left_outer_join': {
        'packets': ('079746720199', (0.3766400000000005,), 44, 0, 286, 156, 4),
        'iterator': ('079746720199', (0.4020000000000005,), 44, 0, 98, 1, 4),
    },
    'hash_join_unique_build': {
        'packets': ('22803233a478', (0.37965000000000027,), 44, 0, 362, 156, 4),
        'iterator': ('22803233a478', (0.5280000000000009,), 44, 0, 135, 1, 4),
    },
    'hash_join_dup_build': {
        'packets': ('8ae527598001', (0.3796500000000005,), 44, 0, 356, 156, 4),
        'iterator': ('8ae527598001', (0.5280000000000011,), 44, 0, 135, 1, 4),
    },
    'hash_join_spilled': {
        'packets': ('11bcc5c4e1a4', (3.911010000000003,), 184, 140, 742, 156, 4),
        'iterator': ('11bcc5c4e1a4', (4.179999999999998,), 184, 140, 441, 1, 4),
    },
    'hash_join_dup_spilled': {
        'packets': ('14a60222f1c4', (1.9886399999999962,), 169, 125, 682, 156, 4),
        'iterator': ('14a60222f1c4', (2.0240000000000022,), 169, 125, 351, 1, 4),
    },
    'left_outer_join_unique': {
        'packets': ('5a33cb636d2b', (0.37965000000000027,), 44, 0, 362, 156, 4),
        'iterator': ('5a33cb636d2b', (0.5280000000000009,), 44, 0, 135, 1, 4),
    },
    'iscan_clustered': {
        'packets': ('d82cf355332b', (0.14387,), 10, 0, 195, 154, 4),
        'iterator': ('d82cf355332b', (0.14387,), 10, 0, 20, 1, 4),
    },
    'iscan_clustered_open_lo': {
        'packets': ('756992aeb6c7', (0.05705000000000001,), 5, 0, 182, 154, 4),
        'iterator': ('756992aeb6c7', (0.05705000000000001,), 5, 0, 13, 1, 4),
    },
    'iscan_rids_ordered': {
        'packets': ('61eb3e8d2249', (2.251950000000001,), 177, 0, 1155, 154, 4),
        'iterator': ('61eb3e8d2249', (2.251950000000001,), 177, 0, 402, 1, 4),
    },
    'iscan_rids_unordered': {
        'packets': ('fa9e6bd7f33a', (0.09147000000000004,), 7, 0, 183, 154, 4),
        'iterator': ('fa9e6bd7f33a', (0.09147000000000004,), 7, 0, 14, 1, 4),
    },
    'insert': {
        'packets': ('6bd48f555ebd', (2.4000000000000017,), 0, 100, 266, 154, 4),
        'iterator': ('6bd48f555ebd', (2.4000000000000017,), 0, 100, 104, 1, 4),
    },
    'update': {
        'packets': ('e71cbfefb0fc', (14.461999999999687,), 4, 600, 1082, 154, 4),
        'iterator': ('e71cbfefb0fc', (14.461999999999687,), 4, 600, 908, 1, 4),
    },
    'delete': {
        'packets': ('30a2a9cca707', (24.065999999999782,), 4, 1000, 1692, 154, 4),
        'iterator': ('30a2a9cca707', (24.065999999999782,), 4, 1000, 1508, 1, 4),
    },
}


def digest(value) -> str:
    return hashlib.sha1(repr(value).encode()).hexdigest()[:12]


def reading(scenario, engine_name):
    work_mem, arrivals = SCENARIOS[scenario]
    host = Host(HostConfig())
    sm = StorageManager(host, buffer_pages=POOL_PAGES)
    sm.create_table("r", cf.R_SCHEMA, clustered_on=["id"])
    sm.load_table("r", cf.make_r_rows(n=R_ROWS))
    sm.create_index("r", ["id"], name="r_id", clustered=True)
    sm.create_table("s", cf.S_SCHEMA)
    sm.load_table("s", cf.make_s_rows(n=S_ROWS, r_n=S_KEYS))
    sm.create_index("s", ["rid"], name="s_rid")
    engine = ENGINES[engine_name](sm, work_mem)
    sim = host.sim

    def client(delay, plan):
        yield sim.timeout(delay)
        result = yield from engine.execute(plan)
        return result

    clients = [
        sim.spawn(client(delay, make_plan()), name="client")
        for delay, make_plan in arrivals
    ]
    sim.run()
    results = [proc.value for proc in clients]
    # A write's result row is only a count: what it left in the heap
    # is part of what it did.
    rows = [result.rows for result in results]
    rows.append(sm.catalog.table("s").heap.all_rows())
    return (
        digest(rows),
        tuple(result.finished_at for result in results),
        host.disk.stats.blocks_read,
        host.disk.stats.blocks_written,
        sim._seq,
        sim.process_count,
        len(list(sm.store.files())),
    )


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_operator_schedule_is_exactly_the_recorded_one(scenario, engine_name):
    assert reading(scenario, engine_name) == SCHEDULE[scenario][engine_name]


def test_the_spilled_scenarios_spill_and_the_lazy_merge_stops_early():
    written = {name: SCHEDULE[name]["iterator"][3] for name in SCHEDULE}
    assert written["sort_in_memory"] == written["merge_join_in_memory"] == 0
    assert written["sort_spilled"] >= 40 and written["merge_join_spilled"] >= 8
    assert written["hash_join_unique_build"] == 0
    assert written["hash_join_spilled"] >= 40 + 4
    assert written["hash_join_dup_spilled"] >= 40 + 4
    read = {name: SCHEDULE[name]["iterator"][2] for name in SCHEDULE}
    assert read["sort_spilled_under_limit"] < read["sort_spilled"]


if __name__ == "__main__":
    print("SCHEDULE = {")
    for scenario in SCENARIOS:
        print(f"    {scenario!r}: {{")
        for engine_name in ENGINES:
            print(f"        {engine_name!r}: {reading(scenario, engine_name)!r},")
        print("    },")
    print("}")
