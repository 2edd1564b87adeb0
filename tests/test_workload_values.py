"""The generated datasets, frozen -- and how many objects hold them.

``generate_tpch`` and ``generate_wisconsin`` are pure functions of
``(scale, seed)``: every figure, golden, digest and virtual reading
downstream is a function of the rows they return.  This file pins those
rows -- a SHA-256 over ``repr`` of every row of every table, at every
size the harness, the tests and ``perf/`` build (``repr`` tells ``1``
from ``1.0`` from ``True`` and ``0.0`` from ``-0.0``, so a field cannot
change type or sign unnoticed) -- and the ``rows_digest`` of one
``perf`` repeat of the two workloads that read the most of them, so the
generators can change *how* they make a row with nothing stored moving.

The hashes were recorded at the parent of the PR that made the
generators share field values (ISSUE 22) and hold at every commit
since.  Like ``SCHEDULE`` in ``tests/test_operator_schedule.py`` they
are constants of the code: a change that moves one changes every stored
byte and says so.  To re-record, run this file as a module
(``PYTHONPATH=src python -m tests.test_workload_values``).

What that PR changed is how many *objects* hold those rows: a
small-domain draw (a quantity, a discount, a day number, a foreign key,
a Wisconsin key or string) now indexes a table of its domain, so every
row holding the value holds the same object.  The object counts below
pin that exactly -- ``id`` of a live object is not a measurement -- and
a property over drawn scales and seeds states the rule: in the shared
columns there is one object per distinct ``(type, repr)``, and every
field has exactly its column's declared type.  The generators have no
canonicalising helper to test in isolation, by design: nothing is
looked up by equality, so ``1`` / ``1.0`` / ``True`` or ``0.0`` /
``-0.0`` cannot be taken for one another; a table is indexed by the
integer that was drawn.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.config import DEFAULT, SMOKE
from repro.workloads.tpch import TPCH_SCHEMAS, TpchScale, generate_tpch
from repro.workloads.wisconsin import (
    WISCONSIN_SCHEMA,
    WisconsinScale,
    generate_wisconsin,
)

TPCH_FACTORS = (0.08, 0.25, 0.6, 1.0)  # SMOKE, DEFAULT, perf/, perf/ dml_mix
WISCONSIN_ROWS = (1_500, 4_000, 32_000)  # SMOKE, DEFAULT, perf/ scaleout_4h
SEEDS = {"tpch": (1, DEFAULT.seed), "wisconsin": (5, DEFAULT.seed)}

#: (dataset, size, seed) -> SHA-256 over every table's name and rows.
TABLES = {
    ('tpch', 0.08, 1):
        'c525910fae0d8a7450f83eb49e1e76948ea608f67cc3e9d5c4ee10ea287eb76e',
    ('tpch', 0.08, 20050614):
        'cbd0699aba49ccb8900aef4c72ea5b3b6715433f32531ba4f0ecec757f0bfd72',
    ('tpch', 0.25, 1):
        '73fae959520151eb9f69a2621f2f82aa1bdc9baf7fff23f63abf08a18a6dbee7',
    ('tpch', 0.25, 20050614):
        'f508aa2dc16130ddbbcd3b6af560a22e672dcbe0dd181668a6bbadd95d5c1399',
    ('tpch', 0.6, 1):
        '4ebae7aa1e2c996a9d152a11bd522531e860257f72a3f1a9ffad998adec8e20a',
    ('tpch', 0.6, 20050614):
        '9a154400e860911e5ee924f7175aae33ad7127f4abbe76eb979a3a4370d702be',
    ('tpch', 1.0, 1):
        '48ef50e2910a19940625236fec2ae7fafc55e3cc078ff024684c5d38b55adfa8',
    ('tpch', 1.0, 20050614):
        '69fb023dd6b79ed4e1267fe740b2dbf99ceff43a10e5fb0270df0d4f5405b7d4',
    ('wisconsin', 1500, 5):
        '25dba9566c484ec8b8143c150d240664977e5ea5c0430ad8e3ec83374beb8b4f',
    ('wisconsin', 1500, 20050614):
        'c3717800c5206c8b705d3aced763fbcdae0bce9bd81512a0e557508a8ecb58cd',
    ('wisconsin', 4000, 5):
        '551abb219675bbf6676cd63e9761344083834b9950e062daf517035ba3a12555',
    ('wisconsin', 4000, 20050614):
        '4d95b5e160270ed5026f81419ce15e25a5abd1cc8f702ba2443776d0d1d9669c',
    ('wisconsin', 32000, 5):
        'cfca8c7473920f08ddc48d1f05d30ada20c39237cd4037ce54283a7680561f86',
    ('wisconsin', 32000, 20050614):
        '815aa2b3cc4ec8ed27db32585d40ef1ce5c8642266eea0cc312eec79fed8a554',
}

#: workload -> ``rows_digest`` of one repeat at ``--seed 1``.
ROWS_DIGEST = {
    'scan_share':
        '13a097c66fda35ed52c053e60394f848f6c884baba9f2f2bb930ea8491a07a3c',
    'scaleout_4h':
        '9f2fd9ba00b54f31b7ce0600a135bb3b870be094d8792ad2278908c44ca3f504',
}

#: Distinct objects among the field values at SMOKE scale: LINEITEM's
#: 4,796 rows x 15 fields (35,282 at the parent, where every float, day
#: number and key above 256 was its own object) and BIG1 + BIG2 (11,233
#: at the parent; now 1,500 keys + 2 x 1,500 strings + 4, held by both).
LINEITEM_OBJECTS = 8_483
BIG_OBJECTS = 4_504

#: The columns whose values come from a small domain.
SHARED = {
    "lineitem": (
        "l_partkey", "l_suppkey", "l_quantity", "l_discount", "l_tax",
        "l_shipdate", "l_commitdate", "l_receiptdate",
    ),
    "orders": ("o_custkey", "o_orderdate", "o_year"),
    "partsupp": ("ps_partkey", "ps_suppkey"),
    "big1": ("unique1", "unique2", "unique3", "stringu1", "stringu2"),
}
SHARED["big2"] = SHARED["small"] = SHARED["big1"]
PYTHON_TYPE = {"int": int, "date": int, "float": float, "str": str}


def generate(dataset, size, seed):
    if dataset == "tpch":
        return generate_tpch(TpchScale(size), seed=seed)
    return generate_wisconsin(WisconsinScale(big_rows=size), seed=seed)


def tables_digest(tables) -> str:
    h = hashlib.sha256()
    for name in sorted(tables):
        h.update(name.encode())
        for row in tables[name]:
            h.update(repr(row).encode())
    return h.hexdigest()


def rows_digest(workload_name) -> str:
    from perf import measure
    from perf.workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    repeat, _, _ = measure.run_repeat(workload, workload.clients(1))
    assert repeat.errors == []
    return repeat.exact["rows_digest"]


def distinct_objects(*tables) -> int:
    return len({id(v) for rows in tables for row in rows for v in row})


def smoke_lineitem():
    return generate("tpch", SMOKE.tpch_factor, SMOKE.seed)["lineitem"]


def smoke_bigs():
    tables = generate("wisconsin", SMOKE.wisconsin_big_rows, SMOKE.seed)
    return tables["big1"], tables["big2"]


KEYS = [
    (dataset, size, seed)
    for dataset, sizes in (("tpch", TPCH_FACTORS), ("wisconsin", WISCONSIN_ROWS))
    for size in sizes
    for seed in SEEDS[dataset]
]


@pytest.mark.parametrize("dataset,size,seed", KEYS)
def test_every_generated_row_is_the_recorded_one(dataset, size, seed):
    tables = generate(dataset, size, seed)
    assert tables_digest(tables) == TABLES[dataset, size, seed]


@pytest.mark.parametrize("workload_name", sorted(ROWS_DIGEST))
def test_a_perf_repeat_returns_the_recorded_rows(workload_name):
    assert rows_digest(workload_name) == ROWS_DIGEST[workload_name]


def test_distinct_field_objects_are_exactly_the_recorded_count():
    assert distinct_objects(smoke_lineitem()) == LINEITEM_OBJECTS
    assert distinct_objects(*smoke_bigs()) == BIG_OBJECTS


def check_shared_and_typed(tables, schemas):
    shared = []
    for name, rows in tables.items():
        schema = schemas[name]
        types = [PYTHON_TYPE[column.type] for column in schema.columns]
        for row in rows:
            # ``is``, not isinstance: a bool is not an int here.
            assert [type(v) for v in row] == types, (name, row)
        columns = [schema.index_of(c) for c in SHARED.get(name, ())]
        shared += [row[c] for row in rows for c in columns]
    values = {(type(v), repr(v)) for v in shared}
    assert len({id(v) for v in shared}) == len(values)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32))
def test_tpch_shares_one_typed_object_per_distinct_value(thousandths, seed):
    tables = generate("tpch", thousandths / 1000.0, seed)
    check_shared_and_typed(tables, TPCH_SCHEMAS)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 600), st.integers(0, 2**32))
def test_wisconsin_shares_one_typed_object_per_distinct_value(big_rows, seed):
    tables = generate("wisconsin", big_rows, seed)
    check_shared_and_typed(tables, dict.fromkeys(tables, WISCONSIN_SCHEMA))


if __name__ == "__main__":
    print("TABLES = {")
    for key in KEYS:
        print(f"    {key!r}:\n        {tables_digest(generate(*key))!r},")
    print("}")
    print("ROWS_DIGEST = {")
    for name in ROWS_DIGEST:
        print(f"    {name!r}:\n        {rows_digest(name)!r},")
    print("}")
    print(f"LINEITEM_OBJECTS = {distinct_objects(smoke_lineitem()):_}")
    print(f"BIG_OBJECTS = {distinct_objects(*smoke_bigs()):_}")
