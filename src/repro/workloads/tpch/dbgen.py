"""A dbgen-like synthetic TPC-H generator.

Row counts scale with a single factor; value distributions follow the
parts of dbgen's behaviour that the evaluated queries actually depend
on (date ranges and correlations, discount/quantity ranges, part type
and brand vocabularies, priority skew).  Comments are deterministic
filler -- the queries never read them, they only size the rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List

from repro.storage.image import load_once
from repro.storage.manager import StorageManager
from repro.workloads import Tables, memo_tables
from repro.workloads.tpch import schema as S


@dataclass(frozen=True)
class TpchScale:
    """Row counts per table; ``factor`` multiplies all of them.

    ``factor=1.0`` is ~60k lineitem rows, the geometry DESIGN.md
    section 5 describes; the harness default is 0.25
    (``repro.harness.config.Scale``) and tests use much less.
    """

    factor: float = 1.0

    @property
    def orders(self) -> int:
        return max(10, int(15_000 * self.factor))

    @property
    def customers(self) -> int:
        return max(5, int(1_500 * self.factor))

    @property
    def parts(self) -> int:
        return max(10, int(2_000 * self.factor))

    @property
    def suppliers(self) -> int:
        return max(3, int(100 * self.factor))


def generate_tpch(scale: TpchScale, seed: int = 1) -> Tables:
    """All eight tables as row tuples, keyed by table name."""
    return memo_tables(
        ("tpch", scale.factor, seed), lambda: _generate_tpch(scale, seed)
    )


def _generate_tpch(scale: TpchScale, seed: int) -> Tables:
    rng = random.Random(seed)
    tables: Tables = {}
    # One object per distinct stored value (DESIGN.md section 10): a
    # small-domain draw indexes the table of its domain instead of
    # making a fresh int or float, so 36k line items do not each own a
    # private 0.05 -- the duplicates never exist.  Indexing cannot
    # change a value's type or sign the way an equality-keyed pool
    # could (1 == 1.0 == True).  Unique columns (prices, order keys,
    # names) are left alone.
    ints = list(range(max(S.END_DATE, scale.parts, scale.customers) + 1))
    quantities = [float(q) for q in range(51)]
    hundredths = [round(h / 100.0, 2) for h in range(11)]

    # Each table is built as its tuple (the memo's form), with no list
    # of the same rows alive beside it.
    tables["region"] = tuple(
        (i, name) for i, name in enumerate(S.REGIONS)
    )
    tables["nation"] = tuple(
        (i, name, S.NATION_REGION[i]) for i, name in enumerate(S.NATIONS)
    )
    tables["supplier"] = tuple(
        (i + 1, f"Supplier#{i + 1:09d}", rng.randrange(len(S.NATIONS)))
        for i in range(scale.suppliers)
    )
    tables["customer"] = tuple(
        (
            i + 1,
            f"Customer#{i + 1:09d}",
            rng.randrange(len(S.NATIONS)),
            round(rng.uniform(-999.99, 9999.99), 2),
            rng.choice(S.SEGMENTS),
        )
        for i in range(scale.customers)
    )

    def part_rows() -> Iterator[tuple]:
        for i in range(scale.parts):
            partkey = i + 1
            ptype = " ".join(
                (
                    rng.choice(S.TYPE_SYLL1),
                    rng.choice(S.TYPE_SYLL2),
                    rng.choice(S.TYPE_SYLL3),
                )
            )
            brand = f"Brand#{rng.randrange(1, 6)}{rng.randrange(1, 6)}"
            retail = round(
                90000 + (partkey / 10) % 20001 + 100 * (partkey % 1000), 2
            ) / 100
            yield (
                partkey,
                f"part name {partkey}",
                f"Manufacturer#{rng.randrange(1, 6)}",
                brand,
                ptype,
                rng.randrange(1, 51),
                rng.choice(S.CONTAINERS),
                retail,
            )

    tables["part"] = parts = tuple(part_rows())

    tables["partsupp"] = tuple(
        (
            ints[p + 1],
            ints[rng.randrange(scale.suppliers) + 1],
            rng.randrange(1, 10000),
            round(rng.uniform(1.0, 1000.0), 2),
        )
        for p in range(scale.parts)
        for _copy in range(2)
    )

    # An order's row needs its line items' totals: the line items are
    # yielded into their tuple as they are drawn, the orders collected.
    orders: List[tuple] = []

    def line_rows() -> Iterator[tuple]:
        for i in range(scale.orders):
            orderkey = i + 1
            custkey = ints[rng.randrange(scale.customers) + 1]
            orderdate = ints[rng.randrange(S.START_DATE, S.END_DATE - 151)]
            year = ints[1970 + orderdate // 365]  # close enough for grouping
            priority = rng.choice(S.PRIORITIES)
            prioclass = 1 if priority[0] in "12" else 0
            n_lines = rng.randrange(1, 8)
            total = 0.0
            all_f = True
            for line_no in range(1, n_lines + 1):
                partkey = ints[rng.randrange(scale.parts) + 1]
                suppkey = ints[rng.randrange(scale.suppliers) + 1]
                quantity = quantities[rng.randrange(1, 51)]
                price = round(quantity * parts[partkey - 1][7], 2)
                discount = hundredths[rng.randrange(0, 11)]
                tax = hundredths[rng.randrange(0, 9)]
                shipdate = ints[orderdate + rng.randrange(1, 122)]
                commitdate = ints[orderdate + rng.randrange(30, 91)]
                receiptdate = ints[shipdate + rng.randrange(1, 31)]
                current = S.END_DATE - 100
                if receiptdate <= current:
                    returnflag = rng.choice(("R", "A"))
                else:
                    returnflag = "N"
                linestatus = "F" if shipdate <= current else "O"
                if linestatus != "F":
                    all_f = False
                total += price * (1 + tax) * (1 - discount)
                yield (
                    orderkey,
                    partkey,
                    suppkey,
                    line_no,
                    quantity,
                    price,
                    discount,
                    tax,
                    returnflag,
                    linestatus,
                    shipdate,
                    commitdate,
                    receiptdate,
                    rng.choice(S.SHIP_MODES),
                    "c" * 8,
                )
            status = "F" if all_f else "O"
            orders.append(
                (
                    orderkey,
                    custkey,
                    status,
                    round(total, 2),
                    orderdate,
                    year,
                    priority,
                    prioclass,
                    "c" * 8,
                )
            )

    lineitems = tuple(line_rows())
    tables["orders"] = tuple(orders)
    tables["lineitem"] = lineitems
    return tables


def load_tpch(
    sm: StorageManager,
    scale: TpchScale,
    seed: int = 1,
    with_indexes: bool = True,
) -> Tables:
    """Create, load, and index all TPC-H tables; returns the raw rows.

    Orders and lineitem are clustered on their order keys (dbgen emits
    them in that order), which is what the paper's merge-join plans for
    Q4 exploit.

    The first load of a ``(scale, seed, with_indexes)`` in a process
    builds the tables; later ones adopt its image and end in the same
    state (see :func:`repro.storage.image.load_once`).
    """
    tables = generate_tpch(scale, seed=seed)
    clustering = {
        "lineitem": ["l_orderkey"],
        "orders": ["o_orderkey"],
        "part": ["p_partkey"],
        "customer": ["c_custkey"],
    }

    def load() -> None:
        for name, schema in S.TPCH_SCHEMAS.items():
            sm.create_table(name, schema, clustered_on=clustering.get(name))
            sm.load_table(name, tables[name])
        if with_indexes:
            sm.create_index(
                "lineitem", ["l_orderkey"], name="l_orderkey_idx",
                clustered=True,
            )
            sm.create_index(
                "orders", ["o_orderkey"], name="o_orderkey_idx",
                clustered=True,
            )
            sm.create_index(
                "part", ["p_partkey"], name="p_partkey_idx", clustered=True
            )
            sm.create_index(
                "customer", ["c_custkey"], name="c_custkey_idx",
                clustered=True,
            )

    key = ("tpch", scale, seed, with_indexes, tuple(S.TPCH_SCHEMAS.items()))
    load_once(key, [sm], load)
    return tables
