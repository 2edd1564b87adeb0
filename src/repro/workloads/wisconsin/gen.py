"""Wisconsin benchmark tables [DeWitt 91].

The paper uses 8M-row BIG1/BIG2 and an 800K-row SMALL, all 200-byte
tuples (4.5 GB total).  The generator keeps the classic column
semantics the queries rely on:

* ``unique1`` -- values 0..n-1, randomly permuted (candidate key),
* ``unique2`` -- values 0..n-1, sequential (clustering key),
* ``onepercent``/``tenpercent`` -- unique1 mod 100 / mod 10,
* string fillers padding the declared width to 200 bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.relational.schema import Schema
from repro.storage.image import load_once
from repro.storage.manager import StorageManager
from repro.workloads import Tables, memo_tables

WISCONSIN_SCHEMA = Schema.of(
    "unique1:int",
    "unique2:int",
    "two:int",
    "four:int",
    "ten:int",
    "twenty:int",
    "onepercent:int",
    "tenpercent:int",
    "twentypercent:int",
    "fiftypercent:int",
    "unique3:int",
    "evenonepercent:int",
    "oddonepercent:int",
    "stringu1:str:52",
    "stringu2:str:52",
    "string4:str:44",
)


@dataclass(frozen=True)
class WisconsinScale:
    """Row counts; the paper's ratio big:small = 10:1 is preserved."""

    big_rows: int = 8_000
    @property
    def small_rows(self) -> int:
        return max(1, self.big_rows // 10)


_STRING4 = ("AAAAxxxx", "HHHHxxxx", "OOOOxxxx", "VVVVxxxx")


def _rows(
    n: int, rng: random.Random, ints: List[int], stringu1: List[str],
    stringu2: List[str],
) -> Tuple[tuple, ...]:
    unique1 = ints[:n]
    rng.shuffle(unique1)
    return tuple(
        (
            u1,
            unique2,
            u1 % 2,
            u1 % 4,
            u1 % 10,
            u1 % 20,
            u1 % 100,
            u1 % 10,
            u1 % 5,
            u1 % 2,
            u1,
            (u1 % 100) * 2,
            (u1 % 100) * 2 + 1,
            stringu1[u1],
            stringu2[unique2],
            _STRING4[unique2 % 4],
        )
        for unique2, u1 in zip(ints, unique1)
    )


def generate_wisconsin(
    scale: WisconsinScale, seed: int = 5
) -> Tables:
    def build() -> Tables:
        rng = random.Random(seed)
        # One object per distinct key and string, shared by the three
        # tables (DESIGN.md section 10): every row indexes these.
        ints = list(range(max(scale.big_rows, scale.small_rows)))
        domains = (
            ints,
            [f"A{i:07d}" + "x" * 8 for i in ints],
            [f"B{i:07d}" + "x" * 8 for i in ints],
        )
        return {
            "big1": _rows(scale.big_rows, rng, *domains),
            "big2": _rows(scale.big_rows, rng, *domains),
            "small": _rows(scale.small_rows, rng, *domains),
        }

    return memo_tables(("wisconsin", scale.big_rows, seed), build)


def load_wisconsin(
    sm: StorageManager, scale: WisconsinScale, seed: int = 5
) -> Tables:
    """Create and load BIG1, BIG2, SMALL; returns the raw rows.

    Built once per ``(scale, seed)`` and process, adopted after (see
    :func:`repro.storage.image.load_once`).
    """
    tables = generate_wisconsin(scale, seed=seed)

    def load() -> None:
        for name, rows in tables.items():
            sm.create_table(name, WISCONSIN_SCHEMA)
            sm.load_table(name, rows)

    load_once(("wisconsin", scale, seed, WISCONSIN_SCHEMA), [sm], load)
    return tables
