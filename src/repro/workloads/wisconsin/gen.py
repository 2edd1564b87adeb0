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
from typing import Dict, List

from repro.relational.schema import Schema
from repro.storage.image import load_once
from repro.storage.manager import StorageManager

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


def _rows(n: int, rng: random.Random) -> List[tuple]:
    unique1 = list(range(n))
    rng.shuffle(unique1)
    rows = []
    for unique2, u1 in enumerate(unique1):
        rows.append(
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
                f"A{u1:07d}" + "x" * 8,
                f"B{unique2:07d}" + "x" * 8,
                _STRING4[unique2 % 4],
            )
        )
    return rows


#: Memo keyed by (big_rows, seed) -- generation is a pure function of
#: them (see the TPC-H twin in :mod:`repro.workloads.tpch.dbgen`).
_GENERATED_CACHE: Dict[tuple, Dict[str, List[tuple]]] = {}
_GENERATED_CACHE_MAX = 8


def generate_wisconsin(
    scale: WisconsinScale, seed: int = 5
) -> Dict[str, List[tuple]]:
    key = (scale.big_rows, seed)
    cached = _GENERATED_CACHE.get(key)
    if cached is None:
        rng = random.Random(seed)
        cached = {
            "big1": _rows(scale.big_rows, rng),
            "big2": _rows(scale.big_rows, rng),
            "small": _rows(scale.small_rows, rng),
        }
        # Deterministic memo: the value is a pure function of the key
        # and eviction follows insertion order, so cell payloads cannot
        # observe whether the cache was warm.
        if len(_GENERATED_CACHE) >= _GENERATED_CACHE_MAX:
            _GENERATED_CACHE.pop(next(iter(_GENERATED_CACHE)))  # simlint: disable=IPR201
        _GENERATED_CACHE[key] = cached  # simlint: disable=IPR201
    return {name: list(rows) for name, rows in cached.items()}


def load_wisconsin(
    sm: StorageManager, scale: WisconsinScale, seed: int = 5
) -> Dict[str, List[tuple]]:
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
