"""Shared fixtures: a small in-memory database for engine tests, and
the one whole-tree simlint pass the lint tests share."""

import pathlib
import random

import pytest

from repro.hw.host import Host, HostConfig
from repro.relational.schema import Schema
from repro.storage.manager import StorageManager

R_SCHEMA = Schema.of("id:int", "grp:int", "val:float", "tag:str:8")
S_SCHEMA = Schema.of("sid:int", "rid:int", "w:float")


def make_r_rows(n=300, seed=1):
    rng = random.Random(seed)
    return [
        (i, i % 7, round(rng.uniform(0, 100), 2), f"t{i % 4}")
        for i in range(n)
    ]


def make_s_rows(n=120, r_n=300, seed=2):
    rng = random.Random(seed)
    return [
        (i, rng.randrange(r_n), round(rng.uniform(0, 10), 2))
        for i in range(n)
    ]


@pytest.fixture
def db():
    """A loaded two-table database plus its host: (host, sm, r_rows, s_rows)."""
    host = Host(HostConfig())
    sm = StorageManager(host, buffer_pages=128, policy="lru")
    r_rows = make_r_rows()
    s_rows = make_s_rows()
    sm.create_table("r", R_SCHEMA, clustered_on=["id"])
    sm.load_table("r", r_rows)
    sm.create_index("r", ["id"], name="r_id", clustered=True)
    sm.create_index("r", ["grp"], name="r_grp")
    sm.create_table("s", S_SCHEMA)
    sm.load_table("s", s_rows)
    return host, sm, r_rows, s_rows


# A wider schema so the table spans many pages: 200 declared bytes per row
# (the Wisconsin benchmark's tuple width), ~40 rows per 8 KB page.
BIG_R_SCHEMA = Schema.of("id:int", "grp:int", "val:float", "rpad:str:184")
BIG_S_SCHEMA = Schema.of("sid:int", "rid:int", "w:float", "spad:str:185")


def make_big_r_rows(n=4000, seed=3):
    rng = random.Random(seed)
    return [
        (i, i % 10, round(rng.uniform(0, 100), 2), f"pad{i:05d}")
        for i in range(n)
    ]


def make_big_s_rows(n=1500, r_n=4000, seed=4):
    rng = random.Random(seed)
    return [
        (i, rng.randrange(r_n), round(rng.uniform(0, 10), 2), f"p{i:05d}")
        for i in range(n)
    ]


@pytest.fixture
def big_db():
    """A multi-page database for timing-sensitive OSP tests.

    Table r spans ~100 pages (a scan takes ~0.4 simulated seconds), so
    windows of opportunity are wide enough to exercise interarrival
    staggering.
    """
    host = Host(HostConfig())
    sm = StorageManager(host, buffer_pages=64, policy="lru")
    r_rows = make_big_r_rows()
    s_rows = make_big_s_rows()
    sm.create_table("r", BIG_R_SCHEMA, clustered_on=["id"])
    sm.load_table("r", r_rows)
    sm.create_index("r", ["id"], name="r_id", clustered=True)
    sm.create_table("s", BIG_S_SCHEMA, clustered_on=["rid"])
    sm.load_table("s", s_rows)
    sm.create_index("s", ["rid"], name="s_rid", clustered=True)
    return host, sm, r_rows, s_rows


@pytest.fixture(scope="session")
def src_lint():
    """``(modules, findings)`` of one simlint pass over ``src/``."""
    from repro.lint.core import collect_modules, lint_modules

    repo = pathlib.Path(__file__).resolve().parents[1]
    modules = collect_modules([str(repo / "src")], root=str(repo))
    return modules, lint_modules(modules)
