"""Which import loads what.

``repro.harness.config`` is what ``perf/``, the examples and any library
user import to build a system.  It must stay a light import: presets
and builders, not the 2,000-line figure registry and, through it, the
cell pool (``multiprocessing``, ``concurrent.futures``, ``subprocess``).
``repro/harness/__init__.py`` therefore resolves the registry's names on
first use (PEP 562) -- and still has to export every one of them, and
still has to show the static import graph the edge, or a cell's source
digest would silently stop covering the engines.  No harness import
loads the linter at all: ``repro.parallel.digest`` parses the files it
hashes itself, so a cell's source digest does not cover ``repro.lint``
either.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import repro.harness
from repro.parallel.digest import closure, import_graph, source_digest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

HEAVY = (
    "repro.harness.experiments",
    "repro.parallel.pool",
    "repro.parallel.cache",
    "repro.lint",
    "multiprocessing",
    "concurrent.futures",
    "subprocess",
)

#: ``closure(import_graph("src"), ["repro.harness.experiments"])``: every
#: module a figure cell's content address covers (no ``repro.lint``).  A
#: change that adds a module under the engines adds it here; none may
#: drop out unnoticed.
EXPERIMENTS_CLOSURE = """
repro repro.baseline repro.baseline.engine repro.baseline.operators
repro.engine repro.engine.buffers repro.engine.dispatcher
repro.engine.engines repro.engine.engines.aggregates
repro.engine.engines.iscan repro.engine.engines.joins
repro.engine.engines.misc repro.engine.engines.scan
repro.engine.engines.sort repro.engine.micro_engine repro.engine.packets
repro.engine.qpipe repro.engine.result_cache repro.faults
repro.faults.errors repro.faults.injector repro.faults.plan
repro.folding repro.folding.coordinator repro.folding.stats
repro.harness repro.harness.config repro.harness.experiments
repro.harness.report repro.hw repro.hw.cpu repro.hw.disk repro.hw.host
repro.hw.net repro.lineage repro.lineage.recovery
repro.lineage.tracker repro.obs
repro.obs.export repro.obs.invariants repro.obs.query_trace
repro.obs.schema repro.obs.tracer repro.osp repro.osp.circular
repro.osp.deadlock repro.osp.stats repro.osp.wop repro.parallel
repro.parallel.cache repro.parallel.cells repro.parallel.digest
repro.parallel.errors repro.parallel.pool repro.relational
repro.relational.compile repro.relational.expressions
repro.relational.joins repro.relational.plans repro.relational.schema
repro.relational.sort repro.relational.stages repro.results repro.shard
repro.shard.exchange repro.shard.executor repro.shard.merge
repro.shard.topology repro.sim repro.sim.errors repro.sim.kernel
repro.sim.sync repro.sql repro.sql.lexer repro.sql.parser
repro.sql.planner repro.storage repro.storage.btree
repro.storage.bufferpool repro.storage.catalog repro.storage.file
repro.storage.image repro.storage.locks repro.storage.log
repro.storage.manager repro.storage.page repro.storage.partition
repro.storage.replacement repro.storage.streams repro.storage.wal
repro.workloads
repro.workloads.clients repro.workloads.metrics repro.workloads.tpch
repro.workloads.tpch.dbgen repro.workloads.tpch.queries
repro.workloads.tpch.schema repro.workloads.wisconsin
repro.workloads.wisconsin.gen repro.workloads.wisconsin.queries
""".split()


def loaded_by(statement):
    code = f"import sys; {statement}; print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    )
    return set(done.stdout.split())


def test_importing_a_configuration_imports_a_configuration():
    loaded = loaded_by("import repro.harness.config")
    assert "repro.harness.config" in loaded
    assert [name for name in HEAVY if name in loaded] == []


def test_the_figure_registry_still_loads_on_first_use():
    loaded = loaded_by("from repro.harness import SMOKE, render_chaos")
    assert "repro.harness.experiments" in loaded
    assert "repro.parallel.cells" in loaded


def test_every_exported_name_resolves_and_is_listed():
    listed = dir(repro.harness)
    for name in repro.harness.__all__:
        assert getattr(repro.harness, name) is not None
        assert name in listed
    from repro.harness import FIGURES, experiments, render_chaos

    assert render_chaos is experiments.render_chaos
    assert FIGURES is experiments.FIGURES


def test_a_misspelt_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="render_chao"):
        repro.harness.render_chao
    with pytest.raises(ImportError):
        from repro.harness import render_chao  # noqa: F401


def test_a_cells_source_digest_covers_what_it_covered():
    graph = import_graph(str(SRC))
    assert "repro.harness.experiments" in graph["repro.harness"]
    assert closure(graph, ["repro.harness.experiments"]) == EXPERIMENTS_CLOSURE


def test_the_harness_loads_no_linter():
    loaded = loaded_by("import repro.harness, repro.harness.experiments")
    assert "repro.harness.experiments" in loaded
    assert [name for name in loaded if name.startswith("repro.lint")] == []


def test_a_lint_edit_leaves_every_cell_digest_alone(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    before = source_digest("repro.harness.experiments", str(src))
    with open(src / "repro" / "lint" / "core.py", "a") as fh:
        fh.write("# an edit to the linter only\n")
    assert source_digest("repro.harness.experiments", str(src)) == before
