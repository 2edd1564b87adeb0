"""Deterministic multi-process experiment fabric.

The DES kernel is inherently serial per virtual clock, but the figure
grids the harness regenerates are embarrassingly parallel: every data
point builds a fresh seeded system by design (DESIGN.md section 11).
This package turns one such data point into a *cell* -- a frozen,
hashable :class:`~repro.parallel.cells.CellSpec` plus a pure function --
and executes any bag of cells

* serially in-process (``jobs=1``), or
* on a spawn-context process pool (:class:`~repro.parallel.pool.PoolRunner`),

with results merged by grid coordinate so the output is byte-identical
either way, and an optional content-addressed on-disk cache
(:class:`~repro.parallel.cache.CellCache`) keyed by the cell spec plus a
digest of the source files the cell function transitively imports (a
static import graph), so reruns after unrelated edits are near-instant.
"""

from repro.parallel.cells import (
    CellResult,
    CellSpec,
    cell,
    execute_cell,
    fingerprint,
    fn_key,
    resolve,
    run_cells_serial,
)
from repro.parallel.cache import CellCache
from repro.parallel.digest import import_graph, source_digest
from repro.parallel.errors import CellError
from repro.parallel.pool import PoolRunner, PoolStats, steal_choice

__all__ = [
    "CellCache",
    "CellError",
    "CellResult",
    "CellSpec",
    "PoolRunner",
    "PoolStats",
    "cell",
    "execute_cell",
    "fingerprint",
    "fn_key",
    "import_graph",
    "resolve",
    "run_cells_serial",
    "source_digest",
    "steal_choice",
]
