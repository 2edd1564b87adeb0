"""The cell model: one figure data point as a spec plus a pure function.

A *cell* is the unit of parallel experiment execution: a frozen
:class:`CellSpec` naming the figure, the experiment scale, the seeds it
draws from, and its grid coordinates -- plus a pure function (registered
with :func:`cell`) that builds a fresh seeded system and returns a
JSON-serialisable payload.  Because the function is pure and the spec is
hashable, cells can run in any order, in any process, and be cached by
content address; a figure is then just a declarative list of specs and a
deterministic merge step over ``{spec: payload}``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

#: In-process registry, keyed by ``module:qualname``.  Execution does not
#: require prior registration -- :func:`resolve` falls back to importing
#: the module named in the key, which is how spawned workers (fresh
#: interpreters) find the function behind a pickled spec.
_REGISTRY: Dict[str, Callable] = {}


def fn_key(fn: Callable) -> str:
    """The registry key of a cell function: ``module:qualname``."""
    return f"{fn.__module__}:{fn.__qualname__}"


def cell(fn: Callable) -> Callable:
    """Decorator registering *fn* as a cell function."""
    _REGISTRY[fn_key(fn)] = fn
    return fn


def resolve(key: str) -> Callable:
    """The cell function behind a registry key, importing if needed."""
    hit = _REGISTRY.get(key)
    if hit is not None:
        return hit
    module_name, _, qualname = key.partition(":")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    _REGISTRY[key] = obj
    return obj


@dataclass(frozen=True)
class CellSpec:
    """One experiment data point, frozen and hashable.

    Attributes:
        figure: figure id the cell belongs to (``fig8``...).  Cells shared
            between figures (fig1b is fig12 restricted to two systems)
            carry the *owning* figure's id so the cache is shared too.
        fn: registry key of the pure cell function (``module:qualname``).
        scale: the frozen experiment :class:`~repro.harness.config.Scale`
            (any hashable dataclass works; the fabric never inspects it).
        coords: sorted ``(name, value)`` grid coordinates -- the cell's
            position in the figure (system, interarrival, client count...).
        seeds: named ``(seed_name, value)`` pairs the cell draws from,
            recorded so the spec fully describes the cell's randomness.
    """

    figure: str
    fn: str
    scale: Any
    coords: Tuple[Tuple[str, Any], ...]
    seeds: Tuple[Tuple[str, int], ...] = ()

    @property
    def coord(self) -> Dict[str, Any]:
        """The grid coordinates as a dict."""
        return dict(self.coords)

    def slug(self) -> str:
        """A deterministic, filesystem-safe identifier for the cell."""
        parts = [self.figure] + [f"{k}={v}" for k, v in self.coords]
        raw = "-".join(str(p) for p in parts)
        return re.sub(r"[^A-Za-z0-9_.=-]+", "~", raw)

    def describe(self) -> str:
        coords = ", ".join(f"{k}={v!r}" for k, v in self.coords)
        return f"{self.figure} cell [{coords}] via {self.fn} @ {_scale_name(self.scale)}"


def _scale_name(scale: Any) -> str:
    return getattr(scale, "name", repr(scale))


def coords(**kwargs: Any) -> Tuple[Tuple[str, Any], ...]:
    """Grid coordinates in canonical (sorted-by-name) order."""
    return tuple(sorted(kwargs.items()))


def fingerprint(spec: CellSpec) -> Dict[str, Any]:
    """A JSON-ready canonical description of *spec* (cache keying)."""
    scale = spec.scale
    if dataclasses.is_dataclass(scale) and not isinstance(scale, type):
        scale = dataclasses.asdict(scale)
    return {
        "figure": spec.figure,
        "fn": spec.fn,
        "scale": scale,
        "coords": [[k, v] for k, v in spec.coords],
        "seeds": [[k, v] for k, v in spec.seeds],
    }


def spec_hash(spec: CellSpec, source_digest: str) -> str:
    """The content address of a cell: spec fingerprint + source digest."""
    doc = {"spec": fingerprint(spec), "sources": source_digest}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class CellResult:
    """What one executed (or cache-served) cell produced."""

    spec: CellSpec
    payload: Any
    #: One event list per simulated host the cell built (only when the
    #: cell ran with tracing enabled).
    traces: Optional[List[List[dict]]] = None
    cached: bool = False
    attempts: int = 1


def execute_cell(spec: CellSpec, trace: bool = False) -> CellResult:
    """Run one cell in this process; the worker-side entry point.

    With ``trace=True`` the harness's tracing registry is enabled around
    the cell so every host the cell builds records packet-lifecycle
    events; the collected per-host event lists ride back on the result.
    """
    fn = resolve(spec.fn)
    if not trace:
        return CellResult(spec, fn(spec))
    # Deliberate late import: the fabric itself is harness-agnostic, but
    # tracing hooks into the harness's system builders.
    from repro.harness.config import (
        collected_tracers,
        disable_tracing,
        enable_tracing,
    )

    enable_tracing()
    try:
        payload = fn(spec)
        traces = [list(t.events) for t in collected_tracers()]
    finally:
        disable_tracing()
    return CellResult(spec, payload, traces=traces)


def run_cells_serial(
    specs: Iterable[CellSpec], trace: bool = False
) -> Dict[CellSpec, Any]:
    """Execute cells in-process, in order; returns ``{spec: payload}``.

    The zero-dependency path ``Figure.run`` takes without a runner; the
    parallel path must produce byte-identical merges.
    """
    return {spec: execute_cell(spec, trace=trace).payload for spec in specs}


def merge_payloads(
    specs: Iterable[CellSpec], results: Mapping[CellSpec, Any]
) -> List[Tuple[CellSpec, Any]]:
    """Payloads re-ordered by the declarative spec list (merge input)."""
    return [(spec, results[spec]) for spec in specs]
