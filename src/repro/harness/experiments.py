"""One experiment per figure: a *cell* function and one ``FIGURES`` entry.

Every figure is declared once (DESIGN.md section 11):

* a **cell function** (registered with :func:`repro.parallel.cells.cell`)
  builds a fresh seeded system for one data point and returns a
  JSON-serialisable payload -- cells are pure, so they can run in any
  order, in any process, and be cached by content address;
* a :class:`Figure` entry in :data:`FIGURES` names that function, the
  default sweep axes, the scale regime and seeds its specs carry, a
  ``reduce(specs, payloads)`` to the structured value tests read
  (ordered by the spec list alone -- never by completion order -- so
  serial and parallel runs render byte-identically) and a
  ``render(value)``.

``FIGURES[name].run(scale, **axes)`` runs the cells serially in-process;
``python -m repro.harness --jobs N`` hands the same call its
:class:`~repro.parallel.pool.PoolRunner`.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.harness.config import (
    CHAOS_QUERY_SEED_BASE,
    CLIENT_SEED_BASE,
    FIG_QUERY_SEED,
    FOLD_QUERY_SEED,
    SHARED_PARAM_SEED,
    SMOKE,
    Scale,
    build_tpch_system,
    build_wisconsin_system,
)
from repro.harness.report import Series, render_breakdown
from repro.parallel.cells import CellSpec, cell, coords, fn_key, run_cells_serial
from repro.relational.expressions import AggSpec, Between, Col
from repro.relational.plans import Aggregate, GroupBy, HashJoin, TableScan
from repro.workloads.clients import ClosedLoopClient, mixed_tpch_factory, run_workload
from repro.workloads.tpch import queries as Q
from repro.workloads.wisconsin import three_way_join

#: Paper section 5.3 / Figure 12 query mix.
MIX = ("q1", "q4", "q6", "q8", "q12", "q13", "q14", "q19")

INTERARRIVALS = (0, 10, 20, 40, 60, 80, 100, 120, 140)

FIG8_INTERARRIVALS = (0, 10, 20, 40, 60, 80, 100)

Payloads = Mapping[CellSpec, Any]


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------
def _run_staggered(host, engine, plans: Sequence, delays: Sequence[float]):
    """Submit one query per plan at the given delays; returns results."""
    procs = []

    def client(plan, delay):
        yield host.sim.timeout(delay)
        result = yield from engine.execute(plan)
        return result

    for plan, delay in zip(plans, delays):
        procs.append(host.sim.spawn(client(plan, delay), name="client"))
    host.sim.run_until_done(procs)
    return [p.value for p in procs]


def _makespan(queries) -> float:
    return max(q.finished_at for q in queries) - min(
        q.submitted_at for q in queries
    )


def _limited_buffers(scale: Scale) -> Scale:
    """Figures 4/9-11 run in the paper's limited-buffer regime: a small
    fan-out replay ring, so step windows actually close and the
    order-sensitive split / scan-only sharing regimes become visible."""
    from repro.harness.config import with_overrides

    return with_overrides(
        scale,
        replay_tuples=min(scale.replay_tuples, 16),
        buffer_tuples=min(scale.buffer_tuples, 1024),
    )


# ---------------------------------------------------------------------------
# The figure table's row type and the reducers most rows share
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Figure:
    """One experiment, declared once.

    Attributes:
        name: the CLI name (``fig8``, ``ablation-replay``...).
        cell: the ``@cell`` function every grid point runs.
        axes: the default sweep, ``{coordinate: values}``; the grid is
            their product in declared order (the last axis varies
            fastest).  A value that is a dict sets several coordinates
            that move together (the wrap-around ablation's mode/wrap).
        reduce: ``(specs, payloads) -> value``, the structured result.
        render: ``value -> str``, what the CLI prints.
        fixed: coordinates every point carries (``clients=10``).
        also: extra points appended after the grid (a reference run).
        seeds: the seed tuple the specs record, or ``(scale, point) ->
            tuple`` when it depends on the grid point.
        regime: the scale transform the cells run under.
        figure: the ``CellSpec.figure`` id when it is not ``name`` (fig1b
            is fig12's cells, so the two share cache entries).
        failed: ``value -> bool``; True makes the CLI exit non-zero.
    """

    name: str
    cell: Callable[[CellSpec], Any]
    axes: Mapping[str, Sequence]
    reduce: Callable[[Sequence[CellSpec], Payloads], Any]
    render: Callable[[Any], str] = Series.render
    fixed: Mapping[str, Any] = field(default_factory=dict)
    also: Sequence[Mapping[str, Any]] = ()
    seeds: Any = ()
    regime: Callable[[Scale], Scale] = lambda scale: scale
    figure: Optional[str] = None
    failed: Callable[[Any], bool] = lambda value: False

    def specs(self, scale: Scale = SMOKE, **sweep) -> List[CellSpec]:
        """The grid in sweep order; *sweep* replaces an axis's values or
        a fixed coordinate's value by name."""
        unknown = set(sweep) - set(self.axes) - set(self.fixed)
        if unknown:
            raise TypeError(f"{self.name} has no axis {sorted(unknown)[0]!r}")
        fixed = {name: sweep.get(name, v) for name, v in self.fixed.items()}
        points = []
        for combo in itertools.product(
            *(sweep.get(name, values) for name, values in self.axes.items())
        ):
            point = dict(fixed)
            for name, value in zip(self.axes, combo):
                point.update(value if isinstance(value, dict) else {name: value})
            points.append(point)
        points += [{**fixed, **extra} for extra in self.also]
        scale = self.regime(scale)
        return [
            CellSpec(
                self.figure or self.name, fn_key(self.cell), scale,
                coords(**point),
                seeds=(
                    self.seeds(scale, point) if callable(self.seeds)
                    else self.seeds
                ),
            )
            for point in points
        ]

    def run(self, scale: Scale = SMOKE, runner=None, **sweep):
        """Execute the grid and reduce it: serially in-process, or on
        *runner* (a :class:`~repro.parallel.pool.PoolRunner`)."""
        specs = self.specs(scale, **sweep)
        if runner is None:
            payloads = run_cells_serial(specs)
        else:
            payloads = {s: r.payload for s, r in runner.run(specs).items()}
        return self.reduce(specs, payloads)


SYSTEM_LABELS = {
    "qpipe": "QPipe w/OSP",
    "baseline": "Baseline",
    "dbmsx": "DBMS X",
}


def _series(title: str, x_label: str, y_label: str, x: Optional[str],
            curve=lambda c: SYSTEM_LABELS[c["system"]]):
    """The common reducer: one :class:`Series`, each cell a point at
    coordinate *x* on the curve ``curve(coord)`` names.  The title may
    quote fixed coordinates (``{clients}``); with ``x=None`` a payload is
    a list of ``[x, y]`` points."""

    def reduce(specs: Sequence[CellSpec], payloads: Payloads) -> Series:
        series = Series(
            title.format(**specs[0].coord) if specs else title,
            x_label, y_label,
        )
        for spec in specs:
            c = spec.coord
            points = payloads[spec] if x is None else [(c[x], payloads[spec])]
            for px, py in points:
                series.add_point(curve(c), px, py)
        return series

    return reduce


def _keyed(axis: str):
    """Reducer: ``{coordinate value: payload}`` in sweep order."""
    return lambda specs, payloads: {
        spec.coord[axis]: payloads[spec] for spec in specs
    }


# ---------------------------------------------------------------------------
# Figure 1a: time breakdown of five TPC-H queries by table read
# ---------------------------------------------------------------------------
FIG1A_QUERIES = ("Q8", "Q12", "Q13", "Q14", "Q19")
FIG1A_TRACKED = ("lineitem", "orders", "part")


@cell
def fig1a_cell(spec: CellSpec) -> Dict[str, float]:
    """Per-table share of disk read time for one query, solo."""
    c = spec.coord
    name = c["query"]
    builder = Q.QUERY_BUILDERS[name.lower()]
    host, sm, engine = build_tpch_system(spec.scale, "dbmsx")
    file_to_table = {sm.table_file_id(t): t for t in sm.catalog.tables()}
    before = host.disk.stats.snapshot()
    host.sim.spawn(engine.execute(builder(random.Random(FIG_QUERY_SEED))))
    host.sim.run()
    delta = host.disk.stats.delta(before)
    total = sum(t for _b, t in delta.per_file.values()) or 1.0
    fractions = {"other": 0.0}
    for fid, (_blocks, time) in delta.per_file.items():
        table = file_to_table.get(fid)
        if table in FIG1A_TRACKED:
            fractions[table] = fractions.get(table, 0.0) + time / total
        else:
            fractions["other"] += time / total
    return fractions


# ---------------------------------------------------------------------------
# Figure 4: measured window-of-opportunity curves
# ---------------------------------------------------------------------------
FIG4_POINTS = (0.0, 0.25, 0.5, 0.75, 0.95)

#: The two queries of each pair differ in their ROOT aggregate so that
#: sharing can only happen at the operator under test (a shared root
#: would trivially yield a full overlap for every class).
_FIG4_AGGS = {
    "a": [AggSpec("count", None, "n")],
    "b": [AggSpec("sum", Col("l_quantity"), "s")],
}


def _fig4_scan_plan(flavor, ordered):
    return Aggregate(
        TableScan("lineitem", ordered=ordered), _FIG4_AGGS[flavor]
    )


def _fig4_full_plan(flavor):
    # The single aggregate itself is the measured operator, so the
    # pair is identical here: full overlap across the whole lifetime.
    return Aggregate(
        TableScan("lineitem"), [AggSpec("sum", Col("l_quantity"), "s")]
    )


def _fig4_step_plan(flavor):
    # Hash join: full during ORDERS build, step once probing starts.
    return GroupBy(
        HashJoin(
            TableScan("orders"),
            TableScan("lineitem"),
            "o_orderkey",
            "l_orderkey",
        ),
        ["o_orderpriority"],
        _FIG4_AGGS[flavor],
    )


FIG4_CLASSES = {
    "linear(scan)": lambda flavor: _fig4_scan_plan(flavor, False),
    "full(aggregate)": _fig4_full_plan,
    "step(hash-join)": _fig4_step_plan,
    "spike(ordered scan)": lambda flavor: _fig4_scan_plan(flavor, True),
}


@cell
def fig4_cell(spec: CellSpec) -> List[List[float]]:
    """One overlap class: solo baseline plus every progress point.

    Cost is measured in *eliminated disk blocks*: a gain of 1 means Q2
    caused no additional I/O at all.
    """
    make_plan = FIG4_CLASSES[spec.coord["klass"]]
    progress_points = spec.coord["progress_points"]
    # Solo baseline.
    host, sm, engine = build_tpch_system(spec.scale, "qpipe")
    before = host.disk.stats.blocks_read
    solo = _run_staggered(host, engine, [make_plan("b")], [0.0])[0]
    solo_blocks = host.disk.stats.blocks_read - before
    solo_duration = solo.response_time
    points: List[List[float]] = []
    for progress in progress_points:
        host, sm, engine = build_tpch_system(spec.scale, "qpipe")
        plans = [make_plan("a"), make_plan("b")]
        _run_staggered(host, engine, plans, [0.0, progress * solo_duration])
        pair_blocks = host.disk.stats.blocks_read
        extra = max(0, pair_blocks - solo_blocks)
        gain = max(0.0, 1.0 - extra / max(1, solo_blocks))
        points.append([round(progress, 2), round(gain, 3)])
    return points


# ---------------------------------------------------------------------------
# Figure 8: disk blocks read vs interarrival time (2/4/8 clients of Q6)
# ---------------------------------------------------------------------------
@cell
def fig8_cell(spec: CellSpec) -> int:
    """Total disk blocks read by N staggered Q6 clients on one system."""
    c = spec.coord
    host, sm, engine = build_tpch_system(spec.scale, c["system"])
    plans = [
        Q.q6(random.Random(CLIENT_SEED_BASE + i)) for i in range(c["count"])
    ]
    delays = [i * c["gap"] for i in range(c["count"])]
    _run_staggered(host, engine, plans, delays)
    return host.disk.stats.blocks_read


def _fig8_series(
    specs: Sequence[CellSpec], payloads: Payloads
) -> Dict[int, Series]:
    """``{client count: Series}``, counts in sweep order."""
    reduce = _series(
        "Figure 8 ({count} clients): disk blocks read",
        "interarrival (s)", "total disk blocks read", x="gap",
    )
    counts = dict.fromkeys(spec.coord["count"] for spec in specs)
    return {
        count: reduce(
            [s for s in specs if s.coord["count"] == count], payloads
        )
        for count in counts
    }


# ---------------------------------------------------------------------------
# Figures 9-11: two staggered queries, total response time
# ---------------------------------------------------------------------------
def _big_range(scale: Scale) -> int:
    return max(100, scale.wisconsin_big_rows // 2)


#: Per figure: the system builder and the two queries (by scale).
TWO_QUERY = {
    "fig9": (build_tpch_system, lambda scale: [
        Q.q4_merge(random.Random(SHARED_PARAM_SEED), flavor="count"),
        Q.q4_merge(random.Random(SHARED_PARAM_SEED), flavor="sum"),
    ]),
    "fig10": (build_wisconsin_system, lambda scale: [
        three_way_join(_big_range(scale), Col("onepercent") < 50),
        three_way_join(_big_range(scale), Col("onepercent") >= 50),
    ]),
    "fig11": (build_tpch_system, lambda scale: [
        Q.q4_hash(random.Random(SHARED_PARAM_SEED), flavor="count"),
        Q.q4_hash(random.Random(SHARED_PARAM_SEED), flavor="sum"),
    ]),
}


def two_query_results(spec: CellSpec) -> List:
    """The two staggered queries' results at one fig9-11 grid point (the
    cells keep the makespan; the row-agreement test compares the rows)."""
    c = spec.coord
    build_system, make_plans = TWO_QUERY[spec.figure]
    host, sm, engine = build_system(spec.scale, c["system"])
    return _run_staggered(
        host, engine, make_plans(spec.scale), [0.0, c["gap"]]
    )


def _two_query_makespan(spec: CellSpec) -> float:
    return round(_makespan(two_query_results(spec)), 1)


@cell
def fig9_cell(spec: CellSpec) -> float:
    """Two TPC-H Q4 instances with merge-joins over clustered index
    scans: order-sensitive scan sharing via the 4.3.2 two-pass split."""
    return _two_query_makespan(spec)


@cell
def fig10_cell(spec: CellSpec) -> float:
    """Two Wisconsin 3-way sort-merge joins sharing the BIG1/BIG2 sort
    (full overlap) and merge (step overlap) subtrees."""
    return _two_query_makespan(spec)


@cell
def fig11_cell(spec: CellSpec) -> float:
    """Two TPC-H Q4 instances with hybrid hash joins: build-phase
    sharing first, then scan-only sharing once probing starts."""
    return _two_query_makespan(spec)


# ---------------------------------------------------------------------------
# Figures 1b/12: throughput vs number of clients, three systems
# ---------------------------------------------------------------------------
FIG12_SYSTEMS = ("qpipe", "baseline", "dbmsx")


@cell
def fig12_cell(spec: CellSpec) -> float:
    """TPC-H mix throughput (queries/hour) at one client count."""
    c = spec.coord
    scale = spec.scale
    host, sm, engine = build_tpch_system(scale, c["system"])
    builders = [Q.QUERY_BUILDERS[name] for name in MIX]
    factory = mixed_tpch_factory(builders)
    clients = [
        ClosedLoopClient(
            i,
            factory,
            queries=scale.queries_per_client,
            think_time=0.0,
            start_delay=i * scale.client_stagger,
        )
        for i in range(c["count"])
    ]
    metrics = run_workload(engine, clients, seed=scale.seed + c["count"])
    return round(metrics.throughput_qph, 1)


# ---------------------------------------------------------------------------
# Figure 13: average response time vs think time, 10 clients
# ---------------------------------------------------------------------------
@cell
def fig13_cell(spec: CellSpec) -> float:
    """Average response time of the TPC-H mix at one think time."""
    c = spec.coord
    scale = spec.scale
    builders = [Q.QUERY_BUILDERS[name] for name in MIX]
    # Think time only matters between consecutive queries of one client.
    queries = max(3, scale.queries_per_client)
    host, sm, engine = build_tpch_system(scale, c["system"])
    factory = mixed_tpch_factory(builders)
    clients = [
        ClosedLoopClient(
            i,
            factory,
            queries=queries,
            think_time=c["think"],
            start_delay=i * scale.client_stagger,
        )
        for i in range(c["clients"])
    ]
    metrics = run_workload(engine, clients, seed=scale.seed)
    return round(metrics.avg_response_time, 1)


# ---------------------------------------------------------------------------
# Section 5 claim: negligible OSP coordinator overhead
# ---------------------------------------------------------------------------
@cell
def osp_overhead_cell(spec: CellSpec) -> float:
    """Makespan of back-to-back mixed queries on one system."""
    c = spec.coord
    scale = spec.scale
    builders = [Q.QUERY_BUILDERS[name] for name in MIX]
    host, sm, engine = build_tpch_system(scale, c["system"])
    client = ClosedLoopClient(
        0, mixed_tpch_factory(builders), queries=c["queries"]
    )
    metrics = run_workload(engine, [client], seed=scale.seed)
    return metrics.makespan


def _overhead(specs: Sequence[CellSpec], payloads: Payloads) -> Dict[str, float]:
    by_system = _keyed("system")(specs, payloads)
    with_osp = by_system["qpipe"]
    without = by_system["baseline"]
    return {
        "makespan_osp_on": with_osp,
        "makespan_osp_off": without,
        "overhead_ratio": with_osp / without if without else 1.0,
    }


def _render_overhead(result: Dict[str, float]) -> str:
    return (
        "OSP coordinator overhead (no sharing opportunities):\n"
        f"  makespan OSP on : {result['makespan_osp_on']:.1f} s\n"
        f"  makespan OSP off: {result['makespan_osp_off']:.1f} s\n"
        f"  ratio           : {result['overhead_ratio']:.4f}"
    )


# ---------------------------------------------------------------------------
# Ablations (DESIGN.md section 4)
# ---------------------------------------------------------------------------
@cell
def ablation_policy_cell(spec: CellSpec) -> int:
    """Blocks read by N staggered Q6 clients under one pool policy (or
    the QPipe w/OSP reference when ``kind == "reference"``)."""
    c = spec.coord
    scale = spec.scale
    plans = [
        Q.q6(random.Random(CLIENT_SEED_BASE + i)) for i in range(c["clients"])
    ]
    delays = [i * c["interarrival"] for i in range(c["clients"])]
    if c["kind"] == "reference":
        host, sm, engine = build_tpch_system(scale, "qpipe")
    else:
        from repro.harness.config import make_engine
        from repro.harness.config import _estimate_lineitem_pages, _host_for_pages
        from repro.storage.manager import StorageManager
        from repro.workloads.tpch import TpchScale, load_tpch

        host = _host_for_pages(scale, _estimate_lineitem_pages(scale))
        sm = StorageManager(
            host, buffer_pages=scale.buffer_pages, policy=c["policy"],
            use_scan_ring=False,
        )
        load_tpch(sm, TpchScale(scale.tpch_factor), seed=scale.seed)
        engine = make_engine(sm, scale, "baseline")
    _run_staggered(host, engine, plans, delays)
    return host.disk.stats.blocks_read


def _policies_series(specs: Sequence[CellSpec], payloads: Payloads) -> Series:
    """The policy grid as one Baseline curve; the QPipe w/OSP reference
    run is recorded as a note."""
    grid = [s for s in specs if s.coord["kind"] == "policy"]
    series = _series(
        "Ablation: buffer replacement policy vs blocks read "
        "({clients} Q6 clients, {interarrival:.0f}s apart)",
        "policy", "total disk blocks read", x="policy",
        curve=lambda c: "Baseline",
    )(grid, payloads)
    for spec in specs:
        if spec.coord["kind"] == "reference":
            series.notes.append(
                f"QPipe w/OSP (lru) reads {payloads[spec]} blocks"
            )
    return series


@cell
def ablation_wraparound_cell(spec: CellSpec) -> int:
    """Blocks read with circular wrap-around on or off."""
    c = spec.coord
    host, sm, engine = build_tpch_system(spec.scale, "qpipe")
    engine.config.circular_wraparound = c["wrap"]
    plans = [
        Q.q6(random.Random(CLIENT_SEED_BASE + i)) for i in range(c["clients"])
    ]
    delays = [i * c["gap"] for i in range(c["clients"])]
    _run_staggered(host, engine, plans, delays)
    return host.disk.stats.blocks_read


@cell
def ablation_late_activation_cell(spec: CellSpec) -> Dict[str, float]:
    """Makespan / blocks / detaches with late activation on or off."""
    c = spec.coord
    host, sm, engine = build_tpch_system(spec.scale, "qpipe")
    engine.config.late_activation = c["late"]
    plans = [
        Q.q4_hash(random.Random(SHARED_PARAM_SEED), "count" if i % 2 else "sum")
        for i in range(c["clients"])
    ]
    delays = [i * 5.0 for i in range(c["clients"])]
    results = _run_staggered(host, engine, plans, delays)
    return {
        "makespan": round(_makespan(results), 1),
        "blocks": host.disk.stats.blocks_read,
        "detaches": engine.osp_stats.scan_detaches,
    }


def _late_activation_series(
    specs: Sequence[CellSpec], payloads: Payloads
) -> Series:
    series = Series(
        title="Ablation: late activation of scan packets",
        x_label="policy",
        y_label="value",
    )
    for spec in specs:
        label = f"late-activation {spec.coord['label']}"
        payload = payloads[spec]
        series.add_point(label, "makespan (s)", payload["makespan"])
        series.add_point(label, "blocks read", payload["blocks"])
        series.add_point(label, "scan detaches", payload["detaches"])
    return series


@cell
def ablation_replay_cell(spec: CellSpec) -> int:
    """Hash-join attaches at one fan-out replay ring size."""
    from repro.harness.config import with_overrides

    c = spec.coord
    sized = with_overrides(spec.scale, replay_tuples=max(1, c["ring"]))
    host, sm, engine = build_tpch_system(sized, "qpipe")
    plans = [
        Q.q4_hash(random.Random(SHARED_PARAM_SEED), flavor="count"),
        Q.q4_hash(random.Random(SHARED_PARAM_SEED), flavor="sum"),
    ]
    _run_staggered(host, engine, plans, [0.0, c["interarrival"]])
    return engine.osp_stats.attaches["hashjoin"]


# ---------------------------------------------------------------------------
# Generalized sharing: fold similar (not identical) concurrent queries
# ---------------------------------------------------------------------------
#: Arrival stagger (seconds) between the fold workload's queries.  Late
#: arrivals are where folding wins: an OSP circular scan admits them
#: mid-file and makes them wait for the wrap-around pass, while a fold
#: member replays the missed prefix from the group's survivor ring for
#: free and leaves with the group.
FOLD_STAGGER = 5.0

_FOLD_AGGS = (
    AggSpec("sum", Col("unique2"), "s"),
    AggSpec("count", Col("unique1"), "c"),
)


def _fold_workload(
    count: int, similarity: float, rng: random.Random, reject: bool = False
):
    """*count* queries over ``big1``; ``round(count * similarity)`` are
    fold-eligible.

    The similar cohort is a predicate-subsumption chain -- ``Between``
    ranges shrinking with arrival order, so the first (widest) query
    hosts and every later one is subsumed -- mixing whole-query
    ``Aggregate`` folds with ``GroupBy``-rooted queries whose *scan*
    folds as a member.  The dissimilar remainder runs order-sensitive
    scans of the same ranges: ineligible for folding (and for circular
    sharing), identical in both arms.  With *reject*, one more query
    arrives last: an unordered ``Aggregate`` over a range the chain's
    widest predicate does not cover, which the open group turns away
    (``window-closed``) and which shares the circular scan unfolded.
    """
    n_similar = int(round(count * similarity))
    plans = []
    for i in range(count):
        hi = 1400 - 100 * i
        pred = Between(Col("unique1"), 0, hi)
        aggs = [AggSpec(rng.choice(("sum", "min", "max")),
                        Col("unique2"), "a"), _FOLD_AGGS[1]]
        if i >= n_similar:
            plans.append(
                Aggregate(TableScan("big1", pred, ordered=True), aggs)
            )
        elif i % 3 == 2:
            plans.append(
                GroupBy(TableScan("big1", pred), ["tenpercent"], aggs)
            )
        else:
            plans.append(Aggregate(TableScan("big1", pred), aggs))
    if reject:
        plans.append(Aggregate(
            TableScan("big1", Between(Col("unique1"), 1450, 1499)),
            list(_FOLD_AGGS),
        ))
    return plans


@cell
def fold_cell(spec: CellSpec) -> Dict[str, Any]:
    """Makespan + sharing counters + result digest for one fold config.

    The digest covers every query's full result rows; equal digests for
    the folded and unfolded arms of a config prove byte-identical
    per-query results (the fold-invariance acceptance check).
    """
    c = spec.coord
    host, sm, engine = build_wisconsin_system(spec.scale, "qpipe")
    engine.config.fold_enabled = c["folded"]
    rng = random.Random(FOLD_QUERY_SEED)
    plans = _fold_workload(c["count"], c["similarity"], rng, c["reject"])
    delays = [i * c["stagger"] for i in range(len(plans))]
    results = _run_staggered(host, engine, plans, delays)
    digest = hashlib.sha256(
        repr([r.rows for r in results]).encode()
    ).hexdigest()
    fold = engine.fold_stats
    osp = engine.osp_stats
    return {
        "makespan": round(_makespan(results), 1),
        "digest": digest,
        "fold_groups": fold.groups,
        "fold_members": fold.folded,
        "fold_rate": round(fold.fold_rate(), 2),
        "pages_saved": fold.pages_saved,
        "residual_rows": fold.residual_rows,
        "banks": fold.banks,
        "osp_attaches": osp.total_attaches,
        "shared_pages": osp.shared_page_deliveries,
    }


def _fold_reduce(
    specs: Sequence[CellSpec], payloads: Payloads
) -> Tuple[Series, Series, List[str]]:
    """(throughput series, sharing-metrics table, invariance lines)."""
    series = Series(
        title="Generalized sharing: makespan, folded vs unfolded",
        x_label="workload",
        y_label="makespan (s)",
    )
    sharing = Series(
        title="Sharing metrics, folded runs (OSP + fold, one table)",
        x_label="workload",
        y_label="count",
    )
    arms: Dict[Tuple, Dict[bool, Any]] = {}
    for spec in specs:
        c = spec.coord
        arms.setdefault(
            (c["count"], c["similarity"], c["reject"]), {}
        )[c["folded"]] = payloads[spec]
    lines = []
    for (count, sim, reject), pair in arms.items():
        label = f"{count}q sim={sim:.1f}" + (" +reject" if reject else "")
        folded, unfolded = pair.get(True), pair.get(False)
        if unfolded is not None:
            series.add_point("unfolded (s)", label, unfolded["makespan"])
        if folded is not None:
            series.add_point("folded (s)", label, folded["makespan"])
            for metric in (
                "fold_groups", "fold_members", "fold_rate", "pages_saved",
                "residual_rows", "banks", "osp_attaches",
                "shared_pages",
            ):
                sharing.add_point(
                    metric.replace("_", " "), label, folded[metric]
                )
        if folded is None or unfolded is None:
            continue
        gain = 100.0 * (
            unfolded["makespan"] - folded["makespan"]
        ) / unfolded["makespan"] if unfolded["makespan"] else 0.0
        series.add_point("gain (%)", label, round(gain, 1))
        same = folded["digest"] == unfolded["digest"]
        no_worse = folded["makespan"] <= unfolded["makespan"]
        lines.append(
            f"  {label}: results identical: {'yes' if same else 'NO'}, "
            f"folded <= unfolded: {'yes' if no_worse else 'NO'}"
        )
    return series, sharing, lines


def _render_fold(value: Tuple[Series, Series, List[str]]) -> str:
    series, sharing, lines = value
    return "\n\n".join(
        [
            series.render(),
            sharing.render(),
            "Fold invariance (per-query rows, folded vs unfolded):\n"
            + "\n".join(lines),
        ]
    )


# ---------------------------------------------------------------------------
# Scale-out: sharded multi-host speedup (DESIGN.md section 16)
# ---------------------------------------------------------------------------
#: Host counts the scale-out figure sweeps.
SCALEOUT_HOSTS = (1, 2, 4, 8)

#: The 4-host speedup the scan workload must clear (CI-gated verdict).
SCALEOUT_TARGET_4H = 2.5

#: Arrival stagger between the scale-out workload's queries, kept small
#: relative to a ~40 s scan so the serial ramp does not cap speedup.
SCALEOUT_STAGGER = 1.0


def _scaleout_plans(workload: str) -> List:
    """The frozen query set per workload (fixed parameters: the figure
    compares host counts, so every count must run identical queries).

    ``scan``: four selective scan-aggregates over BIG1/BIG2 -- each
    reads a whole table but ships only ~2%% of its rows, so the sweep
    measures partitioned-scan bandwidth (plus per-shard OSP sharing of
    the two BIG1 scans).  ``join``: one replicated-build hash join
    (gather), one grouped aggregate (shuffle), one partitioned-x-
    partitioned join (broadcast) -- exchange-heavy by construction.
    """
    from repro.relational.plans import Limit, Project, Sort

    if workload == "scan":
        aggs = [AggSpec("sum", Col("unique2")), AggSpec("count", None)]
        return [
            Aggregate(
                TableScan(
                    table, predicate=Between(Col("onepercent"), lo, lo + 1)
                ),
                aggs,
            )
            for table, lo in (
                ("big1", 0), ("big1", 40), ("big2", 20), ("big2", 60),
            )
        ]
    if workload == "join":
        return [
            Sort(
                HashJoin(
                    TableScan("small", project=["unique1", "unique2"]),
                    TableScan(
                        "big1",
                        predicate=Between(Col("unique1"), 0, 400),
                        project=["unique1", "ten"],
                        alias="b",
                    ),
                    "unique1",
                    "b.unique1",
                ),
                ["unique2"],
            ),
            GroupBy(
                TableScan("big2"),
                ["ten"],
                [AggSpec("sum", Col("unique1")), AggSpec("count", None)],
            ),
            Limit(
                HashJoin(
                    TableScan(
                        "big2",
                        predicate=Between(Col("unique1"), 0, 100),
                        project=["unique1", "four"],
                    ),
                    # The probe scan's order flows through the join to the
                    # LIMIT, so it must be an *ordered* scan: OSP's
                    # circular sharing may otherwise rotate the delivery
                    # order under concurrency (on ANY host count).
                    TableScan(
                        "big1", project=["unique1", "twenty"], alias="b",
                        ordered=True,
                    ),
                    "unique1",
                    "b.unique1",
                ),
                2000,
            ),
        ]
    raise ValueError(f"unknown scale-out workload {workload!r}")


@cell
def scaleout_cell(spec: CellSpec) -> Dict:
    """Run one (hosts, workload) point; returns makespan, per-query
    result digests (the byte-identity evidence), and traffic/utilization
    telemetry."""
    from repro.harness.config import build_sharded_wisconsin_system

    c = spec.coord
    cluster, system, executor = build_sharded_wisconsin_system(
        spec.scale,
        c["hosts"],
        system=c.get("system", "qpipe"),
    )
    plans = _scaleout_plans(c["workload"])
    procs = []

    def client(plan, delay):
        yield cluster.sim.timeout(delay)
        result = yield from executor.execute(plan)
        return result

    for i, plan in enumerate(plans):
        procs.append(
            cluster.sim.spawn(
                client(plan, i * SCALEOUT_STAGGER), name=f"client{i}"
            )
        )
    cluster.sim.run_until_done(procs)
    results = [p.value for p in procs]
    net = system.network.stats
    return {
        "makespan": round(_makespan(results), 3),
        "digests": [
            hashlib.sha256(repr(r.rows).encode("utf-8")).hexdigest()
            for r in results
        ],
        "rows": [len(r.rows) for r in results],
        "net_bytes": net.bytes_on_wire,
        "net_msgs": net.messages,
        "disk_util": [round(s.host.disk.utilization(), 3) for s in system],
        "strategies": dict(sorted(executor.stats.strategies.items())),
    }


def _scaleout_reduce(
    specs: Sequence[CellSpec], payloads: Payloads
) -> Tuple[Dict[str, Series], List[str]]:
    """Per-workload speedup series plus the CI verdict lines.

    Speedup is against the same workload's 1-host cell; the byte-
    identity verdict compares every host count's per-query digests to
    the 1-host run's.  Verdict lines are stable strings the CI smoke
    leg greps, ordered by workload then host count.
    """
    series: Dict[str, Series] = {}
    base: Dict[str, Dict] = {}
    for spec in specs:
        c = spec.coord
        if c["hosts"] == 1:
            base[c["workload"]] = payloads[spec]
    verdicts: List[str] = []
    seen_identity: Dict[str, bool] = {}
    for spec in specs:
        c = spec.coord
        workload, hosts = c["workload"], c["hosts"]
        payload = payloads[spec]
        out = series.get(workload)
        if out is None:
            out = series[workload] = Series(
                title=(
                    f"Scale-out ({workload} workload): makespan and "
                    "speedup vs 1 host"
                ),
                x_label="hosts",
                y_label="makespan (s)",
            )
        out.add_point("makespan", hosts, payload["makespan"])
        ref = base.get(workload)
        if ref is not None:
            out.add_point(
                "speedup", hosts,
                round(ref["makespan"] / max(payload["makespan"], 1e-9), 2),
            )
            identical = payload["digests"] == ref["digests"]
            seen_identity[workload] = (
                seen_identity.get(workload, True) and identical
            )
        out.add_point("net MB", hosts, round(payload["net_bytes"] / 1e6, 3))
    for workload in series:
        ok = seen_identity.get(workload, False)
        verdicts.append(
            f"scaleout byte-identity ({workload}): "
            + ("PASS" if ok else "FAIL")
            + " -- per-query results "
            + ("identical across host counts" if ok else "DIVERGED")
        )
    for spec in specs:
        c = spec.coord
        if c["workload"] == "scan" and c["hosts"] == 4:
            ref = base.get("scan")
            if ref is None:
                continue
            speedup = ref["makespan"] / max(payloads[spec]["makespan"], 1e-9)
            ok = speedup >= SCALEOUT_TARGET_4H
            verdicts.append(
                f"scaleout 4-host speedup (scan): {speedup:.2f}x "
                f"(target >= {SCALEOUT_TARGET_4H}): "
                + ("PASS" if ok else "FAIL")
            )
    return series, verdicts


def _render_scaleout(value: Tuple[Dict[str, Series], List[str]]) -> str:
    series, verdicts = value
    blocks = [series[w].render() for w in sorted(series)]
    blocks.append("\n".join(verdicts))
    return "\n\n".join(blocks)


# ---------------------------------------------------------------------------
# Chaos harness: the Figure 12 mix under a seeded fault plan
# ---------------------------------------------------------------------------
#: The servers chaos attacks, each with the engine it runs on (the label
#: its rendered block carries).
CHAOS_SYSTEMS = {"qpipe": "packets", "dbmsx": "iterator"}


def chaos(
    scale: Scale = SMOKE,
    fault_seed: int = 1,
    disk_faults: int = 8,
    process_faults: int = 4,
    stagger: float = 10.0,
    horizon: float = 250.0,
    system: str = "qpipe",
    recovery: bool = False,
) -> Dict:
    """Run the Figure 12 query mix under a seeded random fault plan.

    Every query must either complete with results identical to its
    fault-free solo run, or fail cleanly with a typed
    :class:`~repro.faults.errors.FaultError` -- in both cases with every
    buffer-pool pin and table lock reclaimed and no orphaned satellites
    (checked by replaying the recorded trace through the
    InvariantChecker plus direct end-state inspection).

    ``system`` is the server under attack, a key of
    :data:`CHAOS_SYSTEMS`: ``qpipe`` (QPipe w/OSP on the packet engine)
    or ``dbmsx`` (DBMS X on the iterator engine).  With
    ``recovery=True`` every client executes through a
    :class:`~repro.lineage.RecoveryManager` -- crashes and disconnects
    resume from the durable lineage frontier instead of surfacing, the
    fault plan additionally draws two log-device faults (appended
    *after* the disk/process draws, so the schedule an existing seed
    produces is unchanged), and a completed query must still match its
    fault-free solo rows.

    Returns a dict with the fault plan, per-query outcomes, the recorded
    trace events (for the determinism test: same ``fault_seed`` + config
    must produce byte-identical JSONL), and the violation list (empty on
    a clean run).

    Chaos is deliberately *not* cellified: it is a single adversarial
    run whose value is the interleaving, not a grid of points.
    """
    from repro.faults import FaultInjector, random_plan
    from repro.faults.errors import FaultError
    from repro.lineage import RecoveryManager
    from repro.obs import Tracer
    from repro.obs.invariants import InvariantChecker
    from repro.sim import Interrupted

    names = list(MIX)

    def rows_match(got, want) -> bool:
        # A consumer attaching to a circular scan mid-file receives the
        # same tuples as a solo run but in wrapped page order, so float
        # aggregates differ by addition-order rounding (~1e-12 relative).
        # Only that non-associativity slack is tolerated; any missing or
        # duplicated tuple still fails.
        if len(got) != len(want):
            return False
        for g, w in zip(got, want):
            if len(g) != len(w):
                return False
            for a, b in zip(g, w):
                if a == b:
                    continue
                if (
                    isinstance(a, float)
                    and isinstance(b, float)
                    and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
                ):
                    continue
                return False
        return True

    def build_plans():
        return [
            Q.QUERY_BUILDERS[name](random.Random(CHAOS_QUERY_SEED_BASE + i))
            for i, name in enumerate(names)
        ]

    # Reference: each query solo on a fresh fault-free system.
    reference: Dict[str, List[tuple]] = {}
    host, sm, engine = build_tpch_system(scale, system)
    for name, plan in zip(names, build_plans()):
        reference[name] = sorted(engine.run_query(plan))

    # Faulted run: all queries staggered, under the seeded fault plan.
    host, sm, engine = build_tpch_system(scale, system)
    tracer = Tracer(host.sim)
    fault_plan = random_plan(
        fault_seed,
        horizon=horizon,
        disk_faults=disk_faults,
        process_faults=process_faults,
        tables=["lineitem", "orders", "part"],
        log_faults=2 if recovery else 0,
    )
    injector = FaultInjector(fault_plan).attach(engine)
    manager = (
        RecoveryManager(engine, injector=injector) if recovery else None
    )
    outcomes: Dict[str, Tuple[str, object]] = {}

    def client(name, plan, delay):
        # The stagger sleep is inside the try: a disconnect landing
        # before the query starts is still a clean "disconnected"
        # outcome, not a lost client.
        try:
            yield host.sim.timeout(delay)
            if manager is not None:
                report = yield from manager.run(plan)
                rows = report.rows
            else:
                result = yield from engine.execute(plan)
                rows = result.rows
        except FaultError as exc:
            outcomes[name] = ("failed", type(exc).__name__)
            return None
        except Interrupted:
            outcomes[name] = ("disconnected", None)
            return None
        outcomes[name] = ("completed", sorted(rows))
        return None

    procs = []
    for i, (name, plan) in enumerate(zip(names, build_plans())):
        proc = host.sim.spawn(
            client(name, plan, i * stagger), name=f"chaos-{i:02d}-{name}"
        )
        injector.register_client(proc)
        procs.append(proc)
    host.sim.run_until_done(procs)

    # ---- verdicts -----------------------------------------------------
    violations: List[str] = []
    summary: Dict[str, str] = {}
    for name in names:
        outcome = outcomes.get(name)
        if outcome is None:
            violations.append(f"{name}: client died without an outcome")
            summary[name] = "LOST"
            continue
        status, payload = outcome
        if status == "completed":
            if not rows_match(payload, reference[name]):
                violations.append(
                    f"{name}: completed with wrong rows "
                    f"({len(payload)} vs {len(reference[name])} expected)"
                )
                summary[name] = "WRONG-ROWS"
            else:
                summary[name] = "OK"
        elif status == "failed":
            summary[name] = f"FAILED({payload})"
        else:
            summary[name] = "DISCONNECTED"
    violations.extend(InvariantChecker(tracer.events).check())
    residual_locks = [
        (owner, resource)
        for resource, grants in sm.locks._granted.items()
        for owner, _mode in grants
    ]
    for owner, resource in residual_locks:
        violations.append(f"residual lock on {resource!r} by {owner!r}")
    for key, count in sm.pool._pins.items():
        violations.append(f"leaked buffer pin on page {key} (count={count})")
    if engine.active_queries != 0:
        violations.append(
            f"{engine.active_queries} queries still active at end of run"
        )
    result = {
        "fault_seed": fault_seed,
        "system": system,
        "recovery": recovery,
        "plan": fault_plan.describe(),
        "fired": injector.fired,
        "outcomes": summary,
        "aborted": engine.queries_aborted,
        "violations": violations,
        "events": tracer.events,
    }
    if manager is not None:
        result["recoveries"] = manager.recoveries
        result["clean_restarts"] = manager.clean_restarts
        result["pages_saved"] = manager.pages_saved
    return result


def render_chaos(result: Dict) -> str:
    label = CHAOS_SYSTEMS[result["system"]]
    if result.get("recovery"):
        label += ", recovery on"
    lines = [f"Chaos run (fault seed {result['fault_seed']}, {label}):"]
    lines.append("  scheduled faults:")
    for line in result["plan"]:
        lines.append(f"    {line}")
    lines.append(f"  faults fired: {len(result['fired'])}")
    lines.append("  query outcomes:")
    for name, verdict in result["outcomes"].items():
        lines.append(f"    {name:<4} {verdict}")
    lines.append(f"  queries aborted: {result['aborted']}")
    if result.get("recovery"):
        lines.append(
            f"  recoveries: {result['recoveries']} resumed, "
            f"{result['clean_restarts']} clean restarts, "
            f"{result['pages_saved']} pages of rescanning saved"
        )
    if result["violations"]:
        lines.append(f"  VIOLATIONS ({len(result['violations'])}):")
        for violation in result["violations"]:
            lines.append(f"    {violation}")
    else:
        lines.append("  invariants: all clean (pins, locks, satellites)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Recovery harness: restart-work-saved under mid-query crashes
# ---------------------------------------------------------------------------
#: One controlled crash scenario per resume mechanism and engine.
RECOVERY_SCENARIOS = (
    "scan",          # qpipe, OSP on: solo scan, crash mid-pass
    "scan-noshare",  # OSP off (Baseline build): same crash, private scan
    "osp-pair",      # crash a consumer that attached mid-circular-scan
    "agg",           # Aggregate(scan): checkpoint resume
    "torn",          # torn lineage record: truncated frontier, still right
    "log-error",     # log device dies early: degraded frontier, still right
    "iterator-crash",  # iterator engine, scan crash
    "iterator",      # iterator engine: client disconnect as the fault
)


def _recovery_scan_plan() -> TableScan:
    return TableScan("lineitem", project=["l_orderkey", "l_extendedprice"])


def _recovery_agg_plan() -> Aggregate:
    return Aggregate(
        TableScan("lineitem"),
        [
            AggSpec("sum", Col("l_extendedprice"), "revenue"),
            AggSpec("avg", Col("l_quantity"), "avg_qty"),
            AggSpec("count", None, "n"),
            AggSpec("max", Col("l_discount"), "max_disc"),
        ],
    )


def _recovery_build(scale: Scale, scenario: str):
    if scenario == "scan-noshare":
        return build_tpch_system(scale, "baseline")
    if scenario in ("iterator-crash", "iterator"):
        return build_tpch_system(scale, "dbmsx")
    return build_tpch_system(scale, "qpipe")


@cell
def recovery_cell(spec: CellSpec) -> Dict[str, Any]:
    """One crash scenario: fault-free reference vs crashed-plus-recovered.

    The crash lands at a seeded fraction of the measured fault-free
    duration, so every seed probes a different point of the scan.  The
    recovered rows must be *byte-identical* to the reference (these
    scenarios control attachment order, so no float-fold slack is
    needed) and the run must leave pins, locks and temp files balanced.
    """
    from repro.faults import FaultInjector, FaultPlan
    from repro.faults.errors import FaultError
    from repro.lineage import RecoveryManager
    from repro.obs import Tracer
    from repro.obs.invariants import InvariantChecker
    from repro.sim import Interrupted

    c = spec.coord
    scenario = c["scenario"]
    fault_seed = int(c["fault_seed"])
    rng = random.Random(fault_seed)
    crash_frac = rng.uniform(0.3, 0.8)
    plan_fn = _recovery_agg_plan if scenario == "agg" else _recovery_scan_plan
    pair = scenario == "osp-pair"
    attach_delay = 0.0

    # ---- fault-free reference (also measures the duration) ------------
    host, sm, engine = _recovery_build(spec.scale, scenario)
    reference: Dict[str, List[tuple]] = {}
    if pair:
        attach_delay = 0.4 * spec.scale.lineitem_scan_seconds

        def ref_c1():
            res = yield from engine.execute(TableScan("lineitem",
                                                      project=["l_orderkey"]))
            reference["peer"] = res.rows

        def ref_c2():
            yield host.sim.timeout(attach_delay)
            res = yield from engine.execute(plan_fn())
            reference["main"] = res.rows

        host.sim.spawn(ref_c1(), name="ref-peer")
        host.sim.spawn(ref_c2(), name="ref-main")
        host.sim.run()
        duration = host.sim.now - attach_delay
        crash_at = attach_delay + crash_frac * duration
    else:
        result = engine.run_query(plan_fn())
        reference["main"] = result
        duration = host.sim.now
        crash_at = crash_frac * duration

    # ---- crashed run with recovery ------------------------------------
    host, sm, engine = _recovery_build(spec.scale, scenario)
    tracer = Tracer(host.sim)
    fault_plan = FaultPlan()
    if scenario == "iterator":
        # This scenario covers the disconnect path: the fault is a
        # client disconnect, and recovery doubles as the reconnect path.
        fault_plan.disconnect(at=crash_at, target=0)
    elif pair:
        # Two active queries, sorted by id: target=1 crashes the later
        # one -- the consumer that attached mid-circular-scan.
        fault_plan.crash_query(at=crash_at, target=1)
    else:
        fault_plan.crash_query(at=crash_at, target=0)
    if scenario == "torn":
        fault_plan.torn_record(at=0.5 * crash_at, target=0)
    elif scenario == "log-error":
        fault_plan.log_error(at=0.25 * crash_at, target=0, transient=False)
    injector = FaultInjector(fault_plan).attach(engine)
    manager = RecoveryManager(engine, injector=injector)
    got: Dict[str, Any] = {}
    failure: List[str] = []

    def run_main():
        try:
            report = yield from manager.run(plan_fn())
        except (FaultError, Interrupted) as exc:
            failure.append(type(exc).__name__)
            return
        got["main"] = report.rows
        got["report"] = report

    procs = []
    if pair:
        def run_peer():
            res = yield from engine.execute(TableScan("lineitem",
                                                      project=["l_orderkey"]))
            got["peer"] = res.rows

        procs.append(host.sim.spawn(run_peer(), name="rec-peer"))

        def run_delayed():
            yield host.sim.timeout(attach_delay)
            yield from run_main()

        main_proc = host.sim.spawn(run_delayed(), name="rec-main")
    else:
        main_proc = host.sim.spawn(run_main(), name="rec-main")
    procs.append(main_proc)
    injector.register_client(main_proc)
    host.sim.run_until_done(procs)

    # ---- verdicts -----------------------------------------------------
    violations = list(InvariantChecker(tracer.events).check())
    for resource, grants in sm.locks._granted.items():
        for owner, _mode in grants:
            violations.append(f"residual lock on {resource!r} by {owner!r}")
    for key, count in sm.pool._pins.items():
        violations.append(f"leaked buffer pin on page {key} (count={count})")
    active = getattr(engine, "active_queries", 0)
    if active:
        violations.append(f"{active} queries still active at end of run")
    report = got.get("report")
    identical = all(
        got.get(k) == reference[k] for k in reference
    ) and set(got) >= set(reference)
    log = manager.logs.get(report.query_id) if report is not None else None
    digest = (
        hashlib.sha256(log.serialize().encode()).hexdigest()
        if log is not None else None
    )
    return {
        "scenario": scenario,
        "fault_seed": fault_seed,
        "outcome": "ok" if not failure else f"failed:{failure[0]}",
        "byte_identical": bool(identical),
        "attempts": report.attempts if report else 0,
        "recoveries": report.recoveries if report else 0,
        "clean_restarts": report.clean_restarts if report else 0,
        "pages_saved": report.pages_saved if report else 0,
        "pages_total": report.pages_total if report else 0,
        "faults_fired": [f["type"] for f in injector.fired],
        "lineage_records": len(log.records) if log else 0,
        "log_blocks": log.blocks_written if log else 0,
        "lineage_digest": digest,
        "violations": violations,
    }


def recovery_failed(result: Dict[str, Dict[str, Any]]) -> bool:
    """True unless every scenario recovered exact rows with no violation
    (the CLI's exit code)."""
    return not all(
        p["outcome"] == "ok" and p["byte_identical"] and not p["violations"]
        for p in result.values()
    )


def render_recovery(result: Dict[str, Dict[str, Any]]) -> str:
    lines = ["Mid-query recovery (restart work saved per crash scenario):"]
    header = (
        f"  {'scenario':<14} {'outcome':<10} {'rows':<6} "
        f"{'saved':>5}/{'total':<5} {'resumed':>7} {'restarts':>8}"
    )
    lines.append(header)
    total_saved = 0
    for scenario, p in result.items():
        rows = "exact" if p["byte_identical"] else "WRONG"
        saved = p["pages_saved"]
        total_saved += saved
        lines.append(
            f"  {scenario:<14} {p['outcome']:<10} {rows:<6} "
            f"{saved:>5}/{p['pages_total']:<5} {p['recoveries']:>7} "
            f"{p['clean_restarts']:>8}"
        )
        for violation in p["violations"]:
            lines.append(f"    VIOLATION: {violation}")
    lines.append(
        f"  total rescanning saved: {total_saved} pages across "
        f"{len(result)} crash scenarios"
    )
    lines.append(
        "  SOME SCENARIOS FAILED (see above)" if recovery_failed(result)
        else "  all scenarios clean"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The figure table: every cell-based experiment, declared once
# ---------------------------------------------------------------------------
_CLIENT_SEED = (("CLIENT_SEED_BASE", CLIENT_SEED_BASE),)
_SHARED_SEED = (("SHARED_PARAM_SEED", SHARED_PARAM_SEED),)
_TWO_SYSTEMS = ("baseline", "qpipe")
_CLIENT_COUNTS = tuple(range(1, 13))
_INTERARRIVAL = ("interarrival (s)", "total response time (s)")
_THROUGHPUT = ("clients", "throughput (queries/hour)")


def _mix_seed(scale: Scale, point: Mapping[str, Any]):
    return (("workload_seed", scale.seed + point["count"]),)


def _scale_seed(scale: Scale, point: Mapping[str, Any]):
    return (("workload_seed", scale.seed),)


FIGURES: Dict[str, Figure] = {
    fig.name: fig
    for fig in (
        # Fraction of disk-read time per table for Q8, Q12, Q13, Q14, Q19.
        # Reproduces Figure 1a's observation: despite disjoint computation,
        # the queries overlap heavily on LINEITEM/ORDERS/PART reads.
        Figure(
            "fig1a", fig1a_cell, {"query": FIG1A_QUERIES},
            reduce=_keyed("query"),
            render=lambda rows: render_breakdown(
                "Figure 1a: per-table share of disk read time",
                rows, list(FIG1A_TRACKED) + ["other"],
            ),
            seeds=(("FIG_QUERY_SEED", FIG_QUERY_SEED),),
        ),
        # Figure 1b, the introduction's QPipe-vs-DBMS X throughput curve,
        # is fig12's cells restricted to two systems: its specs carry the
        # owning figure id "fig12" so the two share cache entries.
        Figure(
            "fig1b", fig12_cell,
            {"system": ("qpipe", "dbmsx"), "count": _CLIENT_COUNTS},
            reduce=_series(
                "Figure 1b: TPC-H throughput, QPipe vs DBMS X",
                *_THROUGHPUT, x="count",
            ),
            seeds=_mix_seed, figure="fig12",
        ),
        # Measured Q2 I/O savings vs Q1 progress, one curve per overlap
        # class (linear / step / full / spike), mirroring Figure 4a.
        Figure(
            "fig4", fig4_cell, {"klass": tuple(FIG4_CLASSES)},
            reduce=_series(
                "Figure 4 (measured): Q2 cost saving vs Q1 progress",
                "Q1 progress", "fraction of Q2's disk blocks eliminated",
                x=None, curve=lambda c: c["klass"],
            ),
            fixed={"progress_points": FIG4_POINTS},
            regime=_limited_buffers,
        ),
        # Total disk blocks read by N staggered Q6 clients, Baseline vs
        # QPipe w/OSP.
        Figure(
            "fig8", fig8_cell,
            {"count": (2, 4, 8), "system": _TWO_SYSTEMS,
             "gap": FIG8_INTERARRIVALS},
            reduce=_fig8_series,
            render=lambda out: "\n\n".join(
                out[n].render() for n in sorted(out)
            ),
            seeds=_CLIENT_SEED,
        ),
        Figure(
            "fig9", fig9_cell,
            {"system": _TWO_SYSTEMS, "gap": INTERARRIVALS},
            reduce=_series(
                "Figure 9: order-sensitive clustered index scans "
                "(Q4, merge-join)", *_INTERARRIVAL, x="gap",
            ),
            seeds=_SHARED_SEED, regime=_limited_buffers,
        ),
        Figure(
            "fig10", fig10_cell,
            {"system": _TWO_SYSTEMS, "gap": INTERARRIVALS},
            reduce=_series(
                "Figure 10: Wisconsin 3-way sort-merge join sharing",
                *_INTERARRIVAL, x="gap",
            ),
            seeds=_SHARED_SEED, regime=_limited_buffers,
        ),
        Figure(
            "fig11", fig11_cell,
            {"system": _TWO_SYSTEMS, "gap": INTERARRIVALS},
            reduce=_series(
                "Figure 11: hash-join build sharing (Q4, hash-join)",
                *_INTERARRIVAL, x="gap",
            ),
            seeds=_SHARED_SEED, regime=_limited_buffers,
        ),
        # TPC-H mix throughput (queries/hour), zero think time.
        Figure(
            "fig12", fig12_cell,
            {"system": FIG12_SYSTEMS, "count": _CLIENT_COUNTS},
            reduce=_series(
                "Figure 12: TPC-H throughput vs concurrent clients",
                *_THROUGHPUT, x="count",
            ),
            seeds=_mix_seed,
        ),
        # Average response time of the TPC-H mix under varying think time
        # (low think time = high load), QPipe w/OSP vs Baseline.
        Figure(
            "fig13", fig13_cell,
            {"system": _TWO_SYSTEMS, "think": (0, 20, 40, 60, 240)},
            reduce=_series(
                "Figure 13: average response time vs think time "
                "({clients} clients)",
                "think time (s)", "average response time (s)", x="think",
            ),
            fixed={"clients": 10},
            seeds=_scale_seed,
        ),
        # Back-to-back (zero-concurrency) mixed queries with OSP on vs
        # off.  With no sharing opportunities the two runs must take
        # essentially the same time; the paper reports the overhead as
        # negligible.
        Figure(
            "overhead", osp_overhead_cell, {"system": ("qpipe", "baseline")},
            reduce=_overhead, render=_render_overhead,
            fixed={"queries": 6},
            seeds=_scale_seed,
        ),
        Figure(
            "fold", fold_cell,
            {"count": (4, 6), "similarity": (0.0, 0.5, 1.0),
             "folded": (False, True)},
            reduce=_fold_reduce, render=_render_fold,
            fixed={"stagger": FOLD_STAGGER, "reject": False},
            # A similar cohort joined by a query the group turns away.
            also=(
                {"count": 4, "similarity": 1.0, "reject": True,
                 "folded": False},
                {"count": 4, "similarity": 1.0, "reject": True,
                 "folded": True},
            ),
            seeds=(("FOLD_QUERY_SEED", FOLD_QUERY_SEED),),
        ),
        # Figure 8's Baseline point under every replacement policy: how
        # much of QPipe's sharing can a smarter pool recover on its own?
        # Scan pages go through the policy itself here (no scan ring), so
        # the policies' scan handling is what is actually being compared.
        Figure(
            "ablation-policies", ablation_policy_cell,
            {"policy": ("lru", "mru", "clock", "lru-k", "2q", "arc")},
            reduce=_policies_series,
            fixed={"kind": "policy", "clients": 4, "interarrival": 20.0},
            also=({"kind": "reference", "policy": "lru"},),
            seeds=_CLIENT_SEED,
        ),
        # The Figure 4b buffering enhancement: a larger fan-out replay
        # ring widens the hash-join step window, so later arrivals still
        # attach.
        Figure(
            "ablation-replay", ablation_replay_cell,
            {"ring": (16, 256, 4096, 65536)},
            reduce=_series(
                "Ablation: fan-out replay ring size vs join sharing",
                "replay ring (tuples)", "hash-join attaches", x="ring",
                curve=lambda c: "attaches",
            ),
            fixed={"interarrival": 40.0},
            seeds=_SHARED_SEED,
        ),
        # What wrap-around adds over naive attach-at-start scan sharing.
        # "When the scanner thread reaches the end-of-file for the first
        # time, it will keep scanning the relation from the beginning, to
        # serve the unread pages" (section 4.3.1).  Without the wrap, a
        # late scan can share only if it happens to arrive while the
        # scanner sits at page 0.
        Figure(
            "ablation-wraparound", ablation_wraparound_cell,
            {"mode": ({"mode": "circular", "wrap": True},
                      {"mode": "attach-at-start", "wrap": False}),
             "gap": (0, 20, 60, 100)},
            reduce=_series(
                "Ablation: circular wrap-around vs naive scan sharing",
                "interarrival (s)", "total disk blocks read", x="gap",
                curve=lambda c: c["mode"],
            ),
            fixed={"clients": 4},
            seeds=_CLIENT_SEED,
        ),
        # Section 4.3.1's late activation policy, on vs off.  Without it,
        # probe-side scans attach to the shared scanner before their joins
        # are ready to consume; the filled buffers stall the scanner (until
        # detach-on-stall cuts them loose), costing extra time and I/O for
        # everyone.
        Figure(
            "ablation-late-activation", ablation_late_activation_cell,
            {"label": ({"label": "on", "late": True},
                       {"label": "off", "late": False})},
            reduce=_late_activation_series,
            fixed={"clients": 4},
            seeds=_SHARED_SEED,
        ),
        Figure(
            "scaleout", scaleout_cell,
            {"workload": ("scan", "join"), "hosts": SCALEOUT_HOSTS},
            reduce=_scaleout_reduce, render=_render_scaleout,
            fixed={"system": "qpipe"},
        ),
        # One cell per crash scenario; ``fault_seed`` places the crash.
        Figure(
            "recovery", recovery_cell, {"scenario": RECOVERY_SCENARIOS},
            reduce=_keyed("scenario"), render=render_recovery,
            fixed={"fault_seed": 1},
            failed=recovery_failed,
        ),
    )
}
