"""Harness integration tests: every figure's qualitative shape must hold.

These run the real figure-table entries at reduced sweep resolution and
assert the *paper's conclusions*, not absolute numbers:

* fig1a -- the five queries overlap heavily on LINEITEM/ORDERS/PART;
* fig4  -- the four overlap classes order as linear/step/full/spike;
* fig8  -- QPipe saves I/O at nonzero interarrival; curves meet at 0;
* fig9/10/11 -- QPipe w/OSP at or below Baseline at every interarrival;
* fig12 -- QPipe beats both comparators at high concurrency;
* fig13 -- QPipe's response time stays below Baseline's under load;
* section 5 -- the OSP coordinator's overhead is negligible.
"""

import pytest

from repro.harness import FIGURES, SMOKE
from repro.harness.config import build_tpch_system, with_overrides

GAPS = (0, 20, 60, 100)


def test_fig1a_queries_overlap_on_big_tables():
    rows = FIGURES["fig1a"].run(SMOKE)
    rendered = FIGURES["fig1a"].render(rows)
    assert set(rows) == {"Q8", "Q12", "Q13", "Q14", "Q19"}
    # Each query spends most of its read time on the three big tables.
    for query, fractions in rows.items():
        tracked = sum(fractions.get(t, 0) for t in ("lineitem", "orders", "part"))
        assert tracked > 0.5, f"{query} reads mostly elsewhere: {fractions}"
    # LINEITEM dominates Q14/Q19 like the paper's Figure 1a.
    assert rows["Q14"]["lineitem"] > 0.5
    assert rows["Q19"]["lineitem"] > 0.5
    assert "Q14" in rendered


def test_fig4_overlap_classes():
    series = FIGURES["fig4"].run(SMOKE, progress_points=(0.0, 0.5, 0.95))
    linear = series.curve("linear(scan)")
    full = series.curve("full(aggregate)")
    step = series.curve("step(hash-join)")
    spike = series.curve("spike(ordered scan)")
    # Everyone shares fully at progress 0.
    assert linear[0] == full[0] == step[0] == spike[0] == 1.0
    # Full overlap holds the whole lifetime.
    assert all(g == 1.0 for g in full)
    # Linear decays roughly like 1 - progress.
    assert linear[1] == pytest.approx(0.5, abs=0.25)
    assert linear[2] < 0.3
    # Spike collapses immediately.
    assert spike[1] == 0 and spike[2] == 0
    # Step sits between spike and full mid-way.
    assert spike[1] <= step[1] <= full[1]


def test_fig8_qpipe_saves_io():
    out = FIGURES["fig8"].run(SMOKE, count=(4,), gap=GAPS)
    series = out[4]
    baseline = series.curve("Baseline")
    qpipe = series.curve("QPipe w/OSP")
    # Equal at interarrival 0 (pool sharing covers lockstep arrivals).
    assert baseline[0] == qpipe[0]
    # QPipe reads no more than Baseline anywhere, strictly less mid-sweep.
    assert all(q <= b for q, b in zip(qpipe, baseline))
    assert qpipe[1] < baseline[1]
    # The paper's headline: tens of percent saved at 20s interarrival.
    assert qpipe[1] <= 0.7 * baseline[1]


def test_fig9_ordered_scan_sharing():
    series = FIGURES["fig9"].run(SMOKE, gap=GAPS)
    baseline = series.curve("Baseline")
    qpipe = series.curve("QPipe w/OSP")
    assert all(q <= b + 1e-6 for q, b in zip(qpipe, baseline))
    # Flat while the window is open: mid-sweep QPipe stays near its
    # interarrival-0 cost while the Baseline has blown up.
    assert qpipe[1] < 0.75 * baseline[1]


def test_fig10_sort_merge_sharing():
    series = FIGURES["fig10"].run(SMOKE, gap=GAPS)
    baseline = series.curve("Baseline")
    qpipe = series.curve("QPipe w/OSP")
    assert all(q <= b + 1e-6 for q, b in zip(qpipe, baseline))
    # The paper's 2x speedup region.
    assert qpipe[1] <= 0.65 * baseline[1]


def test_fig11_hash_join_two_regimes():
    series = FIGURES["fig11"].run(SMOKE, gap=(0, 20, 60, 100, 140))
    qpipe = series.curve("QPipe w/OSP")
    baseline = series.curve("Baseline")
    assert all(q <= b + 1e-6 for q, b in zip(qpipe, baseline))
    # Build-phase sharing keeps early points at the solo cost; late
    # arrivals still save via the shared LINEITEM scan.
    assert qpipe[1] == qpipe[0]
    assert qpipe[-1] > qpipe[0]


def test_fig12_throughput_ordering():
    series = FIGURES["fig12"].run(SMOKE, count=(1, 8))
    qpipe = series.curve("QPipe w/OSP")
    baseline = series.curve("Baseline")
    dbmsx = series.curve("DBMS X")
    # Disk-bound at one client: all three are equivalent (paper: "the
    # throughput of QPipe and X is almost identical").
    assert qpipe[0] == pytest.approx(dbmsx[0], rel=0.15)
    # At high concurrency QPipe wins by a large factor.
    assert qpipe[1] > 1.5 * baseline[1]
    assert qpipe[1] > 1.5 * dbmsx[1]


def test_fig13_response_time_under_load():
    series = FIGURES["fig13"].run(SMOKE, think=(0, 240), clients=6)
    qpipe = series.curve("QPipe w/OSP")
    baseline = series.curve("Baseline")
    # QPipe keeps response times low at high load (think time 0).
    assert qpipe[0] < 0.6 * baseline[0]
    # The gap narrows as think time relieves the load.
    assert baseline[1] <= baseline[0]


def test_osp_overhead_negligible():
    result = FIGURES["overhead"].run(SMOKE, queries=4)
    assert result["overhead_ratio"] == pytest.approx(1.0, abs=0.05)


def test_ablation_replacement_policies_runs():
    series = FIGURES["ablation-policies"].run(
        SMOKE, policy=("lru", "arc"), clients=2, interarrival=20.0
    )
    values = series.curve("Baseline")
    assert len(values) == 2 and all(v > 0 for v in values)
    assert series.notes  # QPipe reference recorded


def test_ablation_replay_ring_widens_window():
    series = FIGURES["ablation-replay"].run(
        SMOKE, ring=(16, 4096), interarrival=40.0
    )
    attaches = series.curve("attaches")
    # A big ring must admit at least as many satellites as a tiny one.
    assert attaches[1] >= attaches[0]


def test_series_rendering_is_stable():
    series = FIGURES["fig8"].run(SMOKE, count=(2,), gap=(0, 20))[2]
    text = series.render()
    assert "interarrival" in text and "QPipe w/OSP" in text


def test_experiments_are_deterministic():
    a = FIGURES["fig8"].run(SMOKE, count=(2,), gap=(0, 20))
    b = FIGURES["fig8"].run(SMOKE, count=(2,), gap=(0, 20))
    assert a[2].curves == b[2].curves


def test_ablation_circular_wraparound_shape():
    series = FIGURES["ablation-wraparound"].run(
        SMOKE, clients=2, gap=(0, 20)
    )
    circular = series.curve("circular")
    naive = series.curve("attach-at-start")
    assert circular[1] < naive[1]


def test_ablation_late_activation_helps():
    series = FIGURES["ablation-late-activation"].run(SMOKE, clients=4)
    on = series.curve("late-activation on")
    off = series.curve("late-activation off")
    assert on[0] <= off[0]


def test_pushed_backend_is_only_the_benchmarks_dbmsx_spelling():
    """``backend="pushed"`` survives for one benchmark workload: with
    DBMS X it builds the iterator engine, and with any other server it
    is refused rather than quietly meaning that server."""
    from repro.baseline.engine import IteratorEngine

    tiny = with_overrides(SMOKE, tpch_factor=0.02)
    _host, _sm, engine = build_tpch_system(tiny, "dbmsx", backend="pushed")
    assert type(engine) is IteratorEngine and engine.name == "dbms-x"
    for system in ("qpipe", "baseline"):
        with pytest.raises(ValueError, match="'pushed' only with"):
            build_tpch_system(tiny, system, backend="pushed")
