"""Figure 1b: TPC-H throughput, QPipe vs DBMS X (the intro figure)."""

from benchmarks.conftest import run_once
from repro.harness import FIGURES, SMOKE

CLIENTS = (1, 4, 8, 12)


def test_fig01b_throughput(benchmark, figure_sink, invariant_tracing):
    series = run_once(
        benchmark, lambda: FIGURES["fig1b"].run(SMOKE, count=CLIENTS)
    )
    figure_sink("fig01b_throughput", series.render())
    qpipe, dbmsx = series.curve("QPipe w/OSP"), series.curve("DBMS X")
    # Equal when disk-bound at one client; ~2x at high concurrency.
    assert abs(qpipe[0] - dbmsx[0]) / dbmsx[0] < 0.15
    assert qpipe[-1] > 1.5 * dbmsx[-1]
