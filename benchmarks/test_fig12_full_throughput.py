"""Figure 12: TPC-H mix throughput, three systems, 1-12 clients."""

from benchmarks.conftest import run_once
from repro.harness import FIGURES, SMOKE

CLIENTS = (1, 2, 4, 6, 8, 10, 12)


def test_fig12_full_throughput(benchmark, figure_sink, invariant_tracing):
    series = run_once(
        benchmark, lambda: FIGURES["fig12"].run(SMOKE, count=CLIENTS)
    )
    figure_sink("fig12_full_throughput", series.render())
    qpipe = series.curve("QPipe w/OSP")
    baseline = series.curve("Baseline")
    dbmsx = series.curve("DBMS X")
    # One client: disk-bound, all systems equivalent.
    assert abs(qpipe[0] - dbmsx[0]) / dbmsx[0] < 0.15
    # High concurrency: QPipe well ahead of both (paper: up to 2x).
    high = slice(4, None)
    assert sum(qpipe[high]) > 1.5 * sum(baseline[high])
    assert sum(qpipe[high]) > 1.5 * sum(dbmsx[high])
    # QPipe's throughput grows with the client count overall.
    assert qpipe[-1] > 2 * qpipe[0]
