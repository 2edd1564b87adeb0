"""Figure 9: order-sensitive clustered index scans under merge-join."""

from benchmarks.conftest import run_once
from repro.harness import FIGURES, SMOKE

GAPS = (0, 20, 40, 60, 80, 100, 120, 140)


def test_fig09_ordered_scans(benchmark, figure_sink):
    series = run_once(
        benchmark, lambda: FIGURES["fig9"].run(SMOKE, gap=GAPS)
    )
    figure_sink("fig09_ordered_scans", series.render())
    qpipe = series.curve("QPipe w/OSP")
    baseline = series.curve("Baseline")
    assert all(q <= b + 1e-6 for q, b in zip(qpipe, baseline))
    assert qpipe[2] < 0.75 * baseline[2]  # mid-sweep sharing
    assert qpipe[-1] == baseline[-1]  # no overlap left: curves converge
