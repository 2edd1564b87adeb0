"""Figure 10: Wisconsin 3-way sort-merge join sharing."""

from benchmarks.conftest import run_once
from repro.harness import FIGURES, SMOKE

GAPS = (0, 20, 40, 60, 80, 100, 120, 140)


def test_fig10_sort_merge(benchmark, figure_sink):
    series = run_once(
        benchmark, lambda: FIGURES["fig10"].run(SMOKE, gap=GAPS)
    )
    figure_sink("fig10_sort_merge", series.render())
    qpipe = series.curve("QPipe w/OSP")
    baseline = series.curve("Baseline")
    assert all(q <= b + 1e-6 for q, b in zip(qpipe, baseline))
    # The paper's 2x speedup plateau.
    assert qpipe[2] <= 0.65 * baseline[2]
