"""Figure 4a (measured): windows of opportunity per overlap class."""

from benchmarks.conftest import run_once
from repro.harness import FIGURES, SMOKE

POINTS = (0.0, 0.25, 0.5, 0.75, 0.95)


def test_fig04_wop(benchmark, figure_sink):
    series = run_once(
        benchmark, lambda: FIGURES["fig4"].run(SMOKE, progress_points=POINTS)
    )
    figure_sink("fig04_wop", series.render())
    assert all(g == 1.0 for g in series.curve("full(aggregate)"))
    assert series.curve("spike(ordered scan)")[1] == 0
    linear = series.curve("linear(scan)")
    assert linear == sorted(linear, reverse=True)  # monotone decay
