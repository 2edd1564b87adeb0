"""Figure 13: average response time vs think time, 10 clients."""

from benchmarks.conftest import run_once
from repro.harness import FIGURES, SMOKE

THINK = (0, 20, 40, 60, 240)


def test_fig13_think_time(benchmark, figure_sink):
    series = run_once(
        benchmark,
        lambda: FIGURES["fig13"].run(SMOKE, think=THINK, clients=10),
    )
    figure_sink("fig13_think_time", series.render())
    qpipe = series.curve("QPipe w/OSP")
    baseline = series.curve("Baseline")
    # QPipe keeps response times low even at full load...
    assert qpipe[0] < 0.5 * baseline[0]
    # ...and the baseline recovers as think time relieves the system.
    assert baseline[-1] < baseline[0]
