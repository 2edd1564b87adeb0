"""Figure 11: hash-join build-phase sharing, then scan-only sharing."""

from benchmarks.conftest import run_once
from repro.harness import FIGURES, SMOKE

GAPS = (0, 20, 40, 60, 80, 100, 120, 140)


def test_fig11_hash_join(benchmark, figure_sink):
    series = run_once(
        benchmark, lambda: FIGURES["fig11"].run(SMOKE, gap=GAPS)
    )
    figure_sink("fig11_hash_join", series.render())
    qpipe = series.curve("QPipe w/OSP")
    baseline = series.curve("Baseline")
    assert all(q <= b + 1e-6 for q, b in zip(qpipe, baseline))
    # Two regimes: full sharing early, partial (scan-only) sharing later.
    assert qpipe[1] == qpipe[0]
    assert qpipe[-2] > qpipe[0]
