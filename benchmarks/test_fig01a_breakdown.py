"""Figure 1a: time breakdown of five TPC-H queries by table read."""

from benchmarks.conftest import run_once
from repro.harness import FIGURES, SMOKE


def test_fig01a_breakdown(benchmark, figure_sink):
    rows = run_once(benchmark, lambda: FIGURES["fig1a"].run(SMOKE))
    figure_sink("fig01a_breakdown", FIGURES["fig1a"].render(rows))
    for fractions in rows.values():
        tracked = sum(
            fractions.get(t, 0) for t in ("lineitem", "orders", "part")
        )
        assert tracked > 0.5
