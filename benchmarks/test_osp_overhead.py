"""Section 5 claim: the OSP coordinator's overhead is negligible when
queries present no sharing opportunities."""

from benchmarks.conftest import run_once
from repro.harness import FIGURES, SMOKE


def test_osp_overhead(benchmark, figure_sink):
    figure = FIGURES["overhead"]
    result = run_once(benchmark, lambda: figure.run(SMOKE, queries=6))
    figure_sink("osp_overhead", figure.render(result))
    assert abs(result["overhead_ratio"] - 1.0) < 0.05
