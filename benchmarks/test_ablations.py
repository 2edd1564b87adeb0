"""Ablations for DESIGN.md's design decisions."""

from benchmarks.conftest import run_once
from repro.harness import FIGURES, SMOKE


def test_ablation_replacement_policies(benchmark, figure_sink):
    series = run_once(
        benchmark,
        lambda: FIGURES["ablation-policies"].run(
            SMOKE,
            policy=("lru", "mru", "clock", "lru-k", "2q", "arc"),
            clients=4,
            interarrival=20.0,
        ),
    )
    figure_sink("ablation_replacement", series.render())
    values = series.curve("Baseline")
    assert len(values) == 6 and all(v > 0 for v in values)


def test_ablation_replay_ring(benchmark, figure_sink):
    series = run_once(
        benchmark,
        lambda: FIGURES["ablation-replay"].run(
            SMOKE, ring=(16, 256, 4096, 65536), interarrival=40.0
        ),
    )
    figure_sink("ablation_replay_ring", series.render())
    attaches = series.curve("attaches")
    assert attaches[-1] >= attaches[0]


def test_ablation_circular_wraparound(benchmark, figure_sink):
    series = run_once(
        benchmark,
        lambda: FIGURES["ablation-wraparound"].run(
            SMOKE, clients=4, gap=(0, 20, 60, 100)
        ),
    )
    figure_sink("ablation_wraparound", series.render())
    circular = series.curve("circular")
    naive = series.curve("attach-at-start")
    # Wrap-around shares at every gap; naive only at lockstep arrivals.
    assert circular[0] == naive[0]
    assert all(c <= n for c, n in zip(circular, naive))
    assert circular[1] < 0.6 * naive[1]


def test_ablation_late_activation(benchmark, figure_sink):
    series = run_once(
        benchmark,
        lambda: FIGURES["ablation-late-activation"].run(SMOKE, clients=4),
    )
    figure_sink("ablation_late_activation", series.render())
    on = series.curve("late-activation on")
    off = series.curve("late-activation off")
    assert on[0] <= off[0]  # makespan no worse with late activation
