"""The scaleout figure: verdict lines, scaling shape, pool invariance."""

from dataclasses import replace

from repro.harness import FIGURES, SMOKE
from repro.parallel import PoolRunner
from repro.parallel.cells import run_cells_serial

TINY = replace(SMOKE, name="tiny", wisconsin_big_rows=900)
SCALEOUT = FIGURES["scaleout"]


def test_scaleout_verdicts_pass_through_four_hosts():
    series, verdicts = SCALEOUT.run(SMOKE, hosts=(1, 2, 4))
    assert (
        "scaleout byte-identity (scan): PASS -- per-query results "
        "identical across host counts"
    ) in verdicts
    assert (
        "scaleout byte-identity (join): PASS -- per-query results "
        "identical across host counts"
    ) in verdicts
    speedup_lines = [v for v in verdicts if "4-host speedup" in v]
    assert len(speedup_lines) == 1 and speedup_lines[0].endswith("PASS")
    # More hosts, shorter makespan; more hosts, more exchange traffic.
    for workload in ("scan", "join"):
        out = series[workload]
        assert out.xs == [1, 2, 4]
        makespans = out.curve("makespan")
        assert makespans == sorted(makespans, reverse=True)
        net_mb = out.curve("net MB")
        assert net_mb == sorted(net_mb)
        assert net_mb[0] == 0.0  # 1 host: loopback only, no wire bytes


def test_one_host_cell_runs_everything_locally():
    (spec,) = SCALEOUT.specs(TINY, hosts=(1,), workload=("scan",))
    payload = run_cells_serial([spec])[spec]
    assert set(payload["strategies"]) == {"local"}
    assert payload["net_bytes"] == 0 and payload["net_msgs"] == 0


def test_rendered_output_identical_across_jobs():
    """The ISSUE differential: --jobs 1 and --jobs 2 produce the same
    bytes (real spawn-context process pool, not a fake)."""
    outputs = []
    for jobs in (1, 2):
        with PoolRunner(jobs=jobs) as runner:
            value = SCALEOUT.run(
                TINY, runner, hosts=(1, 2), workload=("scan",)
            )
        outputs.append(SCALEOUT.render(value))
    assert outputs[0] == outputs[1]
    assert "byte-identity (scan): PASS" in outputs[0]
