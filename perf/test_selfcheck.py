"""Self-checks of the benchmark itself: ``python -m pytest perf -q``.

Not part of tier-1 (``testpaths`` stays ``tests``): these guard the
instrument, not the engines.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from perf import CHILD_ENV, ROOT

sys.path.insert(0, os.path.join(ROOT, "src"))

from perf import layers, measure  # noqa: E402
from perf.__main__ import RUN_SECONDS, main  # noqa: E402
from perf.calibration import kernel_sha256  # noqa: E402
from perf.metrics import (  # noqa: E402
    END_TO_END,
    LAYERS,
    PER_LAYER,
    percentile,
    supported_percentile,
)
from perf.report import WORKLOAD_NAMES  # noqa: E402
from perf.workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_calibration_kernel_is_frozen():
    # Editing the kernel rescales every recorded host time.  If you must,
    # re-measure CAL_REF_S and say so; never do it in a PR that claims a gain.
    assert kernel_sha256() == (
        "29a1f46d0b020e4e6fe5181b58d602bbb945ff97ca1b57d66f4f93858fb99996")


def test_layer_bucketing_on_a_synthetic_profile():
    src = os.path.join(ROOT, "src", "repro")
    scan = (os.path.join(src, "relational", "expressions.py"), 10, "bind")
    step = (os.path.join(src, "sim", "kernel.py"), 20, "schedule")
    top = (os.path.join(src, "results.py"), 1, "helper")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    generated = ("<fused>", 1, "<lambda>")
    unknown = ("/somewhere/else.py", 5, "mystery")
    # func -> (primitive calls, calls, self time, cumulative, callers);
    # callers: caller -> (calls, primitive calls, self time, cumulative).
    stats = {
        scan: (5, 5, 2.0, 3.0, {}),
        step: (7, 7, 1.0, 2.0, {}),
        top: (1, 1, 0.5, 0.5, {}),
        heappush: (9, 9, 1.0, 1.0, {step: (6, 6, 0.75, 0.75),
                                    scan: (3, 3, 0.25, 0.25)}),
        generated: (4, 4, 1.0, 1.0, {scan: (4, 4, 1.0, 1.0)}),
        unknown: (2, 2, 0.5, 0.5, {}),
    }
    seconds, calls = layers.attribute(stats)
    assert seconds["sim"] == pytest.approx(1.0 + 0.75)
    assert seconds["relational"] == pytest.approx(2.0 + 0.25 + 1.0)
    assert seconds["other"] == pytest.approx(0.5 + 0.5)
    total = sum(seconds.values())
    assert total == pytest.approx(6.0)
    assert sum(s / total for s in seconds.values()) == pytest.approx(1.0)
    assert calls["sim"] == 7 and calls["relational"] == 5
    assert calls["other"] == 1  # builtins and unknown files count nowhere
    assert set(seconds) == set(LAYERS)


def test_percentile_rule():
    assert supported_percentile(48) == 75      # 12 samples beyond p75
    assert supported_percentile(39) == 50
    assert supported_percentile(100) == 90
    assert supported_percentile(200) == 95
    assert supported_percentile(19) == 0
    assert percentile(range(1, 49), 75) == 36  # nearest rank
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_names_and_manifest_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOAD_NAMES)
    assert set(WORKLOADS) == set(WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in manifest["workloads"]} == {
        name: WORKLOADS[name].why for name in WORKLOAD_NAMES}
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in manifest["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == PER_LAYER
    assert manifest["paths"] == ["perf"]
    assert manifest["command"] == ["python3", "-m", "perf"]
    assert manifest["run_seconds"] == RUN_SECONDS
    for name in list(WORKLOAD_NAMES) + [m[0] for m in END_TO_END + PER_LAYER]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(PER_LAYER) <= 128


def _smoke(trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "-m", "perf", "--workload", "dml_mix", "--repeats",
         "2", "--trace", str(trace)],
        cwd=ROOT, env={**os.environ, **CHILD_ENV}, capture_output=True,
        text=True)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,declared", [(0, END_TO_END), (1, PER_LAYER)])
def test_dml_mix_smoke_passes_its_oracle(trace, declared):
    result = _smoke(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 48
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, unit, *_ in declared}
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_corrupted_row_fails_the_run(monkeypatch, capsys):
    real = measure.run_clients

    def corrupting(system, clients):
        logs = real(system, clients)
        victim = next(d for log in logs for d in log if d.kind == "dml")
        victim.rows = [(7,)]
        return logs

    monkeypatch.setattr(measure, "run_clients", corrupting)
    for key, value in CHILD_ENV.items():
        monkeypatch.setenv(key, value)  # already "re-executed"
    code = main(["--workload", "dml_mix", "--repeats", "2", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
