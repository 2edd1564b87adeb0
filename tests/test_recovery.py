"""Mid-query recovery: crashed queries resume instead of restarting.

Drives the ``recovery`` experiment's crash scenarios (each runs a
fault-free reference plus a crashed-and-recovered run and demands
byte-identical rows) and the chaos figure's recovery runs on both
servers it attacks.
"""

import pytest

from repro.harness.config import SMOKE
from repro.harness.experiments import FIGURES, RECOVERY_SCENARIOS


@pytest.fixture(scope="module")
def scenarios():
    return FIGURES["recovery"].run(SMOKE, fault_seed=1)


def test_covers_every_scenario(scenarios):
    assert set(scenarios) == set(RECOVERY_SCENARIOS)


@pytest.mark.parametrize("scenario", RECOVERY_SCENARIOS)
def test_scenario_recovers_byte_identical(scenarios, scenario):
    payload = scenarios[scenario]
    assert payload["outcome"] == "ok"
    assert payload["byte_identical"] is True
    assert payload["violations"] == []
    assert len(payload["faults_fired"]) >= 1


@pytest.mark.parametrize("scenario", ["scan", "scan-noshare"])
def test_scan_crash_saves_rescanning_with_and_without_osp(
    scenarios, scenario
):
    """The headline acceptance number: a mid-scan crash must resume
    from the durable frontier -- strictly fewer pages rescanned than a
    restart -- whether the scan was OSP-shared or solo."""
    payload = scenarios[scenario]
    assert payload["recoveries"] >= 1
    assert payload["clean_restarts"] == 0
    assert 0 < payload["pages_saved"] < payload["pages_total"]


def test_osp_pair_resumes_at_circular_offset(scenarios):
    """The crashed consumer attached mid-circular-scan; its resume must
    honour its own wrapped page order, not its peer's."""
    payload = scenarios["osp-pair"]
    assert payload["recoveries"] >= 1
    assert payload["pages_saved"] > 0


def test_agg_resumes_from_checkpoint(scenarios):
    payload = scenarios["agg"]
    assert payload["recoveries"] >= 1
    assert payload["pages_saved"] > 0


def test_torn_record_degrades_never_lies(scenarios):
    """A torn tail truncates the durable frontier: recovery may save
    fewer pages, but the rows are still byte-identical."""
    payload = scenarios["torn"]
    assert payload["outcome"] == "ok"
    assert payload["byte_identical"] is True


def test_log_write_error_degrades_cleanly(scenarios):
    payload = scenarios["log-error"]
    assert payload["outcome"] == "ok"
    assert payload["byte_identical"] is True
    # The query still finishes even though lineage recording died.
    assert payload["attempts"] >= 2


@pytest.mark.parametrize("scenario", ["iterator-crash", "iterator"])
def test_other_backends_recover(scenarios, scenario):
    payload = scenarios[scenario]
    assert payload["recoveries"] >= 1
    assert payload["pages_saved"] > 0


def test_lineage_log_pays_for_durability(scenarios):
    """Recovery is not free: the recovered runs must have recorded
    lineage and charged simulated log-device writes."""
    payload = scenarios["scan"]
    assert payload["lineage_records"] > 0
    assert payload["log_blocks"] > 0


# ---------------------------------------------------------------------------
# Chaos with recovery enabled
# ---------------------------------------------------------------------------
def chaos_with_recovery(seed, system):
    (result,) = FIGURES["chaos"].run(
        SMOKE, fault_seed=seed, recovery=(True,), system=(system,)
    )
    return result


@pytest.mark.parametrize(
    "system", ["qpipe", "dbmsx"], ids=["packets", "iterator"]
)
def test_chaos_with_recovery_holds_invariants(system):
    result = chaos_with_recovery(3, system)
    assert result["violations"] == []
    assert result["recovery"] is True
    # Seed 3's plan crashes resumable queries: some recoveries happen
    # and they save real rescanning work.
    assert result["recoveries"] >= 1
    assert result["pages_saved"] > 0


def test_chaos_recovery_survives_log_faults():
    """The recovery leg arms extra log-device faults; a fault plan that
    tears or fails lineage flushes must still never corrupt results."""
    result = chaos_with_recovery(2, "qpipe")
    assert result["violations"] == []
