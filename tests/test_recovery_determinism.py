"""Determinism of the lineage/recovery path.

The recovery experiment is cell-based, so the same seed and plan must
produce byte-identical payloads -- including the sha256 digest of the
serialised lineage log -- whether the cells run serially or on a
process pool, and across repeated runs.  ``random_plan``'s log-fault
draws must also never perturb the disk/process schedule an existing
seed produces (chaos seeds are pinned in CI).
"""

from repro.faults import random_plan
from repro.harness import FIGURES
from repro.harness.config import SMOKE
from repro.parallel import PoolRunner

recovery = FIGURES["recovery"].run


def test_same_seed_same_lineage_digest():
    a = recovery(SMOKE, fault_seed=1)
    b = recovery(SMOKE, fault_seed=1)
    assert a == b
    for scenario, payload in a.items():
        assert payload["lineage_digest"] == b[scenario]["lineage_digest"]


def test_different_seed_moves_the_crash():
    a = recovery(SMOKE, fault_seed=1)
    b = recovery(SMOKE, fault_seed=2)
    # Different crash points -> different durable frontiers somewhere.
    assert any(
        a[s]["pages_saved"] != b[s]["pages_saved"] for s in a
    )
    # But both recover cleanly.
    assert all(p["outcome"] == "ok" for p in b.values())


def test_pool_runs_byte_identical_to_serial():
    """``--jobs 2`` must reproduce the serial run exactly: same rows,
    same recovery decisions, same lineage log bytes."""
    with PoolRunner(jobs=2) as runner:
        pooled = recovery(SMOKE, runner, fault_seed=1)
    serial = recovery(SMOKE, fault_seed=1)
    assert pooled == serial


def test_log_fault_draws_do_not_perturb_existing_seeds():
    """Enabling log faults appends draws strictly after every disk and
    process draw, so a pinned chaos seed keeps its exact disk/process
    schedule when the recovery leg turns log faults on."""
    for seed in (1, 2, 3, 4, 5):
        base = random_plan(seed, disk_faults=8, process_faults=4,
                           tables=["lineitem", "orders"])
        extended = random_plan(seed, disk_faults=8, process_faults=4,
                               tables=["lineitem", "orders"], log_faults=2)
        assert len(extended) == len(base) + 2
        base_lines = base.describe()
        extended_lines = extended.describe()
        # describe() is time-ordered; compare the non-log entries.
        log_lines = [l for l in extended_lines if "log" in l]
        assert len(log_lines) == 2
        rest = [l for l in extended_lines if "log" not in l]
        assert rest == base_lines
