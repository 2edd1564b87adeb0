"""The chaos figure: randomized faults, invariant-checked.

Under any seeded fault plan, every query in the Figure 12 mix must
either complete with results identical to a fault-free run or fail
cleanly with a typed error and all resources reclaimed -- on both
servers, with lineage recovery off and on -- and the same fault seed
must reproduce the exact same trace, byte for byte.
"""

import functools

import pytest

from repro.harness import FIGURES, SMOKE
from repro.harness.experiments import render_chaos

SMOKE_SEEDS = [1, 2, 3]


@functools.lru_cache(maxsize=None)
def chaos_blocks(seed):
    return tuple(FIGURES["chaos"].run(SMOKE, fault_seed=seed))


@pytest.mark.parametrize("seed", SMOKE_SEEDS)
def test_chaos_smoke_is_clean(seed):
    blocks = chaos_blocks(seed)
    assert [(b["recovery"], b["system"]) for b in blocks] == [
        (False, "qpipe"), (False, "dbmsx"), (True, "qpipe"), (True, "dbmsx"),
    ]
    for result in blocks:
        assert result["violations"] == [], "\n".join(result["violations"])
        for name, verdict in result["outcomes"]:
            ok = verdict in ("OK", "DISCONNECTED") or verdict.startswith(
                "FAILED("
            )
            assert ok, f"{name}: unexpected outcome {verdict}"
    assert not FIGURES["chaos"].failed(list(blocks))
    # render_chaos must format every outcome without blowing up.
    text = render_chaos(list(blocks))
    assert text.count("invariants: all clean") == len(blocks)


def test_chaos_failures_are_typed():
    """Across the smoke seeds at least one query fails, and every
    failure carries a typed FaultError class name (never a bare
    Exception leaking out of the engine)."""
    failures = []
    for seed in SMOKE_SEEDS:
        for result in chaos_blocks(seed):
            for _name, verdict in result["outcomes"]:
                if verdict.startswith("FAILED("):
                    failures.append(verdict[len("FAILED("):-1])
    assert failures, "no fault plan in the smoke set caused a failure"
    allowed = {"DiskReadError", "PageCorruptError", "QueryAborted"}
    assert set(failures) <= allowed


def test_chaos_is_deterministic():
    """Identical fault seed and config produce a byte-identical trace
    (the payload carries its sha256) and identical verdicts."""
    again = FIGURES["chaos"].run(SMOKE, fault_seed=3)
    assert list(chaos_blocks(3)) == again
    assert len({b["trace_sha256"] for b in again}) == len(again)
