"""Byte-identical figures on the push backend.

The ``--engine pushed`` contract: substituting the push backend into a
figure's engine-invariant cells must not change a byte of the output.
These tests pin one fig8 cell and one fig12 cell to *committed* payload
hashes and check that the packet machinery and the push backend --
serially and on a two-worker process pool -- all reproduce them.

The hashes are part of the repository's recorded results: if a change
legitimately moves a figure, recompute them with the snippet in each
test's failure message.
"""

import hashlib
import json

from repro.harness.config import SMOKE
from repro.harness.experiments import FIGURES, substitute_engine
from repro.parallel import PoolRunner

#: sha256 of the canonical-JSON payload of one committed cell each.
FIG8_CELL_SHA = (
    "2abaca4911e68fa9bfbf3482ee797fd5b9045b841fdff7253557c5fe15de6477"
)
FIG12_CELL_SHA = (
    "24c5b18b98306ec1d61f7c33a24e35d1ac9ff000048343eeca654153b9043d09"
)


def _sha(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def _fig8_spec():
    return [
        s
        for s in FIGURES["fig8"].specs(SMOKE)
        if s.coord["count"] == 2
        and s.coord["system"] == "baseline"
        and s.coord["gap"] == 20
    ][0]


def _fig12_spec():
    return [
        s
        for s in FIGURES["fig12"].specs(SMOKE)
        if s.coord["system"] == "dbmsx" and s.coord["count"] == 2
    ][0]


def _run(spec, jobs):
    with PoolRunner(jobs=jobs) as runner:
        return runner.run([spec])[spec].payload


def _check_cell(spec, committed_sha):
    pushed = substitute_engine([spec], "pushed")[0]
    assert pushed is not spec and dict(pushed.coords)["engine"] == "pushed"
    for candidate in (spec, pushed):
        for jobs in (1, 2):
            got = _sha(_run(candidate, jobs))
            assert got == committed_sha, (
                f"{candidate.figure} cell hash {got} != committed "
                f"{committed_sha} (coords={dict(candidate.coords)}, "
                f"jobs={jobs}); if the figure legitimately moved, "
                f"recompute with _sha(run_cells_serial([spec])[spec])"
            )


def test_fig8_cell_hash_matches_committed_output():
    _check_cell(_fig8_spec(), FIG8_CELL_SHA)


def test_fig12_cell_hash_matches_committed_output():
    _check_cell(_fig12_spec(), FIG12_CELL_SHA)


def test_substitute_engine_rewrites_only_invariant_slots():
    """OSP cells must stay on the packet engine -- sharing lives there --
    while dbms-x / baseline-fig8 cells may move to the push backend."""
    rewritten = substitute_engine(FIGURES["fig8"].specs(SMOKE), "pushed")
    for spec in rewritten:
        c = dict(spec.coords)
        if c["system"] == "qpipe":
            assert "engine" not in c
        else:
            assert c["engine"] == "pushed"
    rewritten = substitute_engine(FIGURES["fig12"].specs(SMOKE), "pushed")
    for spec in rewritten:
        c = dict(spec.coords)
        assert ("engine" in c) == (c["system"] == "dbmsx")
    # backend "packets" is the identity.
    originals = FIGURES["fig12"].specs(SMOKE)
    assert substitute_engine(originals, "packets") == originals


def test_engine_coordinate_changes_the_cache_key():
    """Packet- and push-backed runs of the same grid point must never
    collide in the content-addressed cell cache."""
    spec = _fig8_spec()
    pushed = substitute_engine([spec], "pushed")[0]
    assert spec.slug() != pushed.slug()
