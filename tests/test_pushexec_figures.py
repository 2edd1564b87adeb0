"""Two figure cells pinned to committed payload hashes.

One fig8 cell (Baseline, on the packet engine) and one fig12 cell
(DBMS X, on the iterator engine) must reproduce their *committed*
payload hashes serially and on a two-worker process pool.

The hashes are part of the repository's recorded results: if a change
legitimately moves a figure, recompute them with the snippet in each
test's failure message.
"""

import hashlib
import json

from repro.harness.config import SMOKE
from repro.harness.experiments import FIGURES
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
    for jobs in (1, 2):
        got = _sha(_run(spec, jobs))
        assert got == committed_sha, (
            f"{spec.figure} cell hash {got} != committed "
            f"{committed_sha} (coords={dict(spec.coords)}, "
            f"jobs={jobs}); if the figure legitimately moved, "
            f"recompute with _sha(run_cells_serial([spec])[spec])"
        )


def test_fig8_cell_hash_matches_committed_output():
    _check_cell(_fig8_spec(), FIG8_CELL_SHA)


def test_fig12_cell_hash_matches_committed_output():
    _check_cell(_fig12_spec(), FIG12_CELL_SHA)

