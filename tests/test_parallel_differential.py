"""Serial-vs-parallel differential: figures must not care how their
cells were executed.

Three properties cover the fabric end to end:

1. every figure's merge orders output by the declarative spec list, so
   feeding it payloads in a scrambled completion order changes nothing;
2. payloads survive a JSON roundtrip unchanged, so a cache-served cell
   merges byte-identically with a freshly computed one;
3. a real spawn-context pool (fresh worker interpreters) reproduces the
   serial payloads exactly -- module state cannot leak into results.
"""

import json

import pytest

from repro.harness import experiments as E
from repro.harness.config import SMOKE
from repro.parallel import PoolRunner
from repro.parallel.cells import run_cells_serial

#: Reduced grids: same structure as the CLI figures, minutes less work.
REDUCED = {
    "fig1a": {},
    "fig1b": {"count": (1, 2)},
    "fig4": {"progress_points": (0.0, 0.5)},
    "fig8": {"count": (2,), "gap": (0, 20)},
    "fig9": {"gap": (0, 40)},
    "fig10": {"gap": (0, 40)},
    "fig11": {"gap": (0, 40)},
    "fig12": {"count": (1, 2)},
    "fig13": {"think": (0, 20), "clients": 2},
    "overhead": {"queries": 2},
    "ablation-policies": {"policy": ("lru", "mru"), "clients": 2},
    "ablation-replay": {"ring": (16, 4096)},
    "ablation-wraparound": {"clients": 2, "gap": (0, 20)},
    "ablation-late-activation": {"clients": 2},
    "recovery": {"scenario": ("scan", "agg")},
}


def _specs(name):
    return E.FIGURES[name].specs(SMOKE, **REDUCED[name])


def _render(name, specs, payloads):
    figure = E.FIGURES[name]
    return figure.render(figure.reduce(specs, payloads))


_PAYLOADS = {}


def _payloads(name):
    if name not in _PAYLOADS:
        _PAYLOADS[name] = run_cells_serial(_specs(name))
    return _PAYLOADS[name]


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_merge_is_execution_order_independent(name):
    specs = _specs(name)
    payloads = _payloads(name)
    reference = _render(name, specs, payloads)
    scrambled = dict(reversed(list(payloads.items())))
    assert _render(name, specs, scrambled) == reference
    assert "None" not in reference.splitlines()[0]


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_merge_survives_json_roundtrip(name):
    """A cache-served payload must merge byte-identically with a fresh
    one, so payloads may use only JSON-faithful types."""
    specs = _specs(name)
    payloads = _payloads(name)
    roundtripped = {
        spec: json.loads(json.dumps(payload))
        for spec, payload in payloads.items()
    }
    assert _render(name, specs, roundtripped) == _render(
        name, specs, payloads
    )


def test_spawn_pool_matches_serial_exactly():
    """Real process pool: byte-identical renders, not just close ones."""
    specs = _specs("fig8")
    serial = _payloads("fig8")
    with PoolRunner(jobs=2) as runner:
        results = runner.run(specs)
    parallel = {spec: r.payload for spec, r in results.items()}
    assert parallel == serial
    assert _render("fig8", specs, parallel) == _render(
        "fig8", specs, serial
    )


def test_run_on_a_pool_runner_equals_run_serial():
    """`Figure.run(scale, runner)` is the call the CLI makes with its
    pool: it must reduce to what the serial in-process run reduces to,
    and to what reducing the serial payloads directly gives."""
    figure = E.FIGURES["fig8"]
    serial = figure.run(SMOKE, **REDUCED["fig8"])
    with PoolRunner(jobs=2) as runner:
        pooled = figure.run(SMOKE, runner, **REDUCED["fig8"])
    direct = figure.reduce(_specs("fig8"), _payloads("fig8"))
    assert pooled[2].render() == serial[2].render() == direct[2].render()
