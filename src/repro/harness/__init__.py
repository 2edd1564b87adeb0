"""The experiment harness: one entry point per figure in the paper.

Every experiment builds fresh, seeded systems per configuration point,
runs the workload on the simulated host, and returns a structured
:class:`~repro.harness.report.Series` whose ``render()`` prints the same
rows the paper plots.  EXPERIMENTS.md records paper-vs-measured shapes.

Importing the package, and so :mod:`repro.harness.config` -- all that
building a system needs -- loads the presets and builders only.  The
figure registry (and under it the cell pool and the source digest's
import graph) is imported the first time one of its names is used.
"""

from repro.harness.config import (
    Scale,
    SMOKE,
    DEFAULT,
    collected_tracers,
    disable_tracing,
    enable_tracing,
)
from repro.harness.report import Series

__all__ = [
    "DEFAULT",
    "FIGURES",
    "Figure",
    "SMOKE",
    "Scale",
    "Series",
    "render_recovery",
    "collected_tracers",
    "disable_tracing",
    "enable_tracing",
]


def __getattr__(name: str):
    """A figure-registry name, on first use (PEP 562)."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.harness import experiments

    value = globals()[name] = getattr(experiments, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
