"""A multi-core CPU model charging per-batch processing bursts.

QPipe workers, baseline iterator queries, and client-side glue all charge
CPU time in short bursts (one per tuple batch).  Because bursts are short
relative to disk service times, FIFO queueing of bursts approximates the
preemptive processor-sharing discipline the paper's OS scheduler provides,
while remaining deterministic.
"""

from __future__ import annotations

from typing import Generator

from repro.sim import Resource, Simulator


class CPU:
    """A bank of *cores* identical cores.

    Usage inside a process::

        yield from cpu.burst(n_tuples * cost_per_tuple)
    """

    def __init__(self, sim: Simulator, cores: int = 1, name: str = "cpu"):
        if cores < 1:
            raise ValueError(f"cores must be >= 1: {cores}")
        self.sim = sim
        self.cores = cores
        self.name = name
        self._resource = Resource(sim, capacity=cores, name=name)
        self.total_burst_time = 0.0
        self.total_bursts = 0

    def burst(self, cost: float) -> Generator:
        """Coroutine: occupy one core for *cost* virtual seconds."""
        if cost < 0:
            raise ValueError(f"negative CPU cost: {cost}")
        if cost == 0:
            return
        yield self._resource.hold(cost)
        self.total_burst_time += cost
        self.total_bursts += 1

    @property
    def queue_length(self) -> int:
        return self._resource.queue_length

    def utilization(self) -> float:
        """Time-averaged busy cores in [0, cores]."""
        return self._resource.utilization()
