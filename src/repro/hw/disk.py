"""A queued disk model with sequential/seek service times.

The disk is the bottleneck resource in every experiment of the paper
("the workload is disk-bound"), so its model is deliberately explicit:

* One request is serviced at a time (queue depth 1); concurrent readers
  queue FIFO, which is how independent scans slow each other down.
* A request to block ``b`` of the same file whose previous serviced block
  was ``b - 1`` pays only the transfer time; any other request pays an
  additional seek.  Interleaved scans therefore thrash the head exactly
  as they do on a real drive, and a *shared* circular scan recovers the
  sequential rate -- the mechanism behind Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Tuple

from repro.sim import Resource, Simulator


@dataclass
class DiskStats:
    """Cumulative disk counters, the raw material for Figures 1a and 8."""

    blocks_read: int = 0
    blocks_written: int = 0
    seeks: int = 0
    sequential_hits: int = 0
    read_time: float = 0.0
    write_time: float = 0.0
    #: file_id -> [blocks read, read time]; Figure 1a attributes query
    #: time to the tables it reads from this map.
    per_file: dict = field(default_factory=dict)

    def _file_entry(self, file_id: int) -> list:
        entry = self.per_file.get(file_id)
        if entry is None:
            entry = [0, 0.0]
            self.per_file[file_id] = entry
        return entry

    def snapshot(self) -> "DiskStats":
        return DiskStats(
            blocks_read=self.blocks_read,
            blocks_written=self.blocks_written,
            seeks=self.seeks,
            sequential_hits=self.sequential_hits,
            read_time=self.read_time,
            write_time=self.write_time,
            per_file={fid: list(v) for fid, v in self.per_file.items()},
        )

    def delta(self, earlier: "DiskStats") -> "DiskStats":
        """Counters accumulated since *earlier* (a prior snapshot)."""
        per_file = {}
        for fid, (blocks, time) in self.per_file.items():
            old = earlier.per_file.get(fid, (0, 0.0))
            if blocks - old[0] or time - old[1]:
                per_file[fid] = [blocks - old[0], time - old[1]]
        return DiskStats(
            blocks_read=self.blocks_read - earlier.blocks_read,
            blocks_written=self.blocks_written - earlier.blocks_written,
            seeks=self.seeks - earlier.seeks,
            sequential_hits=self.sequential_hits - earlier.sequential_hits,
            read_time=self.read_time - earlier.read_time,
            write_time=self.write_time - earlier.write_time,
            per_file=per_file,
        )


@dataclass
class Disk:
    """A single logical disk (the RAID-0 array folded into one device).

    Args:
        sim: owning simulator.
        transfer_time: seconds to move one block once the head is placed.
        seek_time: seconds of penalty for a non-sequential access.
        name: label for diagnostics.
    """

    sim: Simulator
    transfer_time: float = 0.001
    seek_time: float = 0.005
    name: str = "disk"
    stats: DiskStats = field(default_factory=DiskStats)
    #: Fault-injection hook: called as ``fault_hook(file_id, block_no)``
    #: once per read while the head is positioned; may return an action
    #: with extra latency to charge and/or an error to raise after the
    #: (possibly stretched) service time elapses.  None means no faults.
    fault_hook: Any = None

    def __post_init__(self):
        if self.transfer_time <= 0:
            raise ValueError("transfer_time must be positive")
        if self.seek_time < 0:
            raise ValueError("seek_time cannot be negative")
        self._resource = Resource(self.sim, capacity=1, name=self.name)
        self._head: Tuple[int, int] = (-1, -1)  # (file_id, last block)

    # ------------------------------------------------------------------
    def _position(self, file_id: int, block_no: int) -> float:
        """Move the head to the block; returns the service time it costs.

        Runs when the disk is handed over (``hold`` evaluates it at grant
        time), because whether the access is sequential depends on what
        was serviced last, not on what was queued last.
        """
        prev_file, prev_block = self._head
        self._head = (file_id, block_no)
        if file_id == prev_file and block_no == prev_block + 1:
            self.stats.sequential_hits += 1
            return self.transfer_time
        self.stats.seeks += 1
        return self.seek_time + self.transfer_time

    def read(self, file_id: int, block_no: int) -> Generator:
        """Coroutine: read one block, charging queueing + service time.

        When a fault hook is installed it is consulted once per read; the
        request still occupies the disk for the (possibly stretched)
        service time before an injected error surfaces, matching how a
        failing drive burns time before reporting.
        """
        action = None

        def position() -> float:
            nonlocal action
            service = self._position(file_id, block_no)
            if self.fault_hook is not None:
                action = self.fault_hook(file_id, block_no)
                if action is not None:
                    service += action.extra_latency
            return service

        service = yield self._resource.hold(position)
        self.stats.blocks_read += 1
        self.stats.read_time += service
        entry = self.stats._file_entry(file_id)
        entry[0] += 1
        entry[1] += service
        if action is not None and action.error is not None:
            raise action.error

    def write(self, file_id: int, block_no: int) -> Generator:
        """Coroutine: write one block (same head mechanics as reads)."""
        service = yield self._resource.hold(
            lambda: self._position(file_id, block_no)
        )
        self.stats.blocks_written += 1
        self.stats.write_time += service

    @property
    def queue_length(self) -> int:
        return self._resource.queue_length

    def utilization(self) -> float:
        return self._resource.utilization()

    def sequential_scan_time(self, blocks: int) -> float:
        """Analytic time for an undisturbed scan of *blocks* blocks."""
        if blocks <= 0:
            return 0.0
        return self.seek_time + blocks * self.transfer_time
