"""The host bundle: one simulator plus its hardware models and cost knobs.

A single-host experiment builds one :class:`Host`, which owns a private
:class:`~repro.sim.kernel.Simulator`.  A scale-out experiment builds a
:class:`Cluster`: N hosts sharing **one** simulator (one virtual clock),
each with its own disk and CPU cores, linked by a
:class:`~repro.hw.net.Network`.  Sharing the clock is what makes
distributed runs exactly as deterministic as single-host ones -- there
is no cross-host time skew to model away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.hw.cpu import CPU
from repro.hw.disk import Disk
from repro.hw.net import NetConfig, Network
from repro.sim import Simulator


@dataclass
class HostConfig:
    """Hardware and cost-model knobs, scaled per DESIGN.md section 5.

    The defaults give a ~2 MB/s effective sequential disk (8 KB blocks at
    4 ms each), so a ~1,500-block LINEITEM scan takes ~6 simulated seconds
    per configured `time_scale`; harness presets stretch this so that full
    scans take on the order of 100 simulated seconds, matching the paper's
    interarrival sweeps.
    """

    cores: int = 2
    disk_transfer_time: float = 0.004
    disk_seek_time: float = 0.02
    #: CPU seconds to process one tuple through one operator.
    cpu_per_tuple: float = 0.00001
    #: CPU seconds for a buffer-pool hit (in-memory page access).
    page_hit_cost: float = 0.00002
    #: comparison cost multiplier used by sort (n log n * this).
    sort_cpu_factor: float = 1.0


@dataclass
class Host:
    """One simulated machine: clock, disk and CPU.

    A standalone experiment builds exactly one Host (which creates its
    own Simulator), then builds a storage manager and an engine on top
    of it.  Cluster members are built with a shared ``sim`` so every
    host's disk and CPU queue on one clock, and a ``name`` that labels
    the per-host disk resource and the host's NIC on the network.
    """

    config: HostConfig = field(default_factory=HostConfig)
    #: Shared simulator for cluster members; None builds a private one.
    sim: Optional[Simulator] = None
    #: Diagnostic label; cluster builders pass ``host0``, ``host1``, ...
    name: str = "host"

    def __post_init__(self):
        if self.sim is None:
            self.sim = Simulator()
        disk_name = "disk" if self.node is None else f"{self.node}.disk"
        self.disk = Disk(
            self.sim,
            transfer_time=self.config.disk_transfer_time,
            seek_time=self.config.disk_seek_time,
            name=disk_name,
        )
        self.cpu = CPU(self.sim, cores=self.config.cores)

    @property
    def node(self) -> Optional[str]:
        """The cluster member's name, which keys its per-host trace
        identities (disk, packet and query ids); None when standalone."""
        return None if self.name == "host" else self.name

    @property
    def now(self) -> float:
        return self.sim.now

    def run(self, until=None) -> float:
        return self.sim.run(until=until)


@dataclass(frozen=True)
class ClusterConfig:
    """An N-host symmetric cluster: identical hosts, one link fabric."""

    hosts: int = 2
    host: HostConfig = field(default_factory=HostConfig)
    net: NetConfig = field(default_factory=NetConfig)

    def __post_init__(self):
        if self.hosts < 1:
            raise ValueError(f"cluster needs >= 1 host: {self.hosts}")


class Cluster:
    """N hosts on one shared virtual clock, linked by a Network.

    Host ``i`` is named ``host{i}``.  Each host owns its own disk and
    CPU; callers layer one storage manager (buffer pool, WAL, locks) and
    engine per host on top (:class:`repro.shard.topology.ShardedSystem`
    does exactly that).
    """

    def __init__(self, config: ClusterConfig = ClusterConfig()):
        self.config = config
        self.sim = Simulator()
        self.hosts: List[Host] = [
            Host(
                config.host,
                sim=self.sim,
                name=f"host{i}",
            )
            for i in range(config.hosts)
        ]
        self.network = Network(
            self.sim, config.net, tuple(h.name for h in self.hosts)
        )

    def __len__(self):
        return len(self.hosts)

    def host(self, i: int) -> Host:
        return self.hosts[i]

    @property
    def now(self) -> float:
        return self.sim.now

    def run(self, until=None) -> float:
        return self.sim.run(until=until)
