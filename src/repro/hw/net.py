"""A queued, bandwidth/latency-modeled link fabric between hosts.

The model (DESIGN.md section 16) follows the disk's discipline exactly
-- queueing at a capacity-1 resource, whole-unit charging, deterministic
service order -- so distributed runs stay bit-reproducible:

* every attached host owns one :class:`NIC` with a *send* queue and a
  *receive* queue, each a capacity-1 FIFO :class:`~repro.sim.sync.Resource`;
  concurrent messages on one host serialize exactly like concurrent
  reads on its disk;
* a message of ``b`` payload bytes is framed into
  ``ceil(b / frame_bytes)`` fixed-size frames and charged **whole
  frames** on the wire -- the same whole-block charging the disk model
  uses for partially-filled pages;
* service is store-and-forward: the sender NIC is occupied for
  ``frames * frame_bytes / bandwidth`` seconds, a fixed propagation
  latency elapses, then the receiver NIC is occupied for the same
  serialization time again;
* delivery order is deterministic because the NIC queues are FIFO
  resources on a deterministic event kernel: two runs of the same
  workload interleave messages identically.

Loopback (``src == dst``) is free and instantaneous: exchange partners
that are co-resident on one host hand batches over in memory, which is
what lets a 1-host "sharded" run cost the same as a plain run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Tuple

from repro.sim import Simulator
from repro.sim.sync import Resource


@dataclass(frozen=True)
class NetConfig:
    """Link fabric knobs (one shared medium model; no per-link config).

    The defaults describe a commodity datacenter link: ~1 GbE effective
    bandwidth with sub-millisecond propagation.  Harness presets rescale
    bandwidth relative to the calibrated virtual disk so the network is
    fast-but-not-free next to a scan (Rödiger et al.'s regime).
    """

    #: One-way propagation delay per message, seconds.
    latency: float = 0.0005
    #: NIC serialization bandwidth, bytes/second.
    bandwidth: float = 125_000_000.0
    #: Frame size; messages are charged in whole frames, like disk blocks.
    frame_bytes: int = 8192

    def __post_init__(self):
        if self.latency < 0:
            raise ValueError("latency cannot be negative")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.frame_bytes < 1:
            raise ValueError("frame_bytes must be >= 1")


@dataclass
class NetStats:
    """Cumulative fabric counters (wire bytes are whole-frame bytes)."""

    messages: int = 0
    loopback_messages: int = 0
    frames: int = 0
    bytes_on_wire: int = 0
    send_time: float = 0.0
    recv_time: float = 0.0
    #: (src, dst) -> [messages, wire bytes]; loopback is not a link.
    per_link: Dict[Tuple[str, str], List[int]] = field(default_factory=dict)


class NIC:
    """One host's network interface: a send queue and a receive queue."""

    __slots__ = ("host", "tx", "rx")

    def __init__(self, sim: Simulator, host: str):
        self.host = host
        self.tx = Resource(sim, capacity=1, name=f"{host}.nic.tx")
        self.rx = Resource(sim, capacity=1, name=f"{host}.nic.rx")


class Network:
    """The cluster's link fabric: NICs per host, one shared cost model.

    Args:
        sim: the cluster's shared simulator.
        config: bandwidth/latency/framing knobs.
        hosts: host names to attach immediately (more may be attached
            later with :meth:`attach`).
    """

    def __init__(
        self,
        sim: Simulator,
        config: NetConfig = NetConfig(),
        hosts: Tuple[str, ...] = (),
    ):
        self.sim = sim
        self.config = config
        self.stats = NetStats()
        self._nics: Dict[str, NIC] = {}
        for name in hosts:
            self.attach(name)

    # ------------------------------------------------------------------
    def attach(self, host: str) -> NIC:
        """Give *host* a NIC (idempotent is an error: names are unique)."""
        if host in self._nics:
            raise ValueError(f"host {host!r} already attached")
        nic = NIC(self.sim, host)
        self._nics[host] = nic
        return nic

    def nic(self, host: str) -> NIC:
        try:
            return self._nics[host]
        except KeyError:
            raise KeyError(
                f"no host {host!r} on this network; have "
                f"{sorted(self._nics)}"
            ) from None

    @property
    def hosts(self) -> List[str]:
        return sorted(self._nics)

    # ------------------------------------------------------------------
    def frames_for(self, nbytes: int) -> int:
        """Whole frames needed for *nbytes* of payload (min 1)."""
        if nbytes < 0:
            raise ValueError(f"message size cannot be negative: {nbytes}")
        return max(1, -(-nbytes // self.config.frame_bytes))

    def serialize_time(self, nbytes: int) -> float:
        """Seconds one NIC is occupied serializing *nbytes* of payload."""
        wire = self.frames_for(nbytes) * self.config.frame_bytes
        return wire / self.config.bandwidth

    def transfer_time(self, nbytes: int) -> float:
        """Analytic uncontended one-way latency for *nbytes* (planning
        estimates; the coroutine below is what actually charges time)."""
        return 2 * self.serialize_time(nbytes) + self.config.latency

    # ------------------------------------------------------------------
    def transfer(
        self, src: str, dst: str, nbytes: int, tag: str = "msg"
    ) -> Generator:
        """Coroutine: move one *nbytes* message from *src* to *dst*.

        Charges sender serialization (queued on the src NIC's send
        queue), propagation latency, then receiver serialization (queued
        on the dst NIC's receive queue) -- store-and-forward.  Returns
        the wire bytes charged (whole frames).  Loopback is free.
        """
        if src == dst:
            self.nic(src)  # still validates the host exists
            self.stats.loopback_messages += 1
            return 0
        snic = self.nic(src)
        rnic = self.nic(dst)
        frames = self.frames_for(nbytes)
        wire = frames * self.config.frame_bytes
        service = wire / self.config.bandwidth
        tracer = self.sim.tracer

        yield snic.tx.hold(service)
        self.stats.send_time += service
        tracer.net(
            "send", src=src, dst=dst, bytes=wire, frames=frames, tag=tag
        )

        if self.config.latency:
            yield self.sim.timeout(self.config.latency)

        yield rnic.rx.hold(service)
        self.stats.recv_time += service

        self.stats.messages += 1
        self.stats.frames += frames
        self.stats.bytes_on_wire += wire
        link = self.stats.per_link.setdefault((src, dst), [0, 0])
        link[0] += 1
        link[1] += wire
        tracer.net(
            "recv", src=src, dst=dst, bytes=wire, frames=frames, tag=tag
        )
        return wire
