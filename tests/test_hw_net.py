"""Network fabric model: framing, NIC queueing, loopback, determinism.

Timings use a deliberately tiny bandwidth (one frame per simulated
second) so expected clock values are round numbers.
"""

import pytest

from repro.hw.net import NetConfig, NetStats, Network
from repro.sim import Simulator

FRAME = 8192


def _net(latency=0.0, hosts=("a", "b", "c")):
    sim = Simulator()
    config = NetConfig(latency=latency, bandwidth=float(FRAME))
    return sim, Network(sim, config, hosts)


def _send(sim, net, src, dst, nbytes, delay=0.0):
    def proc():
        if delay:
            yield sim.timeout(delay)
        wire = yield from net.transfer(src, dst, nbytes)
        return (sim.now, wire)

    return sim.spawn(proc(), name=f"xfer-{src}-{dst}")


# ---------------------------------------------------------------------------
# Config and framing
# ---------------------------------------------------------------------------
def test_config_validation():
    with pytest.raises(ValueError):
        NetConfig(latency=-0.1)
    with pytest.raises(ValueError):
        NetConfig(bandwidth=0.0)


def test_messages_charge_whole_frames():
    _sim, net = _net()
    assert net.frames_for(0) == 1  # even empty messages ride one frame
    assert net.frames_for(1) == 1
    assert net.frames_for(FRAME) == 1
    assert net.frames_for(FRAME + 1) == 2
    with pytest.raises(ValueError):
        net.frames_for(-1)
    # Serialization charges wire bytes (whole frames), not payload.
    assert net.serialize_time(1) == net.serialize_time(FRAME) == 1.0
    assert net.transfer_time(1) == 2.0  # send + recv, zero latency


def test_attach_and_lookup():
    sim = Simulator()
    net = Network(sim, NetConfig(), ("a",))
    with pytest.raises(ValueError):
        net.attach("a")
    with pytest.raises(KeyError):
        net.nic("nowhere")
    net.attach("b")
    assert net.hosts == ["a", "b"]


# ---------------------------------------------------------------------------
# Transfer semantics
# ---------------------------------------------------------------------------
def test_transfer_is_store_and_forward():
    sim, net = _net(latency=0.25)
    proc = _send(sim, net, "a", "b", 100)
    sim.run()
    finished, wire = proc.value
    # 1 s sender serialization + 0.25 s propagation + 1 s receiver.
    assert finished == pytest.approx(2.25)
    assert wire == FRAME
    assert net.stats.messages == 1
    assert net.stats.frames == 1
    assert net.stats.bytes_on_wire == FRAME
    assert net.stats.per_link[("a", "b")] == [1, FRAME]


def test_loopback_is_free():
    sim, net = _net()
    proc = _send(sim, net, "a", "a", 10_000_000)
    sim.run()
    finished, wire = proc.value
    assert finished == 0.0 and wire == 0
    assert net.stats.loopback_messages == 1
    assert net.stats.messages == 0 and net.stats.bytes_on_wire == 0


def test_sender_nic_serializes_concurrent_sends():
    """Two messages out of one host share its send queue: the second
    cannot start serializing until the first is on the wire."""
    sim, net = _net()
    p1 = _send(sim, net, "a", "b", 100)
    p2 = _send(sim, net, "a", "c", 100)
    sim.run()
    # msg1: tx [0,1], rx on b [1,2]; msg2: tx [1,2], rx on c [2,3].
    assert p1.value[0] == pytest.approx(2.0)
    assert p2.value[0] == pytest.approx(3.0)


def test_receiver_nic_serializes_concurrent_arrivals():
    """Fan-in: senders serialize in parallel on their own NICs, then
    queue on the shared receiver NIC."""
    sim, net = _net()
    p1 = _send(sim, net, "b", "a", 100)
    p2 = _send(sim, net, "c", "a", 100)
    sim.run()
    finishes = sorted(p.value[0] for p in (p1, p2))
    assert finishes == [pytest.approx(2.0), pytest.approx(3.0)]


def test_fabric_is_deterministic():
    """The same spawn schedule replays to identical completion times
    and identical counters on a fresh simulator."""

    def run_once():
        sim, net = _net(latency=0.125)
        procs = [
            _send(sim, net, "a", "b", 3 * FRAME),
            _send(sim, net, "b", "c", 100, delay=0.5),
            _send(sim, net, "a", "c", FRAME + 1),
            _send(sim, net, "c", "a", 42, delay=1.0),
        ]
        sim.run()
        stats = net.stats
        return (
            [p.value for p in procs],
            (stats.messages, stats.frames, stats.bytes_on_wire),
            sorted(stats.per_link.items()),
        )

    assert run_once() == run_once()


def test_stats_default_state():
    stats = NetStats()
    assert stats.messages == 0 and stats.per_link == {}
