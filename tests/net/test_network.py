"""Tests for the network fabric."""

import random

import pytest

from repro.net import (
    ConstantLatency,
    LinkProfile,
    Message,
    Network,
    Node,
    lan_profile,
    loopback_profile,
    wan_profile,
)
from repro.sim import Simulator


class Recorder(Node):
    """Test node that records (time, message) pairs: it has no handler,
    so every message reaches ``on_unhandled``."""

    def __init__(self, name, **kwargs):
        super().__init__(name, **kwargs)
        self.received = []

    def on_unhandled(self, message):
        self.received.append((self.sim.now, message))


def make_net(default_latency=1e-3, bandwidth=1e6):
    sim = Simulator()
    net = Network(
        sim,
        rng=random.Random(1),
        default_profile=LinkProfile(
            latency=ConstantLatency(default_latency), bandwidth=bandwidth
        ),
    )
    return sim, net


def test_send_delivers_after_latency_and_serialisation():
    sim, net = make_net(default_latency=0.010, bandwidth=1e6)
    a = net.add_node(Recorder("a"))
    b = net.add_node(Recorder("b"))
    a.send("b", "test", "hello", size_bytes=10_000)
    sim.run()
    t, msg = b.received[0]
    assert t == pytest.approx(0.010 + 0.010)  # 10 ms latency + 10 ms serialise
    assert msg.payload == "hello"


def test_duplicate_node_name_rejected():
    _, net = make_net()
    net.add_node(Recorder("a"))
    with pytest.raises(ValueError):
        net.add_node(Recorder("a"))


def test_unknown_destination_dropped_silently():
    sim, net = make_net()
    a = net.add_node(Recorder("a"))
    a.send("ghost", "test", None, size_bytes=10)
    sim.run()
    assert net.delivered_count == 0
    assert net.stats.total.messages == 1  # still accounted as sent


def test_node_removed_while_in_flight():
    sim, net = make_net(default_latency=1.0)
    a = net.add_node(Recorder("a"))
    b = net.add_node(Recorder("b"))
    a.send("b", "test", None, size_bytes=10)
    sim.after(0.5, lambda: net.remove_node("b"))
    sim.run()
    assert b.received == []


def test_pair_profile_overrides_default():
    sim, net = make_net(default_latency=1.0)
    a = net.add_node(Recorder("a"))
    b = net.add_node(Recorder("b"))
    net.set_prefix_profile(
        "a", "b", LinkProfile(latency=ConstantLatency(0.001), bandwidth=1e9)
    )
    a.send("b", "test", None, size_bytes=10)
    sim.run()
    assert b.received[0][0] < 0.01


def test_prefix_profile_matches_host_classes():
    sim, net = make_net(default_latency=1.0)
    c = net.add_node(Recorder("client.1"))
    s = net.add_node(Recorder("gs.1"))
    net.set_prefix_profile(
        "client.", "gs.", LinkProfile(latency=ConstantLatency(0.002), bandwidth=1e9)
    )
    c.send("gs.1", "test", None, size_bytes=10)
    sim.run()
    assert s.received[0][0] == pytest.approx(0.002, rel=0.1)


def test_colocated_uses_loopback():
    sim, net = make_net(default_latency=1.0)
    gs = net.add_node(Recorder("gs.1"))
    ms = net.add_node(Recorder("ms.1"))
    net.set_colocated("gs.1", "ms.1")
    gs.send("ms.1", "test", None, size_bytes=100)
    sim.run()
    assert ms.received[0][0] < 1e-3


def test_stats_accumulate():
    sim, net = make_net()
    a = net.add_node(Recorder("a"))
    net.add_node(Recorder("b"))
    for _ in range(3):
        a.send("b", "game.update", None, size_bytes=50)
    a.send("b", "mc.table", None, size_bytes=500)
    sim.run()
    assert net.stats.total.messages == 4
    assert net.stats.total.bytes == 650
    assert net.stats.by_kind["game.update"].messages == 3
    assert net.stats.kind_messages("mc.") == 1
    assert net.stats.by_pair["a", "b"].bytes == 650
    assert net.stats.by_node_sent["a"].bytes == 650
    assert net.stats.by_node_received["b"].bytes == 650


def test_kind_bytes_prefix():
    sim, net = make_net()
    a = net.add_node(Recorder("a"))
    net.add_node(Recorder("b"))
    a.send("b", "matrix.forward", None, size_bytes=100)
    a.send("b", "matrix.state", None, size_bytes=200)
    a.send("b", "game.update", None, size_bytes=50)
    sim.run()
    assert net.stats.kind_bytes("matrix.") == 300


def test_profiles_have_sane_magnitudes():
    rng = random.Random(0)
    assert loopback_profile().latency.sampler(rng)() < 1e-3
    assert lan_profile().latency.sampler(rng)() < 2e-3
    assert 0.005 <= wan_profile().latency.sampler(rng)() <= 0.1


def test_detached_node_raises():
    node = Recorder("x")
    with pytest.raises(RuntimeError):
        _ = node.network
    with pytest.raises(RuntimeError):
        _ = node.inbox


def test_unattached_node_has_no_sim_and_cannot_send():
    node = Recorder("x")
    assert node.sim is None
    with pytest.raises(RuntimeError, match="not attached"):
        node.send("y", "test", None, size_bytes=1)


def test_messages_to_self_allowed():
    sim, net = make_net()
    a = net.add_node(Recorder("a"))
    a.send("a", "test", "self", size_bytes=10)
    sim.run()
    assert a.received[0][1].payload == "self"


def test_finite_service_rate_node_queues():
    sim, net = make_net(default_latency=1e-6)
    a = net.add_node(Recorder("a"))
    b = net.add_node(Recorder("b", service_rate=10.0))
    for i in range(100):
        a.send("b", "t", i, size_bytes=1)
    sim.run(until=1.0)
    assert b.inbox.length > 80
    sim.run(until=60.0)
    assert b.inbox.length == 0
    assert len(b.received) == 100
