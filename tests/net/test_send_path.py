"""The resolved-route send path: fan-outs, routes, direct dispatch.

``Node.multicast`` must be indistinguishable from one ``Node.send`` per
destination — same accounting, taps, latency draws and arrival order —
on the plain and the sharded network.  Routes must follow profile-rule
changes made after traffic has flowed, and a node that filters in
``handle_message`` must keep filtering when its queue dispatches.
"""

import random

import pytest

from repro.core.config import MatrixConfig
from repro.core.coordinator import StandbyCoordinator
from repro.core.messages import UnregisterServer
from repro.games.profile import bzflag_profile
from repro.geometry import Rect, Vec2
from repro.geometry.sharding import ShardMap
from repro.harness.runner import run_scenario
from repro.net import (
    ConstantLatency,
    LinkProfile,
    Network,
    Node,
    NormalLatency,
    handles,
)
from repro.net.middleware import MiddlewareStage
from repro.net.sharded import ShardedNetwork
from repro.sim import RngRegistry, ShardedSimulator, Simulator
from repro.workload.scenarios import ArrivalWave, Scenario

WAN = LinkProfile(NormalLatency(25e-3, 8e-3, floor=5e-3), 1.25e6)
WORLD = Rect(0.0, 0.0, 100.0, 100.0)


class Sink(Node):
    def __init__(self, name, log, **kwargs):
        super().__init__(name, **kwargs)
        self._log = log

    @handles("probe")
    def _on_probe(self, message):
        self._log.append((self.name, self.sim.now, message.sent_at))


def build(sharded):
    """A source, six sinks (a finite-rate one among them) and a tap."""
    if sharded:
        engine = ShardedSimulator(2)
        network = ShardedNetwork(
            engine, ShardMap(WORLD, 2), RngRegistry(seed=7), default_profile=WAN
        )
        engine.lookahead = network.minimum_cross_latency()
    else:
        engine = Simulator()
        network = Network(engine, rng=random.Random(7), default_profile=WAN)
    log, tapped = [], []
    network.add_tap(lambda message: tapped.append((message.dst, message.sent_at)))
    source = Sink("src", log)
    source.shard_anchor = Vec2(10, 50)
    network.add_node(source)
    for index in range(6):
        rate = 400.0 if index == 2 else float("inf")
        sink = Sink(f"p{index}", log, service_rate=rate)
        sink.shard_anchor = Vec2(10 if index % 2 else 90, 50)  # both lanes
        network.add_node(sink)
    return engine, network, source, log, tapped


DESTINATIONS = ["p3", "p0", "ghost", "p2", "p5", "p2", "p1", "p4"]


@pytest.mark.parametrize("sharded", [False, True], ids=["plain", "sharded"])
def test_multicast_matches_sends(sharded):
    outcomes = []
    for fan_out in ("multicast", "send"):
        engine, network, source, log, tapped = build(sharded)

        def burst(_=None):
            for round_ in range(3):
                if fan_out == "multicast":
                    source.multicast(DESTINATIONS, "probe", round_, 120)
                else:
                    for dst in DESTINATIONS:
                        source.send(dst, "probe", round_, 120)

        source.sim.at(0.5, burst)
        engine.run(until=5.0)
        outcomes.append(
            (
                network.stats.canonical_digest(),
                log,
                tapped,
                network.undeliverable_count,
                network.delivered_count,
            )
        )
    multicast, sends = outcomes
    assert multicast == sends
    assert multicast[3] == 3  # the unknown destination, once a round
    assert len(multicast[1]) == 3 * (len(DESTINATIONS) - 1)


class Counting(MiddlewareStage):
    def __init__(self):
        super().__init__()
        self.outbound = []

    def on_outbound(self, message):
        self.outbound.append(message.dst)
        return message


def test_multicast_with_a_stage_sends_each_message_through_it():
    engine, network, source, log, _ = build(sharded=False)
    stage = source.use(Counting())
    source.multicast(["p0", "p1", "ghost"], "probe", None, 10)
    engine.run()
    assert stage.outbound == ["p0", "p1", "ghost"]
    assert sorted(name for name, _, _ in log) == ["p0", "p1"]


def test_profile_change_after_traffic_changes_the_next_delay():
    sim = Simulator()
    network = Network(
        sim, default_profile=LinkProfile(ConstantLatency(0.010), 1e9)
    )
    log = []
    source = network.add_node(Sink("a", log))
    network.add_node(Sink("b", log))
    source.send("b", "probe", None, 0)
    sim.run()
    network.set_prefix_profile("a", "b", LinkProfile(ConstantLatency(0.050), 1e9))
    source.send("b", "probe", None, 0)
    sim.run()
    network.set_prefix_profile("", "", LinkProfile(ConstantLatency(0.1), 1e9))
    network.set_colocated("a", "b")
    source.send("b", "probe", None, 0)
    sim.run()
    loopback = network.profile_for("a", "b").latency.fixed
    delays = [arrived - sent for _, arrived, sent in log]
    assert delays == pytest.approx([0.010, 0.050, loopback])
    assert network.stats.by_pair["a", "b"].messages == 3


def test_profile_for_answers_without_traffic():
    network = Network(Simulator())
    special = LinkProfile(ConstantLatency(0.5), 1e6)
    network.set_prefix_profile("client.", "ms.", special)
    assert network.profile_for("client.1", "ms.2") is special
    assert network.profile_for("ms.2", "client.1") is network._default
    assert network._routes == {}  # a query builds no route


def test_traffic_stats_object_is_never_rebound():
    """Routes hold ``by_pair`` counters of the stats object they were
    built against: a rebinding anywhere in a run would split the books,
    so the pair table would no longer sum to the kind table."""
    seen = []
    scenario = Scenario(
        name="rebind-probe",
        description="multi-server fan-out",
        phases=(ArrivalWave(count=16),),
        duration=8.0,
        grid=(2, 2),
    )
    outcome = run_scenario(
        scenario,
        profile=bzflag_profile(),
        seed=3,
        observe=lambda experiment: seen.append(experiment.network.stats),
    )
    stats = outcome.experiment.network.stats
    assert stats is seen[0]
    by_pair = [0, 0]
    for counter in stats.by_pair.values():
        by_pair[0] += counter.messages
        by_pair[1] += counter.bytes
    total = stats.total
    assert total.messages > 0
    assert by_pair == [total.messages, total.bytes]


class Gate(Sink):
    """Filters in ``handle_message``, the one overridable entry."""

    closed = False

    def handle_message(self, message):
        if not self.closed:
            super().handle_message(message)


@pytest.mark.parametrize("rate", [float("inf"), 100.0], ids=["idle", "queued"])
def test_an_overridden_handle_message_still_filters_resolved_kinds(rate):
    sim = Simulator()
    network = Network(sim)
    log = []
    gate = network.add_node(Gate("gate", log, service_rate=rate))
    sender = network.add_node(Sink("sender", []))
    sender.send("gate", "probe", None, 10)
    sim.run()  # "probe" is now in the gate's handler table
    gate.closed = True
    sender.multicast(["gate", "gate"], "probe", None, 10)
    sim.run()
    assert len(log) == 1
    assert gate.inbox.serviced_count == 3


def test_standby_drops_strays_through_a_finite_rate_queue():
    sim = Simulator()
    network = Network(sim)
    standby = network.add_node(
        StandbyCoordinator(MatrixConfig(world=WORLD, visibility_radius=5.0))
    )
    standby.inbox.set_service_rate(100.0)
    sender = network.add_node(Sink("ms.1", []))
    sync = {
        "partitions": {"ms.1": WORLD},
        "game_server_of": {"ms.1": "gs.1"},
        "radius": 5.0,
        "version": 1,
    }
    sender.send(standby.name, "mc.sync", sync, 64)
    sender.send(standby.name, "mc.unregister", UnregisterServer("ms.1"), 64)
    sim.run()
    assert not standby.promoted
    assert standby.inbox.serviced_count == 2
    assert set(standby.partitions) == {"ms.1"}  # the stray was dropped
