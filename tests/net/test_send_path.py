"""The resolved-route send path: fan-outs, routes, direct dispatch.

``Node.multicast`` must be indistinguishable from one ``Node.send`` per
destination — same accounting, taps, latency draws and arrival order —
on the plain and the sharded network, though a fan-out is one message
that every arrival carries.  Routes must follow profile-rule
changes made after traffic has flowed (a colocation re-resolves only the
routes naming its nodes, and neither a new colocation nor a removal
leaves a stale partner behind), and a node that keeps a kind out
of its handler table must not answer it, whichever path its queue takes.
"""

import random

import pytest

from repro.core.config import MatrixConfig
from repro.core.coordinator import StandbyCoordinator
from repro.core.messages import UnregisterServer
from repro.games.profile import bzflag_profile
from repro.geometry import Rect, Vec2
from repro.geometry.sharding import ShardMap
from repro.harness.compare import scaled_run_arguments
from repro.harness.gridcells import GRID_FLOORS
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
from repro.sim import RngRegistry, Simulator
from repro.sim.sharded import ShardedSimulator
from repro.workload.scenarios import ArrivalWave, Scenario, build_scenario

WAN = LinkProfile(NormalLatency(25e-3, 8e-3, floor=5e-3), 1.25e6)
WORLD = Rect(0.0, 0.0, 100.0, 100.0)


class Sink(Node):
    """Logs ``(name, arrival time, payload)``; the payload of a timing
    probe is its send time."""

    def __init__(self, name, log, messages=None, **kwargs):
        super().__init__(name, **kwargs)
        self._log = log
        self._messages = messages if messages is not None else []

    @handles("probe")
    def _on_probe(self, message):
        self._log.append((self.name, self.sim.now, message.payload))
        self._messages.append(message)


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
    log, tapped, messages = [], [], []
    network.add_tap(
        lambda message, dst: tapped.append(
            (dst, engine.now, message.kind, message.payload)
        )
    )
    source = Sink("src", log, messages)
    source.shard_anchor = Vec2(10, 50)
    network.add_node(source)
    for index in range(6):
        rate = 400.0 if index == 2 else float("inf")
        sink = Sink(f"p{index}", log, messages, service_rate=rate)
        sink.shard_anchor = Vec2(10 if index % 2 else 90, 50)  # both lanes
        network.add_node(sink)
    return engine, network, source, log, tapped, messages


DESTINATIONS = ["p3", "p0", "ghost", "p2", "p5", "p2", "p1", "p4"]


@pytest.mark.parametrize("sharded", [False, True], ids=["plain", "sharded"])
def test_multicast_matches_sends(sharded):
    outcomes, arrived = [], []
    for fan_out in ("multicast", "send"):
        engine, network, source, log, tapped, messages = build(sharded)
        arrived.append(messages)

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
    assert len(multicast[2]) == 3 * len(DESTINATIONS)
    # A fan-out is one message, which all its arrivals carry; a send
    # per destination is one message each.
    for messages, per_round in zip(arrived, (1, len(DESTINATIONS) - 1)):
        for round_ in range(3):
            carried = {id(m) for m in messages if m.payload == round_}
            assert len(carried) == per_round


class Counting(MiddlewareStage):
    def __init__(self):
        super().__init__()
        self.outbound = []

    def on_outbound(self, message):
        self.outbound.append(message.dst)
        return message


def test_multicast_with_a_stage_sends_each_message_through_it():
    engine, network, source, log, _, _ = build(sharded=False)
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
    source.send("b", "probe", sim.now, 0)
    sim.run()
    network.set_prefix_profile("a", "b", LinkProfile(ConstantLatency(0.050), 1e9))
    source.send("b", "probe", sim.now, 0)
    sim.run()
    network.set_prefix_profile("", "", LinkProfile(ConstantLatency(0.1), 1e9))
    network.set_colocated("a", "b")
    source.send("b", "probe", sim.now, 0)
    sim.run()
    loopback = network.profile_for("a", "b").latency.fixed
    delays = [arrived - sent for _, arrived, sent in log]
    assert delays == pytest.approx([0.010, 0.050, loopback])
    assert network.stats.by_pair["a", "b"].messages == 3


def test_a_colocation_re_resolves_only_the_routes_naming_its_nodes():
    sim = Simulator()
    network = Network(
        sim, default_profile=LinkProfile(ConstantLatency(0.010), 1e9)
    )
    log = []
    nodes = {name: network.add_node(Sink(name, log)) for name in "abcxy"}
    network.set_colocated("a", "c")
    for src, dst in (("x", "y"), ("a", "c"), ("a", "x"), ("y", "b")):
        nodes[src].send(dst, "probe", sim.now, 0)
    sim.run()
    kept = network._routes["x", "y"]
    network.set_colocated("a", "b")  # a leaves its former partner c
    assert network._routes["x", "y"] is kept
    assert sorted(network._routes) == [("x", "y")]
    del log[:]
    nodes["a"].send("c", "probe", sim.now, 0)
    nodes["a"].send("b", "probe", sim.now, 0)
    sim.run()
    loopback = network.profile_for("a", "b").latency.fixed
    delays = [arrived - sent for _, arrived, sent in log]
    assert delays == pytest.approx([loopback, 0.010])


def test_a_new_colocation_unmaps_the_former_partner():
    sim = Simulator()
    network = Network(
        sim, default_profile=LinkProfile(ConstantLatency(0.010), 1e9)
    )
    log = []
    nodes = {name: network.add_node(Sink(name, log)) for name in "abc"}
    network.set_colocated("a", "b")
    nodes["b"].send("a", "probe", sim.now, 0)  # builds the loopback route
    sim.run()
    network.set_colocated("a", "c")
    assert network.profile_for("b", "a") is network._default
    assert network._colocated == {"a": "c", "c": "a"}
    del log[:]
    nodes["b"].send("a", "probe", sim.now, 0)
    sim.run()
    assert [arrived - sent for _, arrived, sent in log] == pytest.approx(
        [0.010]
    )


def test_a_removed_node_leaves_no_colocation():
    network = Network(Simulator())
    for name in "abxy":
        network.add_node(Sink(name, []))
    network.set_colocated("a", "b")
    network.set_colocated("x", "y")
    network.remove_node("a")
    assert network._colocated == {"x": "y", "y": "x"}
    assert network.profile_for("b", "a") is network._default


def test_after_a_run_every_colocation_names_a_registered_node():
    """Reclaims remove a Matrix server and its game server: neither may
    stay in the colocation map."""
    outcome = run_scenario(
        **scaled_run_arguments(
            build_scenario("fig2-hotspot"), "matrix", 0.05, 1, **GRID_FLOORS
        )
    )
    assert outcome.result.reclaims_completed > 0
    network = outcome.experiment.network
    stale = [name for name in network._colocated if not network.has_node(name)]
    assert stale == []


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
        "version": 1,
    }
    sender.send(standby.name, "mc.sync", sync, 64)
    sender.send(standby.name, "mc.unregister", UnregisterServer("ms.1"), 64)
    sim.run()
    assert not standby.promoted
    assert standby.inbox.serviced_count == 2
    assert set(standby.partitions) == {"ms.1"}  # the stray was dropped
