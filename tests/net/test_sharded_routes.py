"""Routes on the sharded network name their destination's lane.

A send whose route names the sending lane is the plain network's
push; any other goes through the lane hand-off.  A route built
before its destination was registered names no lane until its first
send after the registration, and a name
re-homed on another lane must not keep its old routes: either way the
message is still handled on the destination's own lane.  At unit scale
the traffic digest and every node's receive order equal the
``shards=1`` run's, for same-lane and cross-lane traffic.
"""

import pytest

from repro.geometry import Rect, Vec2
from repro.geometry.sharding import ShardMap
from repro.net import LinkProfile, Node, NormalLatency, handles
from repro.net.sharded import ShardedNetwork
from repro.sim import RngRegistry
from repro.sim.sharded import ShardedSimulator

WORLD = Rect(0.0, 0.0, 100.0, 100.0)  # two lanes: x < 50, x >= 50
WAN = LinkProfile(NormalLatency(25e-3, 8e-3, floor=5e-3), 1.25e6)


class Sink(Node):
    def __init__(self, name, log, x, **kwargs):
        super().__init__(name, **kwargs)
        self.shard_anchor = Vec2(x, 50)
        self._log = log

    @handles("probe")
    def _on_probe(self, message):
        executing = self.network.sim.active_lane
        self._log.append(
            (self.name, message.src, message.payload, self.sim.now, executing.slot)
        )


def build(shards=2):
    engine = ShardedSimulator(shards)
    network = ShardedNetwork(
        engine, ShardMap(WORLD, shards), RngRegistry(seed=5), default_profile=WAN
    )
    engine.lookahead = network.minimum_cross_latency()
    return engine, network


@pytest.mark.parametrize("x, slot", [(20, 0), (90, 1)], ids=["same-lane", "cross-lane"])
def test_a_destination_registered_after_its_first_send_gets_the_next_on_its_lane(
    x, slot
):
    engine, network = build()
    log = []
    source = network.add_node(Sink("a", log, 10))
    source.sim.at(0.5, lambda: source.send("late", "probe", 1, 100))
    engine.run(until=1.0)
    assert network.undeliverable_count == 1
    network.add_node(Sink("late", log, x))
    source.sim.at(1.5, lambda: source.send("late", "probe", 2, 100))
    engine.run(until=2.0)
    assert [(name, payload, lane) for name, _, payload, _, lane in log] == [
        ("late", 2, slot)
    ]
    assert network.delivered_count == 1
    assert network.cross_border_count == slot


def test_a_name_re_added_on_the_other_lane_gets_its_deliveries_there():
    engine, network = build()
    log = []
    source = network.add_node(Sink("a", log, 10))
    network.add_node(Sink("b", log, 20))  # lane 0, the sender's

    def send_then_remove():
        source.send("b", "probe", 1, 100)
        source.sim.after(0.2, network.remove_node, "b")

    source.sim.at(0.5, send_then_remove)
    engine.run(until=1.0)
    assert not network.has_node("b")
    network.add_node(Sink("b", log, 90))  # the same name, on lane 1
    source.sim.at(1.5, lambda: source.send("b", "probe", 2, 100))
    engine.run(until=2.0)
    assert [(payload, lane) for _, _, payload, _, lane in log] == [(1, 0), (2, 1)]
    assert network.cross_border_count == 1


def chatter_run(shards, xs):
    """Every node multicasts to all others every 50 ms for a second."""
    engine, network = build(shards)
    log = []
    nodes = [
        network.add_node(
            Sink(f"n{i}", log, x, service_rate=400.0 if i == 1 else float("inf"))
        )
        for i, x in enumerate(xs)
    ]
    names = [node.name for node in nodes]
    for node in nodes:

        def chatter(round_, node=node):
            peers = [name for name in names if name != node.name]
            node.multicast(peers, "probe", round_, 200)
            if round_ < 20:
                node.sim.after(0.05, chatter, round_ + 1)

        node.sim.at(0.0, chatter, 0)
    engine.run(until=3.0)
    received = {name: [] for name in names}
    for name, src, payload, now, _ in log:
        received[name].append((src, payload, now))
    return network.stats.canonical_digest(), received, network.delivered_count


@pytest.mark.parametrize(
    "xs", [(10, 20, 30, 40), (10, 90, 30, 70)], ids=["same-lane", "cross-lane"]
)
def test_traffic_matches_the_single_lane_run(xs):
    reference = chatter_run(1, xs)
    assert reference[2] == 4 * 3 * 21
    assert chatter_run(2, xs) == reference
