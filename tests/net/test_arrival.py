"""An arrival is a call of the destination's receive queue.

``Network.transmit`` schedules a deliverable message as
``ReceiveQueue.deliver`` of its destination, taken off the pair's
route, so nothing looks the destination up when the message lands.
What the lookup used to decide at arrival still holds, on the plain
and the sharded network: a message in flight to a node removed before
it lands is undeliverable (once) and reaches no handler; one to a
halted node that is still registered counts as delivered and is not
serviced; one to a name removed and re-added in flight reaches the
newcomer (on the sharded network, a newcomer on the same lane), a
fan-out's arrival too, whose message names no destination.
Every route to a node holds the one arrival bound for it, and a
removal drops the node's routes without touching the books.
"""

import random

import pytest

from repro.geometry import Rect, Vec2
from repro.geometry.sharding import ShardMap
from repro.net import (
    ConstantLatency,
    LatencyModel,
    LinkProfile,
    Network,
    Node,
    handles,
)
from repro.net.sharded import ShardedNetwork
from repro.sim import RngRegistry, Simulator
from repro.sim.kernel import SimulationError
from repro.sim.sharded import ShardedSimulator

#: Every arrival lands 0.5 s after its send: on the sharded network a
#: removal made at 0.01 s is applied at a barrier well before it.
SLOW = LinkProfile(ConstantLatency(0.5), 1e9)
WORLD = Rect(0.0, 0.0, 100.0, 100.0)  # two lanes: x < 50, x >= 50

NETWORKS = pytest.mark.parametrize(
    "sharded", [False, True], ids=["plain", "sharded"]
)


class Sink(Node):
    def __init__(self, name, x=10, **kwargs):
        super().__init__(name, **kwargs)
        self.shard_anchor = Vec2(x, 50)
        self.received = []

    @handles("probe")
    def _on_probe(self, message):
        self.received.append(message.payload)


def build(sharded, profile=SLOW):
    if sharded:
        engine = ShardedSimulator(2)
        network = ShardedNetwork(
            engine,
            ShardMap(WORLD, 2),
            RngRegistry(seed=3),
            default_profile=profile,
        )
        engine.lookahead = network.minimum_cross_latency()
    else:
        engine = Simulator()
        network = Network(engine, rng=random.Random(3), default_profile=profile)
    return engine, network


def send_then_remove(network, source, dst):
    """At t=0 *source* sends to *dst*; at t=0.01 *dst* is removed."""

    def act():
        source.send(dst, "probe", "in flight", 100)
        source.sim.after(0.01, network.remove_node, dst)

    source.sim.at(0.0, act)


@NETWORKS
def test_a_message_to_a_node_removed_in_flight_is_undeliverable_once(sharded):
    engine, network = build(sharded)
    source = network.add_node(Sink("a"))
    gone = network.add_node(Sink("b"))
    send_then_remove(network, source, "b")
    engine.run(until=2.0)
    assert not network.has_node("b")
    assert gone.received == []
    assert gone.unhandled_count == 0
    assert (network.delivered_count, network.undeliverable_count) == (0, 1)


@NETWORKS
def test_a_message_to_a_halted_registered_node_is_delivered_not_serviced(sharded):
    engine, network = build(sharded)
    source = network.add_node(Sink("a"))
    halted = network.add_node(Sink("b", service_rate=100.0))
    halted.inbox.halt()
    source.sim.at(0.0, lambda: source.send("b", "probe", 1, 100))
    engine.run(until=2.0)
    assert halted.received == []
    assert halted.inbox.serviced_count == 0
    assert (network.delivered_count, network.undeliverable_count) == (1, 0)


@NETWORKS
@pytest.mark.parametrize("rate", [float("inf"), 100.0], ids=["idle", "queued"])
def test_a_name_re_added_in_flight_gets_the_message(sharded, rate):
    engine, network = build(sharded)
    source = network.add_node(Sink("a"))
    old = network.add_node(Sink("b", service_rate=rate))
    send_then_remove(network, source, "b")
    engine.run(until=0.25)  # removed (on the sharded network: at a barrier)
    assert not network.has_node("b")
    newcomer = network.add_node(Sink("b", service_rate=rate))
    engine.run(until=2.0)
    assert old.received == []
    assert newcomer.received == ["in flight"]
    assert (network.delivered_count, network.undeliverable_count) == (1, 0)


@NETWORKS
@pytest.mark.parametrize("re_added", [True, False], ids=["re-added", "gone"])
def test_a_fan_out_destination_removed_in_flight(sharded, re_added):
    """A fan-out's one message names no destination (``dst`` is
    ``None``): the removed queue hands its arrival back under the name
    it was removed as."""
    engine, network = build(sharded)
    source = network.add_node(Sink("a"))
    network.add_node(Sink("b"))
    kept = network.add_node(Sink("c"))

    def act():
        source.multicast(["b", "c"], "probe", "in flight", 100)
        source.sim.after(0.01, network.remove_node, "b")

    source.sim.at(0.0, act)
    engine.run(until=0.25)  # removed (on the sharded network: at a barrier)
    assert not network.has_node("b")
    if re_added:
        newcomer = network.add_node(Sink("b"))
    engine.run(until=2.0)
    assert kept.received == ["in flight"]
    if re_added:
        assert newcomer.received == ["in flight"]
        assert (network.delivered_count, network.undeliverable_count) == (2, 0)
    else:
        assert (network.delivered_count, network.undeliverable_count) == (1, 1)


def test_a_name_re_added_on_another_lane_in_flight_is_refused():
    """The arrival fires on the lane the old node lived on; handing it
    to a newcomer on another lane would run (or schedule) there from
    outside its window."""
    engine, network = build(sharded=True)
    source = network.add_node(Sink("a"))
    network.add_node(Sink("b"))
    send_then_remove(network, source, "b")
    engine.run(until=0.25)
    network.add_node(Sink("b", x=90))
    with pytest.raises(SimulationError, match="another lane"):
        engine.run(until=2.0)


@NETWORKS
def test_every_route_to_a_node_holds_its_one_arrival(sharded):
    engine, network = build(sharded)
    hub = network.add_node(Sink("hub", x=90))
    sources = [
        network.add_node(Sink(f"s{i}", x=x)) for i, x in enumerate((10, 60, 20))
    ]
    for source in sources:  # two lanes: one same-lane route, two crossings
        source.sim.at(0.0, lambda s=source: s.send("hub", "probe", 1, 100))
    engine.run(until=2.0)
    assert hub.received == [1, 1, 1]
    arrivals = [network._routes[source.name, "hub"].arrive for source in sources]
    assert arrivals[0] == hub.inbox.deliver
    assert all(arrive is hub._arrive for arrive in arrivals)


@NETWORKS
def test_a_removal_drops_the_routes_naming_the_node_and_keeps_the_books(sharded):
    def run(remove):
        engine, network = build(sharded)
        nodes = {name: network.add_node(Sink(name)) for name in ("a", "b", "c")}

        def chatter(_=None):
            for src, dst in (("a", "b"), ("b", "a"), ("c", "b"), ("a", "c")):
                nodes[src].send(dst, "probe", src, 100)

        nodes["a"].sim.at(0.0, chatter)
        engine.run(until=1.0)
        if remove:
            network.remove_node("b")
            engine.run(until=1.5)  # the sharded network removes at a barrier
            assert not any("b" in key for key in network._routes)
            assert ("a", "c") in network._routes
        else:
            nodes["b"].inbox.halt()  # b hears nothing more either way
        nodes["a"].sim.at(2.0, chatter)
        engine.run(until=3.0)
        return network

    removed, kept = run(remove=True), run(remove=False)
    assert removed.stats.canonical_digest() == kept.stats.canonical_digest()
    assert removed.stats.by_pair["a", "b"].messages == 2
    # After the removal the two sends to b are undeliverable; b's own
    # send still goes out, over a route built anew.
    assert (removed.delivered_count, removed.undeliverable_count) == (6, 2)
    assert (kept.delivered_count, kept.undeliverable_count) == (8, 0)


class Negative(LatencyModel):
    """A user model whose draw goes below zero."""

    def sampler(self, rng):
        return lambda: -1.0


@NETWORKS
def test_a_negative_latency_draw_is_refused(sharded):
    engine, network = build(sharded, LinkProfile(ConstantLatency(0.5), 1e9))
    network.set_prefix_profile("a", "b", LinkProfile(Negative(), 1e9))
    source = network.add_node(Sink("a"))
    network.add_node(Sink("b"))
    source.sim.at(0.0, lambda: source.send("b", "probe", 1, 100))
    with pytest.raises(SimulationError, match="negative delay"):
        engine.run(until=2.0)
