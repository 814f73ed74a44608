"""What a client that left the game does with late messages.

Leaving is final.  A departed client drops both of its ``random.Random``
streams (its own, and its mobility model's), but it stays registered,
so messages already in flight to it still arrive:

* a snapshot still acks the actions in flight (the latency metrics
  read them);
* a server-switch directive is ignored: the old server already has the
  bye, and a hello would only make the target hold a departed client;
* a welcome, answering a hello sent before the client left, gets one
  ``client.bye`` back to its sender and nothing else.

The welcome case comes in two orders on one route, because WAN jitter
reorders packets: the hello reaches the server before the client's bye,
or the bye overtakes the hello.  Either way the server ends up holding
no client.
"""

import itertools
import random

from repro.games.base import SWITCH_TIMEOUT, GameClient, GameServer
from repro.games.packets import Snapshot, SwitchDirective
from repro.games.profile import GameProfile
from repro.geometry import Rect, Vec2
from repro.net import ConstantLatency, LinkProfile, Network, Node, handles
from repro.net.latency import LatencyModel
from repro.sim import Simulator
from repro.workload.mobility import RandomWaypoint

WORLD = Rect(0.0, 0.0, 400.0, 400.0)
PROFILE = GameProfile(
    name="departed", world=WORLD, visibility_radius=60.0, action_rate=1.5
)
LINK = LinkProfile(ConstantLatency(0.01), 1.25e6)


class Server(Node):
    """A game server stand-in that records what the client sends."""

    def __init__(self, name):
        super().__init__(name)
        self.heard = []

    @handles("client.hello", "client.update", "client.action", "client.bye")
    def _on_client(self, message):
        self.heard.append((message.kind, message.src))


class Scripted(LatencyModel):
    """A link whose packets take the given latencies in send order, and
    the last one from then on."""

    def __init__(self, *seconds):
        self._seconds = itertools.chain(seconds, itertools.repeat(seconds[-1]))

    def sampler(self, rng):
        return lambda: next(self._seconds)


def playing_client(sim, network, gs1):
    """``client.1``, welcomed by *gs1* and playing for 4 s, with actions
    in flight."""
    mobility = RandomWaypoint(WORLD, PROFILE.move_speed, random.Random(7))
    client = network.add_node(
        GameClient("client.1", PROFILE, mobility, random.Random(8))
    )
    client.join("gs.1", Vec2(100.0, 100.0))
    sim.run(until=0.05)
    gs1.send("client.1", "gs.welcome", None, 64)
    sim.run(until=4.0)
    assert client.active and client._pending_actions
    return client


def departed_client():
    sim = Simulator()
    network = Network(sim, default_profile=LINK)
    gs1 = network.add_node(Server("gs.1"))
    gs2 = network.add_node(Server("gs.2"))
    client = playing_client(sim, network, gs1)
    client.leave()
    sim.run(until=4.1)
    assert gs1.heard[-1] == ("client.bye", "client.1")
    return sim, gs1, gs2, client


def test_a_departed_client_holds_no_stream():
    sim, gs1, gs2, client = departed_client()
    assert client.departed and not client.active
    assert client._rng is None and client.mobility is None
    assert not any(
        isinstance(getattr(client, slot, None), random.Random)
        for slot in GameClient.__slots__
    )
    assert client.retarget(Vec2(300.0, 300.0)) is False


def test_a_late_snapshot_still_acks_the_actions_in_flight():
    sim, gs1, gs2, client = departed_client()
    pending = len(client._pending_actions)
    acked = len(client.action_latencies)
    gs1.send(
        "client.1", "gs.snapshot",
        Snapshot(processed_seq=client.actions_sent), 48,
    )
    sim.run(until=4.2)
    assert client._pending_actions == {}
    assert len(client.action_latencies) == acked + pending


def test_a_late_switch_sends_nothing():
    sim, gs1, gs2, client = departed_client()
    heard = len(gs1.heard)
    gs1.send("client.1", "gs.switch", SwitchDirective("gs.2"), 32)
    sim.run(until=4.3 + SWITCH_TIMEOUT)
    assert len(gs1.heard) == heard and gs2.heard == []
    assert (client.server, client._pending) == (None, None)
    assert sim.pending_events == 0


def test_a_late_welcome_gets_one_bye_and_nothing_else():
    sim, gs1, gs2, client = departed_client()
    gs2.send("client.1", "gs.welcome", None, 64)
    sim.run(until=4.3 + SWITCH_TIMEOUT)
    assert gs2.heard == [("client.bye", "client.1")]
    assert not client.active and client._update_task is None
    assert (client.server, client._pending) == (None, None)
    assert sim.pending_events == 0


def leave_mid_switch(hello_s, bye_s):
    """``client.1`` plays on ``gs.1``, is switched to a real game server
    ``gs.2``, and leaves 1 ms later, while its hello is in flight.  The
    hello and the bye to ``gs.2`` take *hello_s* and *bye_s*; the bye
    that answers ``gs.2``'s welcome takes 10 ms."""
    sim = Simulator()
    network = Network(sim, default_profile=LINK)
    network.set_prefix_profile(
        "client.", "gs.2", LinkProfile(Scripted(hello_s, bye_s, 0.01), 1.25e6)
    )
    gs1 = network.add_node(Server("gs.1"))
    gs2 = network.add_node(GameServer("gs.2", PROFILE, WORLD))
    client = playing_client(sim, network, gs1)
    gs1.send("client.1", "gs.switch", SwitchDirective("gs.2"), 32)
    sim.run(until=4.011)
    assert client._pending == "gs.2"
    client.leave()
    sim.run(until=5.0)
    return sim, gs2, client


def test_hello_then_bye_leaves_the_server_holding_no_client():
    sim, gs2, client = leave_mid_switch(hello_s=0.01, bye_s=0.02)
    assert gs2.client_count == 0
    assert not client.active and client.departed
    assert client.switch_latencies == []


def test_bye_overtaking_hello_leaves_the_server_holding_no_client():
    sim, gs2, client = leave_mid_switch(hello_s=0.05, bye_s=0.01)
    assert gs2.client_count == 0
    assert not client.active and client.departed
    assert client.switch_latencies == []
