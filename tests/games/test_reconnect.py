"""How a client gets back to a server after losing the one it had.

Two paths end in the same reconnect: a switch whose target never
answers (after :data:`SWITCH_TIMEOUT`), and, with rejoin armed,
:data:`REJOIN_TIMEOUT` seconds without a snapshot.  Either way the
client drops its connection and sends one hello to whichever server the
locator names for its current position.
"""

import random

from repro.games.base import REJOIN_TIMEOUT, SWITCH_TIMEOUT, GameClient
from repro.games.packets import SwitchDirective
from repro.games.profile import GameProfile
from repro.geometry import Rect, Vec2
from repro.net import ConstantLatency, LinkProfile, Network, Node, handles
from repro.sim import Simulator
from repro.workload.mobility import Stationary

WORLD = Rect(0.0, 0.0, 400.0, 400.0)
PROFILE = GameProfile(name="reconnect", world=WORLD, visibility_radius=60.0)
HERE = Vec2(100.0, 100.0)


class Server(Node):
    """A game server stand-in that records hellos and never answers."""

    def __init__(self, name):
        super().__init__(name)
        self.hellos = 0

    @handles("client.hello")
    def _on_hello(self, message):
        self.hellos += 1

    @handles("client.update", "client.action", "client.bye")
    def _on_client(self, message):
        pass


def client_on_gs1():
    """``client.1`` at *HERE*, welcomed by ``gs.1``; the locator names
    ``gs.3`` for every position and records what it was asked."""
    sim = Simulator()
    network = Network(
        sim, default_profile=LinkProfile(ConstantLatency(0.01), 1.25e6)
    )
    servers = {
        name: network.add_node(Server(name))
        for name in ("gs.1", "gs.2", "gs.3")
    }
    asked = []

    def locate(position):
        asked.append(position)
        return "gs.3"

    client = network.add_node(
        GameClient(
            "client.1", PROFILE, Stationary(), random.Random(1),
            relocate=locate,
        )
    )
    client.join("gs.1", HERE)
    sim.run(until=0.05)
    servers["gs.1"].send("client.1", "gs.welcome", None, 64)
    sim.run(until=0.1)
    assert client.server == "gs.1" and client.active
    return sim, servers, client, asked


def test_an_unanswered_switch_ends_in_one_hello_to_the_locator():
    sim, servers, client, asked = client_on_gs1()
    servers["gs.1"].send("client.1", "gs.switch", SwitchDirective("gs.2"), 32)
    sim.run(until=0.2)
    assert client._pending == "gs.2" and servers["gs.2"].hellos == 1
    sim.run(until=0.1 + SWITCH_TIMEOUT)
    assert servers["gs.3"].hellos == 0  # not yet timed out
    sim.run(until=0.2 + SWITCH_TIMEOUT)
    assert asked == [HERE]
    assert servers["gs.3"].hellos == 1
    assert (client.server, client._pending) == (None, None)
    assert client.switch_latencies == [] and client.rejoins == 0


def test_snapshot_silence_ends_in_one_hello_and_one_rejoin():
    sim, servers, client, asked = client_on_gs1()
    client.enable_rejoin()
    sim.run(until=REJOIN_TIMEOUT - 0.1)
    assert servers["gs.3"].hellos == 0 and client.rejoins == 0
    sim.run(until=REJOIN_TIMEOUT + 1.0)
    assert asked == [HERE]
    assert servers["gs.3"].hellos == 1
    assert client.rejoins == 1
    assert (client.server, client._pending) == (None, None)
    assert servers["gs.1"].hellos == 1  # the first join only
