"""Tests for the developer-facing MatrixPort API."""

import pytest

from tests.core.helpers import ScriptedGameServer, build_deployment

from repro.core.api import GameServerHandle, MatrixPort
from repro.core.config import LOAD_REPORT_BYTES
from repro.core.messages import SetRange, SpatialPacket
from repro.geometry import Rect, Vec2
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import Node
from repro.sim.kernel import Simulator


class Sink(Node):
    """Keeps every message its handler table does not take."""

    def __init__(self, name):
        super().__init__(name)
        self.got = []

    def on_unhandled(self, message):
        self.got.append(message)


def wired_port():
    sim = Simulator()
    net = Network(sim)
    owner = Sink("gs.x")
    matrix = Sink("ms.x")
    net.add_node(owner)
    net.add_node(matrix)
    port = MatrixPort(owner)
    port.bind("ms.x")
    return sim, owner, matrix, port


def test_unbound_port_raises():
    sim = Simulator()
    net = Network(sim)
    owner = Sink("gs.x")
    net.add_node(owner)
    port = MatrixPort(owner)
    with pytest.raises(RuntimeError):
        port.send_spatial(Vec2(0, 0), "p", 10)
    with pytest.raises(RuntimeError):
        port.report_load(1)
    with pytest.raises(RuntimeError):
        port.query_consistency(Vec2(0, 0), lambda s: None)


def test_send_spatial_tags_packet():
    sim, owner, matrix, port = wired_port()
    packet = port.send_spatial(
        Vec2(3, 4), payload={"anything": 1}, payload_bytes=100
    )
    sim.run()
    assert len(matrix.got) == 1
    message = matrix.got[0]
    assert message.kind == "game.spatial"
    assert message.size_bytes == 100 + 24  # payload + spatial tag
    assert message.payload is packet
    assert packet.origin == Vec2(3, 4)


def test_report_load_wire_format():
    sim, owner, matrix, port = wired_port()
    port.report_load(42)
    sim.run()
    message = matrix.got[0]
    assert message.kind == "matrix.load"
    assert message.payload.client_count == 42
    assert message.size_bytes == LOAD_REPORT_BYTES


def test_handle_deliver_invokes_callback():
    sim, owner, matrix, port = wired_port()
    seen = []
    port.on_deliver = seen.append
    packet = SpatialPacket(origin=Vec2(1, 1), payload="remote")
    matrix.send("gs.x", "matrix.deliver", packet, size_bytes=10)
    sim.run()
    assert seen == [packet]  # the packet itself, no wrapper
    assert owner.got == []


def test_handle_set_range_invokes_callback():
    sim, owner, matrix, port = wired_port()
    seen = []
    port.on_set_range = seen.append
    directive = SetRange(partition=Rect(0, 0, 1, 1), directory={})
    matrix.send("gs.x", "gs.set_range", directive, size_bytes=10)
    sim.run()
    assert seen == [directive]
    assert owner.got == []


def test_handle_passes_through_game_traffic():
    sim, owner, matrix, port = wired_port()
    seen = []
    port.on_deliver = port.on_set_range = seen.append
    message = Message(
        src="client.1", dst="gs.x", kind="client.update",
        payload=None, size_bytes=10,
    )
    owner.handle_message(message)
    assert owner.got == [message]
    assert seen == []


def test_scripted_game_server_satisfies_protocol():
    server = ScriptedGameServer("gs.p", Rect(0, 0, 1, 1))
    assert isinstance(server, GameServerHandle)


def test_query_consistency_end_to_end():
    """Full path: gs -> ms -> MC -> ms -> gs with name translation."""
    sim, network, deployment = build_deployment()
    pairs = deployment.bootstrap_grid(2, 1)
    sim.run(until=1.0)
    answers = []
    pairs[0][1].port.query_consistency(Vec2(750.0, 500.0), answers.append)
    sim.run(until=2.0)
    # The answer names *game* servers, not Matrix servers.
    assert answers == [frozenset({"gs.2"})]
