"""Tests for the developer-facing MatrixPort API."""

import pytest

from tests.core.helpers import ScriptedGameServer, build_deployment

from repro.core.api import GameServerHandle, MatrixPort
from repro.core.messages import DeliverPacket, SetRange, SpatialPacket
from repro.geometry import Rect, Vec2
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import Node
from repro.sim.kernel import Simulator


class Sink(Node):
    def __init__(self, name):
        super().__init__(name)
        self.got = []

    def handle_message(self, message):
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
        port.report_load(1, 0)
    with pytest.raises(RuntimeError):
        port.query_consistency(Vec2(0, 0), lambda s: None)


def test_send_spatial_tags_packet():
    sim, owner, matrix, port = wired_port()
    packet = port.send_spatial(
        Vec2(3, 4), payload={"anything": 1}, payload_bytes=100,
        client_id="c1",
    )
    sim.run()
    assert len(matrix.got) == 1
    message = matrix.got[0]
    assert message.kind == "game.spatial"
    assert message.size_bytes == 100 + 24  # payload + spatial tag
    assert message.payload is packet
    assert packet.origin == Vec2(3, 4)
    assert packet.source_server == "gs.x"
    assert packet.client_id == "c1"


def test_report_load_wire_format():
    sim, owner, matrix, port = wired_port()
    port.report_load(42, 7)
    sim.run()
    report = matrix.got[0].payload
    assert matrix.got[0].kind == "matrix.load"
    assert report.client_count == 42
    assert report.queue_length == 7


def test_handle_deliver_invokes_callback():
    sim, owner, matrix, port = wired_port()
    seen = []
    port.on_deliver = seen.append
    packet = SpatialPacket(origin=Vec2(1, 1), payload="remote")
    message = Message(
        src="ms.x", dst="gs.x", kind="matrix.deliver",
        payload=DeliverPacket(packet=packet), size_bytes=10,
    )
    assert port.handle(message) is True
    assert seen == [packet]
    assert port.delivered_remote == 1


def test_handle_set_range_invokes_callback():
    sim, owner, matrix, port = wired_port()
    seen = []
    port.on_set_range = seen.append
    directive = SetRange(partition=Rect(0, 0, 1, 1), directory={})
    message = Message(
        src="ms.x", dst="gs.x", kind="gs.set_range",
        payload=directive, size_bytes=10,
    )
    assert port.handle(message) is True
    assert seen == [directive]


def test_handle_passes_through_game_traffic():
    sim, owner, matrix, port = wired_port()
    message = Message(
        src="client.1", dst="gs.x", kind="client.update",
        payload=None, size_bytes=10,
    )
    assert port.handle(message) is False


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
