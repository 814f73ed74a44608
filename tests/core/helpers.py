"""Shared fixtures for core tests: a minimal scripted game server."""

from __future__ import annotations

from repro.core.api import MatrixPort
from repro.core.config import LoadPolicyConfig, MatrixConfig
from repro.core.deployment import MatrixDeployment
from repro.geometry import Rect, Vec2
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import Node, handles
from repro.sim.kernel import Simulator

WORLD = Rect(0.0, 0.0, 1000.0, 1000.0)


class ScriptedGameServer(Node):
    """A GameServerHandle implementation driven directly by tests.

    No clients, no ticks: tests inject load reports and spatial packets
    by calling methods, and inspect what Matrix sent back.
    """

    def __init__(self, name: str, partition: Rect) -> None:
        super().__init__(name)
        self.partition = partition
        self.port = MatrixPort(self)
        self.port.on_deliver = lambda pkt: self.delivered.append(pkt)
        self.port.on_set_range = lambda sr: self.range_updates.append(sr)
        self.delivered = []
        self.range_updates = []
        self.evacuations = []
        self.fake_client_count = 0
        self.fake_positions: list[Vec2] = []

    # GameServerHandle protocol -------------------------------------
    @property
    def client_count(self) -> int:
        return self.fake_client_count

    def client_positions(self):
        return list(self.fake_positions)

    def bind_matrix(self, matrix_name: str, partition: Rect) -> None:
        self.port.bind(matrix_name)
        self.partition = partition

    # Message handling ----------------------------------------------
    @handles("gs.evacuate")
    def _on_evacuate(self, message: Message) -> None:
        self.evacuations.append(message.payload)

    # Test drivers ---------------------------------------------------
    def report(self, clients: int) -> None:
        self.fake_client_count = clients
        self.port.report_load(clients)

    def emit(self, origin: Vec2, dest: Vec2 | None = None):
        return self.port.send_spatial(
            origin=origin, dest=dest, payload="pkt", payload_bytes=64
        )


def build_deployment(
    pool_capacity: int = 8,
    policy: LoadPolicyConfig | None = None,
    world: Rect = WORLD,
    radius: float = 50.0,
    game_server_factory=ScriptedGameServer,
):
    """A deployment backed by ScriptedGameServers (or, with
    *game_server_factory*, by whatever game servers it builds)."""
    sim = Simulator()
    network = Network(sim)
    config = MatrixConfig(
        world=world,
        visibility_radius=radius,
        policy=policy
        or LoadPolicyConfig(
            overload_clients=100,
            underload_clients=50,
            consecutive_overload_reports=2,
            consecutive_underload_reports=2,
            split_cooldown=1.0,
            reclaim_cooldown=1.0,
            min_child_lifetime=1.0,
        ),
    )
    deployment = MatrixDeployment(
        sim, network, config, game_server_factory=game_server_factory,
        pool_capacity=pool_capacity,
    )
    return sim, network, deployment
