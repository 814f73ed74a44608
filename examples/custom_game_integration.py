#!/usr/bin/env python
"""Porting your own game onto Matrix — the developer's-eye view.

The paper's pitch (§2.1) is that a game studio without distributed-
systems expertise can adopt Matrix with "almost no modifications to the
game client, and relatively simple modifications to the server code".
This example is that exercise: a tiny custom game server — a capture-
the-flag arena with its own packet types and logic — written against
nothing but the public :class:`repro.core.api.MatrixPort` API:

* construct a port (it answers Matrix's message kinds for the server),
* tag outbound packets with coordinates (``port.send_spatial``),
* report load periodically (``port.report_load``),
* consume two callbacks (``on_deliver``, ``on_set_range``).

Everything else — splits, reclaims, routing, consistency — happens
underneath, and this file never imports any of it.

Run:  python examples/custom_game_integration.py
"""

from dataclasses import dataclass

from repro.core.api import MatrixPort
from repro.core.config import LoadPolicyConfig, MatrixConfig
from repro.core.deployment import MatrixDeployment
from repro.geometry import Rect, Vec2
from repro.net.network import Network
from repro.net.node import Node
from repro.sim.kernel import Simulator

WORLD = Rect(0.0, 0.0, 400.0, 400.0)
RADIUS = 30.0


@dataclass
class FlagGrab:
    """Our game's own packet type; Matrix never inspects it."""

    player: str
    at: Vec2


class CtfServer(Node):
    """A minimal custom game server integrated with Matrix."""

    def __init__(self, name: str, partition: Rect) -> None:
        super().__init__(name, service_rate=500.0)
        self.partition = partition
        self.players: dict[str, Vec2] = {}
        self.remote_grabs: list[FlagGrab] = []
        # --- the entire Matrix integration: one port + two callbacks.
        self.port = MatrixPort(self)
        self.port.on_deliver = lambda pkt: self.remote_grabs.append(pkt.payload)
        self.port.on_set_range = self._range_changed

    # The deployment contract (GameServerHandle):
    @property
    def client_count(self) -> int:
        return len(self.players)

    def client_positions(self):
        return list(self.players.values())

    def bind_matrix(self, matrix_name: str, partition: Rect) -> None:
        self.port.bind(matrix_name)
        self.partition = partition
        self.sim.every(1.0, lambda: self.port.report_load(len(self.players)))

    def _range_changed(self, directive) -> None:
        self.partition = directive.partition
        print(f"    [{self.name}] now serving {directive.partition}")

    # Game logic: players grab flags; grabs near a border must reach
    # the neighbouring server — via Matrix, transparently.
    def grab_flag(self, player: str, at: Vec2) -> None:
        self.players[player] = at
        self.port.send_spatial(
            origin=at, payload=FlagGrab(player=player, at=at),
            payload_bytes=48,
        )

    # ... handlers for our own client protocol would be registered
    # here with further @handles("...") methods ...


def main() -> None:
    sim = Simulator()
    network = Network(sim)
    config = MatrixConfig(
        world=WORLD,
        visibility_radius=RADIUS,
        policy=LoadPolicyConfig(overload_clients=10, underload_clients=5),
    )
    deployment = MatrixDeployment(
        sim, network, config, game_server_factory=CtfServer
    )
    # Start pre-partitioned so cross-server propagation shows right away.
    pairs = deployment.bootstrap_grid(2, 1)
    sim.run(until=2.0)  # let the MC distribute overlap tables

    left_gs = pairs[0][1]
    right_gs = pairs[1][1]
    print(f"two servers up: {left_gs.name} {left_gs.partition}, "
          f"{right_gs.name} {right_gs.partition}")

    # A grab deep inside the left half: local only.
    left_gs.grab_flag("alice", Vec2(50.0, 200.0))
    # A grab just left of the border: the right server must hear it.
    left_gs.grab_flag("bob", Vec2(195.0, 200.0))
    sim.run(until=4.0)

    print(f"\nright server saw {len(right_gs.remote_grabs)} remote grab(s):")
    for grab in right_gs.remote_grabs:
        print(f"    {grab.player} at {grab.at.as_tuple()}")
    assert len(right_gs.remote_grabs) == 1, "border grab must propagate"
    assert right_gs.remote_grabs[0].player == "bob"
    print("\nalice's interior grab stayed local; bob's border grab was "
          "propagated — and CtfServer never named another server.")


if __name__ == "__main__":
    main()
