"""Mirrored fully-consistent servers — the commercial approach (§5).

"Commercial MMOG systems ... allocate multiple tightly-coupled
(completely consistent) servers to handle the same partition, an
approach that is neither efficient nor very scalable."

The model: ``k`` mirrors all hold the entire world; clients are
load-balanced round-robin; *every* client packet must be replicated to
the other ``k-1`` mirrors to keep them completely consistent.  Client
capacity grows ~linearly in ``k`` but consistency traffic grows as
``k·(k-1)``, which is the inefficiency the ablation bench plots against
Matrix's overlap-only traffic.

Two layers live here:

* the closed-form cost model (:func:`mirrored_cost`,
  :func:`max_clients_mirrored`) the ablation bench plots, and
* :class:`MirroredExperiment` — the same architecture as a *real*
  event-driven system on the sim kernel: ``k`` genuine
  :class:`~repro.games.base.GameServer` mirrors each fronted by a
  :class:`MirrorGate` that replicates every spatially-tagged packet to
  its peers as actual ``mirror.replicate`` messages through the
  simulated network and each mirror's ``ReceiveQueue``.  The analytic
  model is asserted against this system's measured traffic in tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.baselines.backend import ArchitectureBackend
from repro.core.config import PerfConfig
from repro.core.messages import DeliverPacket, SetRange
from repro.games.base import GameServer
from repro.games.profile import GameProfile
from repro.geometry import Rect, Vec2
from repro.net.message import Message
from repro.net.network import lan_profile, wan_profile
from repro.net.node import Node, handles


class MirrorGate(Node):
    """The replication tier of one mirror.

    Plays the role a Matrix server plays for its game server — it is
    what the mirror's :class:`~repro.games.base.GameServer` binds its
    :class:`~repro.core.api.MatrixPort` to — but its answer to every
    spatial packet is the §5 commercial answer: replicate it to *all*
    peer mirrors so each stays completely consistent.  Replicas arrive
    at the peer's gate and are delivered into the peer game server's
    receive queue as remote packets, so each mirror really does process
    the full world-wide packet stream.
    """

    def __init__(self, name: str, game_server: str, peers: list[str]) -> None:
        super().__init__(name)
        self._game_server = game_server
        self._peers = [peer for peer in peers if peer != name]
        self.client_packets = 0
        self.replica_packets = 0

    def announce_range(self, world: Rect, directory: dict[str, Rect]) -> None:
        """Send the game server its (permanent) range: the whole world."""
        directive = SetRange(partition=world, directory=dict(directory))
        self.send(self._game_server, "gs.set_range", directive, size_bytes=128)

    @handles("matrix.load")
    def _on_load_report(self, message: Message) -> None:
        """Load reports are absorbed: the mirror set never changes."""

    @handles("game.spatial")
    def _on_spatial(self, message: Message) -> None:
        self.client_packets += 1
        self.multicast(
            self._peers, "mirror.replicate", message.payload, message.size_bytes
        )

    @handles("mirror.replicate")
    def _on_replicate(self, message: Message) -> None:
        self.replica_packets += 1
        self.send(
            self._game_server,
            "matrix.deliver",
            DeliverPacket(packet=message.payload),
            size_bytes=message.size_bytes,
        )


class MirroredExperiment(ArchitectureBackend):
    """``k`` fully-consistent mirrors of the whole world, as a system.

    * **ownership** — every mirror owns every point; clients are
      assigned round-robin (pure load balancing, no locality).
    * **routing** — none needed: a client's packets terminate on its
      home mirror.
    * **consistency traffic** — every spatial packet is replicated to
      the other ``k-1`` mirrors (``mirror.replicate``), so each mirror
      processes the *entire* population's packet stream regardless of
      ``k`` — the §5 scalability ceiling, measurable here as real
      receive-queue growth.
    """

    name = "mirrored"
    fault_kinds = ("mirror.replicate",)

    def __init__(
        self,
        profile: GameProfile,
        seed: int = 0,
        mirrors: int = 3,
        queue_capacity: int | None = 20000,
        perf: PerfConfig | None = None,
    ) -> None:
        if mirrors < 1:
            raise ValueError("need at least one mirror")
        self._mirrors = mirrors
        self._queue_capacity = queue_capacity
        self._round_robin = itertools.count()
        super().__init__(profile, seed=seed, perf=perf)

    def build(self) -> None:
        profile = self.profile
        world = profile.world
        self.network.set_prefix_profile("client.", "gs.", wan_profile())
        self.network.set_prefix_profile("gs.", "client.", wan_profile())
        self.network.set_prefix_profile(
            "mirror-ms.", "mirror-ms.", lan_profile()
        )
        gate_names = [f"mirror-ms.{i + 1}" for i in range(self._mirrors)]
        self._game_servers: dict[str, GameServer] = {}
        self.gates: dict[str, MirrorGate] = {}
        directory = {
            f"gs.{i + 1}": world for i in range(self._mirrors)
        }
        for i in range(self._mirrors):
            gs_name = f"gs.{i + 1}"
            game_server = GameServer(
                gs_name,
                profile,
                world,
                queue_capacity=self._queue_capacity,
            )
            self.network.add_node(game_server)
            gate = MirrorGate(
                name=gate_names[i], game_server=gs_name, peers=gate_names
            )
            self.network.add_node(gate)
            self.network.set_colocated(gs_name, gate_names[i])
            game_server.bind_matrix(gate_names[i], world)
            gate.announce_range(world, directory)
            self._game_servers[gs_name] = game_server
            self.gates[gate_names[i]] = gate
        self._gs_names = list(self._game_servers)

    def locate(self, point: Vec2) -> str:
        """Ownership: position-blind round-robin over the mirrors."""
        return self._gs_names[next(self._round_robin) % len(self._gs_names)]

    @property
    def game_servers(self) -> dict[str, GameServer]:
        return self._game_servers

    def fault_nodes(self) -> list:
        """Replication leaves from the gates: fault those."""
        return list(self.gates.values())

    def consistency_metrics(self) -> dict[str, float]:
        """Measured replication traffic vs the closed-form expectation."""
        spatial = sum(gate.client_packets for gate in self.gates.values())
        replicas = sum(gate.replica_packets for gate in self.gates.values())
        stats = self.network.stats
        return {
            "mirrors": float(self._mirrors),
            "client_spatial_packets": float(spatial),
            "replicate_messages": float(
                stats.kind_messages("mirror.replicate")
            ),
            "replicate_bytes": float(stats.kind_bytes("mirror.replicate")),
            "replicas_processed": float(replicas),
            "replication_per_client_packet": (
                replicas / spatial if spatial else 0.0
            ),
            "expected_replication_per_client_packet": float(
                self._mirrors - 1
            ),
        }


@dataclass(frozen=True, slots=True)
class MirroredCost:
    """Closed-form per-second costs of a k-mirror group."""

    mirrors: int
    clients: int
    client_packets_per_second: float
    replication_packets_per_second: float
    per_mirror_load: float


def mirrored_cost(
    profile: GameProfile, clients: int, mirrors: int
) -> MirroredCost:
    """Closed-form cost of serving *clients* with *mirrors* mirrors.

    Every client packet lands on one mirror and is replicated to the
    other ``mirrors - 1``; each mirror therefore processes its own
    share plus every other mirror's replication stream.
    """
    if mirrors < 1:
        raise ValueError("need at least one mirror")
    packet_rate = clients * (profile.update_hz + profile.action_rate)
    replication = packet_rate * (mirrors - 1)
    # Per mirror: its own share (rate/k) plus replicas of every other
    # mirror's share ((k-1) * rate/k) — i.e. the full packet rate.
    per_mirror = packet_rate / mirrors * (1 + (mirrors - 1))
    return MirroredCost(
        mirrors=mirrors,
        clients=clients,
        client_packets_per_second=packet_rate,
        replication_packets_per_second=replication,
        per_mirror_load=per_mirror,
    )


def max_clients_mirrored(profile: GameProfile, mirrors: int) -> int:
    """Largest population a k-mirror group can serve.

    Per-mirror load is ``rate/k * k = rate`` — adding mirrors does not
    increase packet capacity at all (every mirror still sees every
    packet), which is the §5 criticism in one line.
    """
    rate_per_client = profile.update_hz + profile.action_rate
    return int(profile.server_service_rate / rate_per_client)
