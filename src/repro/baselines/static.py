"""Static partitioning — the paper's comparator (§4.1).

A fixed grid of game servers, each permanently owning one tile of the
world.  Clients are homed by position and handed off when they cross
tile borders, but the server set never changes: when a hotspot drives
one tile's arrival rate past its service rate, that server's receive
queue grows without bound (or drops packets once its queue cap is hit)
— "the static partitioning schemes just fail" (§4.2).

The implementation reuses the same :class:`~repro.games.base.GameServer`
as the Matrix runs; only the middleware behind it differs: a
:class:`StaticZoneRouter` stands in for the Matrix server.  It still
routes overlap traffic between neighbouring tiles (computed once at
startup) so the comparison isolates exactly one variable — the absence
of dynamic repartitioning.
"""

from __future__ import annotations

from repro.baselines.backend import ArchitectureBackend
from repro.core.config import METRIC, ROUTER_SERVICE_RATE, PerfConfig
from repro.core.messages import DeliverPacket, SetRange, SpatialPacket
from repro.games.base import GameServer
from repro.games.profile import GameProfile
from repro.geometry import (
    Rect,
    RegionIndex,
    Vec2,
    decompose_partition,
    tile_world,
)
from repro.net.message import Message
from repro.net.network import Network, lan_profile, wan_profile
from repro.net.node import Node, handles
from repro.sim.kernel import Simulator


class StaticZoneRouter(Node):
    """The fixed middleware tier of one static zone.

    Accepts the same ``game.spatial`` / ``matrix.load`` traffic a
    Matrix server would (the game server is byte-identical in both
    systems) but never splits, never reclaims, never talks to a
    coordinator.  Overlap routing between the fixed tiles is computed
    once at startup.
    """

    def __init__(
        self,
        name: str,
        game_server: str,
        partition: Rect,
        table: RegionIndex,
        router_of: dict[str, str],
        directory: dict[str, Rect],
        radius: float,
    ) -> None:
        super().__init__(name, service_rate=ROUTER_SERVICE_RATE)
        self._game_server = game_server
        self._partition = partition
        self._table = table
        self._router_of = router_of  # zone owner id -> router node name
        self._directory = directory
        #: Where a forward must originate to matter here.  The tile
        #: never changes, so neither does this.
        self._reach = METRIC.expand_rect(partition, radius)
        self.forwarded_packets = 0
        self.delivered_packets = 0

    def announce_range(self) -> None:
        """Send the game server its (permanent) range + directory."""
        directive = SetRange(
            partition=self._partition, directory=dict(self._directory)
        )
        self.send(self._game_server, "gs.set_range", directive, size_bytes=128)

    @handles("matrix.load")
    def _on_load_report(self, message: Message) -> None:
        """Load reports are absorbed: nothing adapts here."""

    @handles("game.spatial")
    def _on_spatial(self, message: Message) -> None:
        packet: SpatialPacket = message.payload
        consistency = self._table.lookup_or_none(packet.origin)
        if consistency is None:
            return  # roaming client mid-handoff; its new zone handles it
        # Sorted for cross-process determinism (see SpatialRouter).
        routers = [
            router
            for router in map(self._router_of.get, sorted(consistency))
            if router is not None
        ]
        self.multicast(routers, "matrix.forward", packet, message.size_bytes)
        self.forwarded_packets += len(routers)

    @handles("matrix.forward")
    def _on_forward(self, message: Message) -> None:
        packet: SpatialPacket = message.payload
        if not self._reach.contains_closed(packet.origin):
            return
        self.delivered_packets += 1
        self.send(
            self._game_server,
            "matrix.deliver",
            DeliverPacket(packet=packet),
            size_bytes=message.size_bytes,
        )


class StaticDeployment:
    """A fixed ``columns x rows`` grid of game servers.

    The grid wiring is shared by every fixed-tile architecture: the
    static baseline uses it as-is, and the DHT baseline reuses it with
    a different *router_prefix* and a *router_factory* that builds
    :class:`~repro.baselines.dht.DhtZoneRouter`s — so fixes to the
    tile/directory/colocation wiring apply to both.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        profile: GameProfile,
        columns: int = 2,
        rows: int = 1,
        queue_capacity: int | None = 20000,
        router_prefix: str = "static-ms.",
        router_factory=None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.profile = profile
        if router_factory is None:
            router_factory = StaticZoneRouter
        tiles = tile_world(profile.world, columns, rows)
        zone_ids = [f"zone-{i + 1}" for i in range(len(tiles))]
        partitions = dict(zip(zone_ids, tiles))
        self.game_servers: dict[str, GameServer] = {}
        self.routers: dict[str, StaticZoneRouter] = {}
        router_of = {
            zone: f"{router_prefix}{i + 1}" for i, zone in enumerate(zone_ids)
        }
        directory: dict[str, Rect] = {}

        network.set_prefix_profile("client.", "gs.", wan_profile())
        network.set_prefix_profile("gs.", "client.", wan_profile())
        network.set_prefix_profile(router_prefix, router_prefix, lan_profile())

        for i, zone in enumerate(zone_ids):
            gs_name = f"gs.{i + 1}"
            directory[gs_name] = partitions[zone]
        for i, zone in enumerate(zone_ids):
            gs_name = f"gs.{i + 1}"
            router_name = router_of[zone]
            game_server = GameServer(
                gs_name,
                profile,
                partitions[zone],
                queue_capacity=queue_capacity,
            )
            network.add_node(game_server)
            cells = decompose_partition(
                zone, partitions, profile.visibility_radius, METRIC
            )
            table = RegionIndex(partitions[zone], cells)
            router = router_factory(
                name=router_name,
                game_server=gs_name,
                partition=partitions[zone],
                table=table,
                router_of=router_of,
                directory=directory,
                radius=profile.visibility_radius,
            )
            network.add_node(router)
            network.set_colocated(gs_name, router_name)
            game_server.bind_matrix(router_name, partitions[zone])
            router.announce_range()
            self.game_servers[gs_name] = game_server
            self.routers[router_name] = router

    def locate_game_server(self, point: Vec2) -> str:
        """Owner of *point* among the fixed tiles."""
        for gs_name, game_server in self.game_servers.items():
            if game_server.map_range.contains(point):
                return gs_name
        raise LookupError(f"no tile contains {point}")


class StaticExperiment(ArchitectureBackend):
    """A ready-to-run static deployment with workload hooks.

    The baseline counterpart of
    :class:`~repro.harness.experiment.MatrixExperiment`: same scaffold,
    same fleet, same ``Locator`` contract, same sampling — only the
    middleware behind the game servers differs.
    """

    name = "static"

    def __init__(
        self,
        profile: GameProfile,
        seed: int = 0,
        columns: int = 2,
        rows: int = 1,
        queue_capacity: int | None = 20000,
        perf: PerfConfig | None = None,
    ) -> None:
        self._columns = columns
        self._rows = rows
        self._queue_capacity = queue_capacity
        super().__init__(profile, seed=seed, perf=perf)

    def build(self) -> None:
        self.deployment = StaticDeployment(
            self.sim,
            self.network,
            self.profile,
            columns=self._columns,
            rows=self._rows,
            queue_capacity=self._queue_capacity,
        )

    def locate(self, point: Vec2) -> str:
        """Ownership: the fixed tile containing *point*."""
        return self.deployment.locate_game_server(point)

    @property
    def game_servers(self) -> dict[str, GameServer]:
        return self.deployment.game_servers

    def fault_nodes(self) -> list:
        """Overlap forwards travel router-to-router: fault the routers."""
        return list(self.deployment.routers.values())
