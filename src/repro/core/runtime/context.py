"""Shared state of one Matrix server's runtime components.

The runtime package is built from cohesive components (router,
lifecycle, transfer, gossip, queries).  They communicate through one
:class:`ServerContext` — the single place the server's mutable state
lives — rather than through each other's internals, so each component
can be read, tested and replaced on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.config import CONTROL_BYTES, METRIC, MatrixConfig
from repro.core.policy import ChildLoad, LoadPolicy
from repro.core.splitting import strategy_by_name
from repro.geometry import PartitionIndex, Rect, RegionIndex

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime.fabric import Fabric
    from repro.net.node import Node


@dataclass(slots=True)
class ChildRecord:
    """Bookkeeping for one spawned child (LIFO reclaim stack entry)."""

    matrix_name: str
    game_server: str
    host_id: str
    born_at: float


@dataclass(slots=True)
class ServerStats:
    """Counters the harness and benches read off a Matrix server."""

    radius_fallbacks: int = 0
    forwarded_packets: int = 0
    delivered_packets: int = 0
    stale_forwards: int = 0
    misrouted_packets: int = 0
    local_only_packets: int = 0
    failed_splits: int = 0
    failed_reclaims: int = 0
    splits_completed: int = 0
    reclaims_completed: int = 0


class ServerContext:
    """Mutable state shared by one server's runtime components."""

    def __init__(
        self,
        node: "Node",
        config: MatrixConfig,
        game_server: str,
        fabric: "Fabric",
        partition: Rect,
        parent: str | None,
        host_id: str,
        coordinator: str,
    ) -> None:
        self.node = node
        #: Send on behalf of the owning node (through its middleware).
        self.send = node.send
        self.multicast = node.multicast
        self.config = config
        self.game_server = game_server
        self.fabric = fabric
        self.partition = partition
        self.parent = parent
        self.host_id = host_id
        self.coordinator = coordinator
        self.strategy = strategy_by_name(config.split_strategy)
        self.policy = LoadPolicy(config.policy)

        # One overlap table per visibility radius (§3.1): the default
        # plus any exception radii the game registered.
        self.tables: dict[float, RegionIndex] = {}
        self.default_radius = config.visibility_radius
        self.table_version = 0
        self.partitions: dict[str, Rect] = {}
        self.owner_index: PartitionIndex | None = None
        self.directory: dict[str, Rect] = {}
        self.server_map: dict[str, str] = {}

        self.children: list[ChildRecord] = []
        self.child_loads: dict[str, ChildLoad] = {}
        self.busy = False
        self.dying = False
        self.client_count = 0

        self.stats = ServerStats()

    @property
    def partition(self) -> Rect:
        """The map partition this server owns."""
        return self._partition

    @partition.setter
    def partition(self, partition: Rect) -> None:
        # Every writer (table installs, splits, reclaims, the lane-state
        # hook) comes through here, so ``reach`` — what ``on_forward``
        # tests each packet against — is derived per change, not per
        # packet, and cannot go stale.
        self._partition = partition
        self.reach = METRIC.expand_rect(
            partition, self.config.visibility_radius
        )

    # ------------------------------------------------------------------
    # Conveniences shared by every component
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The owning node's network name."""
        return self.node.name

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.node.sim.now

    def control_send(self, dst: str, kind: str, payload) -> None:
        """Send a fixed-size control-plane message."""
        self.send(dst, kind, payload, size_bytes=CONTROL_BYTES)

    @property
    def default_table(self) -> RegionIndex | None:
        """The default-radius overlap table (None until the first push)."""
        return self.tables.get(self.default_radius)

    def table_for(self, radius: float | None) -> RegionIndex | None:
        """The overlap table for *radius* (default when None/unknown).

        An unknown exception radius falls back to the default table —
        counted, so operators can see mis-registered radii.
        """
        if radius is None:
            return self.default_table
        table = self.tables.get(radius)
        if table is None:
            self.stats.radius_fallbacks += 1
            return self.default_table
        return table

    def owner_of(self, point) -> str | None:
        """Owner of *point* among the last pushed partitions (or None).

        The index is built lazily on the first lookup after a table
        push: owner lookups only happen on the rare misroute and
        remote-destination paths, so most pushes never pay the build.
        """
        if self.owner_index is None:
            if not self.partitions:
                return None
            self.owner_index = PartitionIndex(self.partitions)
        return self.owner_index.lookup(point)
