"""Shared state of one Matrix server's runtime components.

The runtime package is built from cohesive components (router,
lifecycle, transfer, gossip, queries).  They communicate through one
:class:`ServerContext` — the single place the server's mutable state
lives — rather than through each other's internals, so each component
can be read, tested and replaced on its own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import CONTROL_BYTES, METRIC, MatrixConfig
from repro.core.policy import ChildLoad, LoadPolicy
from repro.core.splitting import strategy_by_name
from repro.geometry import PartitionIndex, Rect, RegionIndex

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime.fabric import Fabric
    from repro.net.node import Node


class ChildRecord:
    """Bookkeeping for one spawned child (LIFO reclaim stack entry)."""

    __slots__ = ("matrix_name", "game_server", "host_id", "born_at")

    def __init__(
        self, matrix_name: str, game_server: str, host_id: str, born_at: float
    ) -> None:
        self.matrix_name = matrix_name
        self.game_server = game_server
        self.host_id = host_id
        self.born_at = born_at


class ServerStats:
    """A Matrix server's counters.

    The harness sums the split and reclaim counts into its result, and
    the batching microbench reads ``delivered_packets``.
    ``stale_forwards`` and ``failed_reclaims`` are fault-detection
    values: no run reads them, tests do.
    """

    __slots__ = (
        "delivered_packets", "stale_forwards", "failed_splits",
        "failed_reclaims", "splits_completed", "reclaims_completed",
    )

    def __init__(self) -> None:
        self.delivered_packets = 0
        self.stale_forwards = 0
        self.failed_splits = 0
        self.failed_reclaims = 0
        self.splits_completed = 0
        self.reclaims_completed = 0


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

        #: The overlap table at the deployment's visibility radius (None
        #: until the first push).
        self.table: RegionIndex | None = None
        self.table_version = 0
        self.partitions: dict[str, Rect] = {}
        self.owner_index: PartitionIndex | None = None
        self.directory: dict[str, Rect] = {}
        self.server_map: dict[str, str] = {}

        self.children: list[ChildRecord] = []
        self.child_loads: dict[str, ChildLoad] = {}
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
