"""The Matrix server (§3.2.3) — "the heart of our distributed middleware".

The server itself is a thin facade: a :class:`~repro.net.node.Node`
that adopts the runtime components, each of which marks the methods
that answer its message kinds with the ``handles`` decorator, so a
serviced message goes from ``Node.handle_message`` straight into the
component method that decides —

* :class:`~repro.core.runtime.router.SpatialRouter` — O(1) overlap-table
  forwarding and table installation;
* :class:`~repro.core.runtime.lifecycle.Lifecycle` — the split/reclaim
  state machines;
* :class:`~repro.core.runtime.transfer.StateTransfer` — chunked map
  state transfer;
* :class:`~repro.core.runtime.gossip.LoadMonitor` — load reports,
  parent/child gossip, policy decisions;
* :class:`~repro.core.runtime.queries.QueryRelay` — non-proximal
  consistency queries via the MC.

All components share one :class:`~repro.core.runtime.context.ServerContext`.
The server's own kind is ``mc.failover``.
"""

from __future__ import annotations

from repro.core.config import ROUTER_SERVICE_RATE, MatrixConfig
from repro.core.messages import RegisterServer
from repro.core.runtime.context import ServerContext
from repro.core.runtime.fabric import Fabric
from repro.core.runtime.gossip import LoadMonitor
from repro.core.runtime.lifecycle import Lifecycle
from repro.core.runtime.queries import QueryRelay
from repro.core.runtime.router import SpatialRouter
from repro.core.runtime.transfer import StateTransfer
from repro.geometry import Rect
from repro.net.message import Message
from repro.net.node import Node, handles


class MatrixServer(Node):
    """One Matrix middleware server, co-located with one game server."""

    def __init__(
        self,
        name: str,
        game_server: str,
        config: MatrixConfig,
        fabric: Fabric,
        partition: Rect,
        parent: str | None = None,
        host_id: str = "host-0",
        coordinator: str = "mc",
    ) -> None:
        super().__init__(name, service_rate=ROUTER_SERVICE_RATE)
        # Spawn-time partition centre: identical to the co-located game
        # server's anchor, so the sharded network homes the pair on one
        # lane (their loopback link must never cross a shard boundary).
        self.shard_anchor = partition.center
        self.ctx = ServerContext(
            node=self,
            config=config,
            game_server=game_server,
            fabric=fabric,
            partition=partition,
            parent=parent,
            host_id=host_id,
            coordinator=coordinator,
        )
        self.transfer = self.adopt(StateTransfer(self.ctx))
        self.lifecycle = self.adopt(Lifecycle(self.ctx, self.transfer))
        self.router = self.adopt(SpatialRouter(self.ctx))
        self.load = self.adopt(LoadMonitor(self.ctx, self.lifecycle))
        self.queries = self.adopt(QueryRelay(self.ctx))
        # A fabric that answers over the wire (the lane deployment's
        # proxy) handles its own replies; one that calls back directly
        # (the classic deployment) handles nothing.
        self.adopt(fabric)

    # ------------------------------------------------------------------
    # Introspection: the readers outside the runtime; everything else is
    # read through ``ctx`` (and ``ctx.stats``).
    # ------------------------------------------------------------------
    @property
    def partition(self) -> Rect:
        """The map range this server currently manages."""
        return self.ctx.partition

    @property
    def game_server(self) -> str:
        """Name of the co-located game server."""
        return self.ctx.game_server

    @property
    def host_id(self) -> str:
        """Pool host this server runs on."""
        return self.ctx.host_id

    @property
    def client_count(self) -> int:
        """Client count from the latest game-server load report."""
        return self.ctx.client_count

    @property
    def delivered_packets(self) -> int:
        """Forwarded packets this server handed to its game server."""
        return self.ctx.stats.delivered_packets

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def register_with_coordinator(self) -> None:
        """Announce this server's map range to the MC (bootstrap only;
        splits/reclaims are announced atomically by the parent)."""
        ctx = self.ctx
        reg = RegisterServer(
            matrix_server=self.name,
            game_server=ctx.game_server,
            partition=ctx.partition,
            visibility_radius=ctx.config.visibility_radius,
        )
        ctx.control_send(ctx.coordinator, "mc.register", reg)

    @handles("mc.failover")
    def _on_failover(self, message: Message) -> None:
        self.follow_coordinator(message.payload)

    def follow_coordinator(self, new_coordinator: str) -> None:
        """Switch to a promoted standby MC and help it converge.

        The standby rebuilds its map from re-registrations (its mirror
        may predate recent splits), so on first notice this server
        re-announces its current range and cascades the failover down
        to its children — whom the standby may never have heard of.
        Duplicate notices (fabric sweep + wire-level failover + parent
        cascade) are ignored.
        """
        if self.ctx.coordinator == new_coordinator:
            return
        self.ctx.coordinator = new_coordinator
        self.register_with_coordinator()
        for child in self.ctx.children:
            self.ctx.control_send(
                child.matrix_name, "mc.failover", new_coordinator
            )
