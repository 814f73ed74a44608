"""Shard-local deployment state over message-passing control lanes.

The classic :class:`~repro.core.deployment.MatrixDeployment` is a shared
mutable object: every Matrix server calls straight into it (and through
it into the one :class:`~repro.core.pool.ServerPool`) to acquire hosts,
boot split children and retire reclaimed pairs.  Under the sharded
engine those calls would mutate state owned by another lane mid-window.

This module keeps the *logic* of the deployment but moves its mutable
control state behind a message boundary:

* :class:`FabricNode` — a control-plane node (``"fabric"``) with no
  shard anchor, so the sharded network homes it on the **global lane**.
  It owns the pool, the spawn/decommission bookkeeping and the event
  log, and mutates them only from global-lane context.
* :class:`LaneFabric` — the per-server proxy satisfying the
  :class:`~repro.core.runtime.fabric.Fabric` protocol.  Each request
  becomes an ordinary ``fabric.*`` message riding the conservative-
  window outbox exchange in canonical ``(time, seq, shard)`` order, so
  grant ordering is message-arrival order — deterministic for any shard
  count.  The proxy ``@handles`` the two reply kinds itself: the Matrix
  server adopts its fabric (``Node.adopt``) and knows nothing of them.
* :class:`ShardedMatrixDeployment` — the deployment subclass that wires
  the two up via ``_fabric_for``.

``client_positions`` stays a direct read: the queried game server is
co-located with the asking Matrix server on the *same* lane, so the
read never crosses a shard boundary.
"""

from __future__ import annotations

from repro.core.config import CONTROL_BYTES
from repro.core.deployment import MatrixDeployment
from repro.core.messages import (
    FabricAcquire,
    FabricDecommission,
    FabricGrant,
    FabricRelease,
    FabricSpawn,
    FabricSpawned,
)
from repro.geometry import Rect
from repro.net.network import lan_profile
from repro.net.node import Node, handles


class LaneFabric:
    """Message-passing :class:`~repro.core.runtime.fabric.Fabric` proxy.

    One per Matrix server.  Requests are sent from the owning server's
    lane; replies come back as ``fabric.grant`` / ``fabric.spawned``
    messages, which this proxy handles itself (the server adopts its
    fabric like any other runtime component).  A single callback slot
    per request kind suffices: ``Lifecycle.busy`` admits one split (and
    hence one acquire and one spawn) at a time per server, and both are
    answered long before a watchdog could abort the split.
    """

    def __init__(self, deployment: "ShardedMatrixDeployment", ms_name: str) -> None:
        self._deployment = deployment
        self._ms_name = ms_name
        self._server = None  # resolved lazily: the node outlives us
        self._grant_callback = None
        self._spawn_callback = None

    def _send(self, kind: str, payload) -> None:
        server = self._server
        if server is None:
            server = self._server = self._deployment.matrix_servers[self._ms_name]
        server.send(FabricNode.NAME, kind, payload, size_bytes=CONTROL_BYTES)

    # ------------------------------------------------------------------
    # Fabric protocol (called from the owning server's lane)
    # ------------------------------------------------------------------
    def acquire_host(self, callback) -> None:
        self._grant_callback = callback
        self._send("fabric.acquire", FabricAcquire(requester=self._ms_name))

    def release_host(self, host_id: str) -> None:
        self._send("fabric.release", FabricRelease(host_id=host_id))

    def spawn_pair(self, host_id: str, partition: Rect, parent: str, callback) -> None:
        self._spawn_callback = callback
        self._send(
            "fabric.spawn",
            FabricSpawn(host_id=host_id, partition=partition, parent=parent),
        )

    def decommission_pair(self, matrix_name: str, host_id: str | None) -> None:
        self._send(
            "fabric.decommission",
            FabricDecommission(matrix_name=matrix_name, host_id=host_id),
        )

    def client_positions(self, game_server: str):
        # Same-lane read: the game server is co-located with the asker.
        return self._deployment.client_positions(game_server)

    # ------------------------------------------------------------------
    # Replies from the fabric node
    # ------------------------------------------------------------------
    @handles("fabric.grant")
    def on_grant(self, message) -> None:
        callback, self._grant_callback = self._grant_callback, None
        if callback is not None:
            callback(message.payload.host_id)

    @handles("fabric.spawned")
    def on_spawned(self, message) -> None:
        spawned = message.payload
        callback, self._spawn_callback = self._spawn_callback, None
        if callback is not None:
            callback(spawned.child_ms, spawned.child_gs)


class FabricNode(Node):
    """The deployment's control plane as a global-lane network node.

    Carries **no** ``shard_anchor``, so ``ShardedNetwork.sim_for`` homes
    it on the global lane: every handler below runs in global context,
    where pool state, the pair registry and the event log may be
    mutated safely between lane windows.
    """

    NAME = "fabric"

    def __init__(self, deployment: "ShardedMatrixDeployment") -> None:
        super().__init__(self.NAME)
        self._deployment = deployment

    def _reply(self, dst: str, kind: str, payload) -> None:
        self.send(dst, kind, payload, size_bytes=CONTROL_BYTES)

    @handles("fabric.acquire")
    def _on_acquire(self, message) -> None:
        requester = message.payload.requester

        def granted(host_id: str | None, requester=requester) -> None:
            self._reply(requester, "fabric.grant", FabricGrant(host_id=host_id))

        self._deployment.pool.try_acquire(granted)

    @handles("fabric.release")
    def _on_release(self, message) -> None:
        self._deployment.pool.release(message.payload.host_id)

    @handles("fabric.spawn")
    def _on_spawn(self, message) -> None:
        spawn = message.payload

        def booted(child_ms: str, child_gs: str, parent=spawn.parent) -> None:
            self._reply(
                parent,
                "fabric.spawned",
                FabricSpawned(child_ms=child_ms, child_gs=child_gs),
            )

        self._deployment.spawn_pair(
            spawn.host_id, spawn.partition, spawn.parent, booted
        )

    @handles("fabric.decommission")
    def _on_decommission(self, message) -> None:
        retire = message.payload
        self._deployment.decommission_pair(retire.matrix_name, retire.host_id)


class ShardedMatrixDeployment(MatrixDeployment):
    """Deployment whose control plane lives behind the fabric node."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.fabric_node = FabricNode(self)
        self.network.add_node(self.fabric_node)
        # Matrix server <-> fabric control traffic is LAN-class, same
        # as server <-> MC.
        self.network.set_prefix_profile("ms.", FabricNode.NAME, lan_profile())
        self.network.set_prefix_profile(FabricNode.NAME, "ms.", lan_profile())

    def _fabric_for(self, ms_name: str) -> LaneFabric:
        return LaneFabric(self, ms_name)
