"""Data-plane routing: O(1) overlap-table forwarding (§3.1, §3.2.3).

The router owns the overlap table the MC pushes and the two per-packet
paths: a spatially tagged packet from the co-located game server is
looked up in the table and forwarded to its consistency set, and a
forward arriving from a peer is range-verified and handed to the local
game server.
"""

from __future__ import annotations

from repro.core.config import CONTROL_BYTES, DIRECTORY_ENTRY_BYTES
from repro.core.messages import SetRange, SpatialPacket
from repro.core.runtime.context import ServerContext
from repro.geometry import RegionIndex
from repro.net.dispatch import handles
from repro.net.message import Message


class SpatialRouter:
    """Per-packet forwarding plus overlap-table installation."""

    def __init__(self, ctx: ServerContext) -> None:
        self._ctx = ctx

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    @handles("game.spatial")
    def on_spatial(self, message: Message) -> None:
        """Route a tagged packet from the local game server (§3.1)."""
        ctx = self._ctx
        packet: SpatialPacket = message.payload
        table = ctx.table
        if table is None:
            # Single-server game (or table not yet received): no peers.
            return
        point = packet.origin
        targets: set[str] = set()
        consistency = table.lookup_or_none(point)
        if consistency is not None:
            targets.update(consistency)
        else:
            # The client has not been redirected yet (split in
            # progress): hand the packet to the partition owner.
            owner = ctx.owner_of(point)
            if owner is not None and owner != ctx.name:
                targets.add(owner)
        if packet.dest is not None and not ctx.partition.contains(packet.dest):
            # Packet explicitly addressed to a remote point (projectile
            # impact, targeted ability): its owner must process it too.
            owner = ctx.owner_of(packet.dest)
            if owner is not None and owner != ctx.name:
                targets.add(owner)
        # Sorted iteration: consistency sets are hash-ordered sets of
        # server names, and send order decides which network-latency
        # draw each forward gets.  Sorting makes figure outputs
        # identical across processes regardless of PYTHONHASHSEED.
        ctx.multicast(
            sorted(targets), "matrix.forward", packet, message.size_bytes
        )

    @handles("matrix.forward")
    def on_forward(self, message: Message) -> None:
        """A packet from a peer: verify its range, pass to the game
        server (§3.2.3: 'after verifying the packet's range')."""
        ctx = self._ctx
        packet: SpatialPacket = message.payload
        relevant = ctx.reach.contains_closed(packet.origin) or (
            packet.dest is not None and ctx.partition.contains(packet.dest)
        )
        if not relevant:
            ctx.stats.stale_forwards += 1
            return
        ctx.stats.delivered_packets += 1
        ctx.send(
            ctx.game_server,
            "matrix.deliver",
            packet,
            size_bytes=message.size_bytes,
        )

    # ------------------------------------------------------------------
    # Table installation
    # ------------------------------------------------------------------
    @handles("mc.table")
    def on_table(self, message: Message) -> None:
        """Install a pushed overlap-table update (stale pushes dropped)."""
        ctx = self._ctx
        update = message.payload
        if update.version <= ctx.table_version:
            return  # stale push ordering
        ctx.table_version = update.version
        ctx.partition = update.partition
        ctx.table = RegionIndex(
            update.partition, update.cells, perf=ctx.node.network.perf
        )
        ctx.partitions = update.partitions
        ctx.owner_index = None  # partitioning changed: rebuilt on demand
        ctx.directory = update.game_servers
        ctx.server_map = update.server_map
        directive = SetRange(
            partition=update.partition, directory=dict(ctx.directory)
        )
        size = len(ctx.directory) * DIRECTORY_ENTRY_BYTES + CONTROL_BYTES
        ctx.send(ctx.game_server, "gs.set_range", directive, size_bytes=size)
