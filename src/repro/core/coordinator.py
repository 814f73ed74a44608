"""The Matrix Coordinator (MC) — §3.2.4.

The MC owns the authoritative map of ``Matrix server → partition`` and
recomputes every server's overlap table whenever the partitioning
changes (a server registers, splits, or is reclaimed).  Crucially it is
*not* on the data path: packet routing uses the tables it pushed, so MC
traffic stays a vanishing fraction of total traffic (microbenchmark
M-mc asserts this).  The MC also answers the rare non-proximal
consistency queries with the brute-force Equation-1 computation.
"""

from __future__ import annotations

from repro.core.config import (
    CONTROL_BYTES,
    DIRECTORY_ENTRY_BYTES,
    METRIC,
    TABLE_CELL_BYTES,
    MatrixConfig,
)
from repro.core.messages import (
    ConsistencyQuery,
    ConsistencyReply,
    OverlapTableUpdate,
    ReclaimNotice,
    RegisterServer,
    SplitNotice,
    UnregisterServer,
)
from repro.geometry import (
    OverlapMapCache,
    PartitionIndex,
    Rect,
    consistency_set_at,
)
from repro.net.message import Message
from repro.net.node import Node, handles

#: Seconds between the primary's state syncs to the standby (the sync
#: doubles as the heartbeat) and between the standby's checks of it.
MC_SYNC_PERIOD = 1.0
#: Sync silence after which the standby promotes itself.
MC_FAILOVER_TIMEOUT = 3.0


class MatrixCoordinator(Node):
    """The central coordinator node (name: ``mc``)."""

    def __init__(self, config: MatrixConfig, name: str = "mc") -> None:
        super().__init__(name, service_rate=float("inf"))
        self._config = config
        #: The authoritative Matrix-server → partition map.
        self.partitions: dict[str, Rect] = {}
        self._game_server_of: dict[str, str] = {}
        #: Monotonic table version; bumps on every recompute.
        self.version = 0
        self._standby: str | None = None
        self._sync_task = None
        # Indexed point → owner lookup, rebuilt lazily whenever the
        # partitioning changes.
        self._owner_index: PartitionIndex | None = None
        # Incremental overlap-cell store: on a split/reclaim only the
        # partitions the changed rectangles can reach are re-decomposed
        # (created on first recompute, once a network/perf is known).
        self._overlap_cache: OverlapMapCache | None = None

    def coverage_area(self) -> float:
        """Total area covered by registered partitions (should equal
        the world's area at all times — asserted by invariant tests)."""
        return sum(rect.area for rect in self.partitions.values())

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    @handles("mc.register")
    def _on_register(self, message: Message) -> None:
        reg: RegisterServer = message.payload
        self.partitions[reg.matrix_server] = reg.partition
        self._game_server_of[reg.matrix_server] = reg.game_server
        self._recompute_and_push()

    @handles("mc.split")
    def _on_split(self, message: Message) -> None:
        notice: SplitNotice = message.payload
        if notice.parent not in self.partitions:
            return  # stale notice from a server we no longer know
        self.partitions[notice.parent] = notice.parent_partition
        self.partitions[notice.child] = notice.child_partition
        self._game_server_of[notice.child] = notice.child_game_server
        self._recompute_and_push()

    @handles("mc.reclaim")
    def _on_reclaim(self, message: Message) -> None:
        notice: ReclaimNotice = message.payload
        if notice.parent not in self.partitions:
            return
        self.partitions.pop(notice.child, None)
        self._game_server_of.pop(notice.child, None)
        self.partitions[notice.parent] = notice.merged_partition
        self._recompute_and_push()

    @handles("mc.unregister")
    def _on_unregister(self, message: Message) -> None:
        unreg: UnregisterServer = message.payload
        self.partitions.pop(unreg.matrix_server, None)
        self._game_server_of.pop(unreg.matrix_server, None)
        self._recompute_and_push()

    def _owner_of(self, point) -> str | None:
        """Indexed owner lookup (rebuilt only when partitions changed)."""
        if self._owner_index is None:
            self._owner_index = PartitionIndex(self.partitions)
        return self._owner_index.lookup(point)

    @handles("mc.query")
    def _on_query(self, message: Message) -> None:
        query: ConsistencyQuery = message.payload
        src = message.src
        owner = self._owner_of(query.point)
        servers = consistency_set_at(
            query.point,
            owner,
            self.partitions,
            self._config.visibility_radius,
            METRIC,
        )
        if owner is not None and query.exclude != owner:
            # For a non-proximal interaction the owner of the remote
            # point must also hear about it, not only its neighbours.
            servers = servers | {owner}
        servers = frozenset(s for s in servers if s != query.exclude)
        reply = ConsistencyReply(request_id=query.request_id, servers=servers)
        self.send(src, "mc.reply", reply, size_bytes=CONTROL_BYTES)

    # ------------------------------------------------------------------
    # Replication (§3.2.4: "The MC can also be made reliable using
    # well understood replication techniques.")
    # ------------------------------------------------------------------
    def start_replication(self, standby: str) -> None:
        """Mirror coordinator state to *standby* periodically.

        The sync doubles as a heartbeat: the standby promotes itself
        when syncs stop arriving (see :class:`StandbyCoordinator`).
        """
        self._standby = standby
        self._sync_task = self.sim.every(
            MC_SYNC_PERIOD, self._send_sync, start=self.sim.now
        )

    def shutdown(self) -> None:
        """Stop periodic duties (crash simulation / end of run)."""
        if self._sync_task is not None:
            self._sync_task.stop()
            self._sync_task = None

    def _send_sync(self) -> None:
        state = {
            "partitions": dict(self.partitions),
            "game_server_of": dict(self._game_server_of),
            "version": self.version,
        }
        size = len(self.partitions) * 2 * DIRECTORY_ENTRY_BYTES + CONTROL_BYTES
        self.send(self._standby, "mc.sync", state, size_bytes=size)

    # ------------------------------------------------------------------
    # Table computation / distribution
    # ------------------------------------------------------------------
    def _recompute_and_push(self) -> None:
        """Recompute every server's overlap table and push it.

        §3.2.4: "The MC recomputes and redistributes overlap regions
        every time a new Matrix server is used or whenever an existing
        Matrix server is reclaimed."
        """
        self.version += 1
        self._owner_index = None  # partitioning changed: rebuild lazily
        directory = {
            self._game_server_of[ms]: rect
            for ms, rect in self.partitions.items()
        }
        server_map = dict(self._game_server_of)
        radius = self._config.visibility_radius
        if self._overlap_cache is None:
            perf = self._network.perf if self._network is not None else None
            self._overlap_cache = OverlapMapCache(METRIC, perf=perf)
        all_tables = self._overlap_cache.compute(self.partitions, (radius,))
        for ms_name, partition in self.partitions.items():
            cells = all_tables[ms_name][radius]
            update = OverlapTableUpdate(
                version=self.version,
                partition=partition,
                cells=cells,
                partitions=dict(self.partitions),
                game_servers=directory,
                server_map=server_map,
            )
            size = (
                len(cells) * TABLE_CELL_BYTES
                + len(self.partitions) * 2 * DIRECTORY_ENTRY_BYTES
                + CONTROL_BYTES
            )
            self.send(ms_name, "mc.table", update, size_bytes=size)


class StandbyCoordinator(MatrixCoordinator):
    """A warm-standby MC replica.

    Receives periodic state syncs from the primary.  When syncs stop
    arriving for :data:`MC_FAILOVER_TIMEOUT` seconds, the standby promotes
    itself: it adopts the mirrored state, announces the failover to
    every Matrix server (which switch their coordinator address), and
    recomputes/pushes fresh overlap tables.  This is the "well
    understood replication technique" the paper gestures at, in its
    simplest primary/backup form.
    """

    def __init__(self, config: MatrixConfig, name: str = "mc-backup") -> None:
        super().__init__(config, name=name)
        self._last_sync: float | None = None
        self._monitor = None
        self.promoted = False
        self.promoted_at: float | None = None
        #: Called (with this standby) right after promotion — the
        #: deployment uses it to point future spawns at the new MC.
        self.on_promote = None
        # Before promotion every MC message except the sync heartbeat
        # belongs to the primary: those kinds stay out of the handler
        # table (a stray is counted unhandled) until ``_promote``.
        self._held = {
            kind: self._handlers.pop(kind)
            for kind in list(self._handlers)
            if kind != "mc.sync"
        }

    def start_monitoring(self) -> None:
        """Begin watching the primary's sync heartbeats."""
        self._monitor = self.sim.every(MC_SYNC_PERIOD, self._check_primary)

    @handles("mc.sync")
    def _on_sync(self, message: Message) -> None:
        state: dict = message.payload
        self._last_sync = self.sim.now
        if self.promoted:
            return  # a zombie primary's stale sync must not demote us
        self.partitions = dict(state["partitions"])
        self._game_server_of = dict(state["game_server_of"])
        self.version = state["version"]
        self._owner_index = None

    def _check_primary(self) -> None:
        if self.promoted or self._last_sync is None:
            return
        if self.sim.now - self._last_sync < MC_FAILOVER_TIMEOUT:
            return
        self._promote()

    def _promote(self) -> None:
        """Take over coordination after the primary went silent.

        The mirrored map is only a *notification list*, not truth: any
        split or reclaim announced to the primary after its last sync
        is missing from it, so pushing it back out could overwrite a
        server's newer partition with a stale one.  Instead the map is
        rebuilt from scratch: every known server is told to fail over,
        the failover handler makes each one re-register its current
        range (and cascade to its children, whom the standby may never
        have heard of), and each registration recomputes and pushes
        fresh tables.  The synced version is kept, so every post-
        promotion push supersedes anything the dead primary sent.
        """
        self.promoted = True
        self.promoted_at = self.sim.now
        # In place: the receive queue holds this dict.
        self._handlers.update(self._held)
        if self._monitor is not None:
            self._monitor.stop()
        known = list(self.partitions)
        self.partitions = {}
        self._game_server_of = {}
        self._owner_index = None
        self.multicast(known, "mc.failover", self.name, CONTROL_BYTES)
        if self.on_promote is not None:
            self.on_promote(self)
