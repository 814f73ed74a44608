"""Deployment fabric: wires Matrix servers, game servers, MC and pool.

A :class:`MatrixDeployment` owns the runtime inventory of a Matrix-
hosted game: it bootstraps the first Matrix+game server pair over the
whole world, implements the :class:`~repro.core.runtime.fabric.Fabric`
services (host acquisition, pair spawning, decommissioning), applies
network profiles (LAN between servers, WAN to clients, loopback within
a co-located pair), installs the batching stage on every Matrix server
it creates when the config asks for it, and records a
spawn/decommission event log the experiment harness turns into Fig 2's
annotations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.api import GameServerHandle
from repro.core.config import MatrixConfig
from repro.core.coordinator import MatrixCoordinator, StandbyCoordinator
from repro.core.pool import ServerPool
from repro.core.runtime import MatrixServer
from repro.core.runtime.context import ServerStats
from repro.geometry import Rect, Vec2
from repro.net.middleware import SpatialBatchingStage
from repro.net.network import Network, lan_profile, wan_profile
from repro.net.node import Node
from repro.sim.kernel import Simulator

#: Seconds to provision a server host from the pool.
POOL_ACQUIRE_DELAY = 1.0
#: Fixed startup time of a freshly spawned game+Matrix server pair.
SERVER_SPAWN_DELAY = 1.5
#: Host-supervisor sweep period (crash-detection latency bound).
SUPERVISOR_INTERVAL = 0.5
#: Downtime of a crashed host before its lease returns to the pool.
HOST_REBOOT_DELAY = 2.0

#: Creates a game-server node for the given name and initial map range.
#: The returned object must be a :class:`~repro.net.node.Node` that also
#: satisfies :class:`~repro.core.api.GameServerHandle`.
GameServerFactory = Callable[[str, Rect], Node]


@dataclass(slots=True)
class ServerEvent:
    """One entry of the deployment's lifecycle log."""

    time: float
    kind: str  # "spawn" | "decommission" | "crash"
    matrix_server: str
    game_server: str


@dataclass(slots=True)
class CrashRecovery:
    """Audit trail of one crashed pair's supervised recovery."""

    victim: str
    crashed_at: float
    detected_at: float
    #: When the replacement pair registered its partition (None while
    #: the respawn is still pending, e.g. the pool was empty).
    restored_at: float | None = None
    replacement: str | None = None

    @property
    def recovery_time(self) -> float | None:
        """Crash-to-reregistration latency (None = not yet recovered)."""
        if self.restored_at is None:
            return None
        return self.restored_at - self.crashed_at


class MatrixDeployment:
    """Runtime inventory + fabric services for one Matrix-hosted game."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        config: MatrixConfig,
        game_server_factory: GameServerFactory,
        pool_capacity: int = 16,
        replicated_mc: bool = False,
    ) -> None:
        self.sim = sim
        self.network = network
        self.config = config
        self._factory = game_server_factory
        self.pool = ServerPool(
            sim, capacity=pool_capacity, acquire_delay=POOL_ACQUIRE_DELAY
        )
        self.coordinator = MatrixCoordinator(config)
        network.add_node(self.coordinator)
        self._coordinator_name = self.coordinator.name
        self.standby_coordinator: StandbyCoordinator | None = None
        if replicated_mc:
            self.standby_coordinator = StandbyCoordinator(config)
            network.add_node(self.standby_coordinator)
            network.set_prefix_profile("mc", "mc", lan_profile())
            self.coordinator.start_replication(self.standby_coordinator.name)
            self.standby_coordinator.start_monitoring()
            self.standby_coordinator.on_promote = self._on_mc_promoted
        self.matrix_servers: dict[str, MatrixServer] = {}
        self.game_servers: dict[str, GameServerHandle] = {}
        #: The counters of every Matrix server ever created: reclaimed
        #: and crashed servers leave ``matrix_servers``, their splits
        #: and reclaims stay counted here.
        self.server_stats: list[ServerStats] = []
        self.events: list[ServerEvent] = []
        self._pair_counter = 0
        # --- crash supervision (armed by the chaos driver) -----------
        #: Hooks run on every freshly created pair (chaos uses this to
        #: keep fault-injection stages installed on late spawns).
        self.pair_created_hooks: list[Callable[[MatrixServer], None]] = []
        #: Hook run when a crashed pair's replacement re-registers.
        self.on_recovery: Callable[[CrashRecovery], None] | None = None
        #: Hook run when the standby MC promotes itself.
        self.on_failover: Callable[[StandbyCoordinator], None] | None = None
        self.crash_recoveries: list[CrashRecovery] = []
        self._supervisor_task = None
        #: Corpses awaiting autopsy, with announced-ness decided at
        #: crash time (the MC map is unreliable mid-failover).
        self._corpses: list[tuple[MatrixServer, bool]] = []
        #: Every corpse ever, by name — a child crashing after its
        #: parent still needs the parent's in-flight-split state.
        self._crashed_index: dict[str, MatrixServer] = {}
        #: Respawns blocked on an exhausted pool, retried per sweep.
        self._respawn_queue: list[tuple[MatrixServer, CrashRecovery]] = []
        self._pending_spawns: dict[str, list] = {}
        self._pending_releases: set[str] = set()
        self._install_profiles()

    def fail_coordinator(self) -> None:
        """Crash the primary MC (fault-injection hook for tests/benches).

        With ``replicated_mc`` the standby notices the missing sync
        heartbeats and promotes itself; without it, the deployment can
        no longer repartition (but the data path keeps working — the
        MC is not on it).
        """
        self.coordinator.shutdown()
        self.network.remove_node(self.coordinator.name)

    def _on_mc_promoted(self, standby: StandbyCoordinator) -> None:
        """The standby took over: re-point the fabric at it.

        Future spawns (split children, crash replacements) register
        with the new MC, and — since the standby only notifies the
        servers its last sync knew — the fabric sweeps every *live*
        server onto the new coordinator too.  Servers the wire-level
        failover also reaches ignore the duplicate (the handler is
        idempotent); servers the standby never heard of (crash
        replacements registered while the primary was already dead)
        are exactly the ones this sweep saves.
        """
        self._coordinator_name = standby.name
        for server in list(self.matrix_servers.values()):
            server.follow_coordinator(standby.name)
        if self.on_failover is not None:
            self.on_failover(standby)

    def _install_profiles(self) -> None:
        net = self.network
        net.set_prefix_profile("ms.", "ms.", lan_profile())
        net.set_prefix_profile("ms.", "mc", lan_profile())
        net.set_prefix_profile("mc", "ms.", lan_profile())
        net.set_prefix_profile("client.", "gs.", wan_profile())
        net.set_prefix_profile("gs.", "client.", wan_profile())
        net.set_prefix_profile("gs.", "gs.", lan_profile())

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------
    def bootstrap(self) -> tuple[MatrixServer, GameServerHandle]:
        """Create the initial pair owning the entire world (server 1)."""
        ms, gs = self._create_pair(self.config.world, parent=None, host_id="host-0")
        ms.register_with_coordinator()
        return ms, gs

    def bootstrap_grid(
        self, columns: int, rows: int
    ) -> list[tuple[MatrixServer, GameServerHandle]]:
        """Create a pre-partitioned grid of pairs (microbenchmarks).

        Production Matrix always starts from one server and splits on
        demand; the grid bootstrap exists so microbenchmarks can study
        a fixed multi-server layout without first manufacturing load.
        """
        from repro.geometry import tile_world

        pairs = []
        for index, tile in enumerate(tile_world(self.config.world, columns, rows)):
            ms, gs = self._create_pair(
                tile, parent=None, host_id=f"host-grid-{index}"
            )
            ms.register_with_coordinator()
            pairs.append((ms, gs))
        return pairs

    def _create_pair(
        self, partition: Rect, parent: str | None, host_id: str
    ) -> tuple[MatrixServer, GameServerHandle]:
        self._pair_counter += 1
        n = self._pair_counter
        ms_name = f"ms.{n}"
        gs_name = f"gs.{n}"
        game_server = self._factory(gs_name, partition)
        self.network.add_node(game_server)
        matrix_server = MatrixServer(
            name=ms_name,
            game_server=gs_name,
            config=self.config,
            fabric=self._fabric_for(ms_name),
            partition=partition,
            parent=parent,
            host_id=host_id,
            coordinator=self._coordinator_name,
        )
        self.network.add_node(matrix_server)
        if self.config.batch_spatial_forwards:
            # One config for the whole fleet: both endpoints of a
            # batched link are guaranteed to speak the batch format.
            matrix_server.use(SpatialBatchingStage())
        self.network.set_colocated(ms_name, gs_name)
        game_server.bind_matrix(ms_name, partition)
        self.matrix_servers[ms_name] = matrix_server
        self.game_servers[gs_name] = game_server
        self.server_stats.append(matrix_server.ctx.stats)
        self.events.append(
            ServerEvent(self.sim.now, "spawn", ms_name, gs_name)
        )
        for hook in self.pair_created_hooks:
            hook(matrix_server)
        return matrix_server, game_server

    def _fabric_for(self, ms_name: str):
        """The :class:`~repro.core.runtime.fabric.Fabric` a new server
        talks to.  The classic deployment hands out itself (direct
        calls); the sharded deployment overrides this with a per-server
        message-passing proxy so fabric requests cross lanes as
        ordinary network traffic."""
        return self

    # ------------------------------------------------------------------
    # Fabric services (called by Matrix servers)
    # ------------------------------------------------------------------
    def acquire_host(self, callback: Callable[[str | None], None]) -> None:
        """Delegate to the server pool (the 'non-Matrix external entity')."""
        self.pool.try_acquire(callback)

    def release_host(self, host_id: str) -> None:
        """Return an acquired-but-unused host (cancelled-split paths)."""
        self.pool.release(host_id)

    def spawn_pair(
        self,
        host_id: str,
        partition: Rect,
        parent: str,
        callback: Callable[[str, str], None],
    ) -> None:
        """Boot a new Matrix+game server pair after the spawn delay.

        The boot event is tracked per parent so that a parent crashing
        mid-split takes its half-born child down with it instead of
        leaving a zombie callback into the dead server.
        """

        def create() -> None:
            pending = self._pending_spawns.get(parent)
            if pending is not None and event in pending:
                pending.remove(event)
            ms, gs = self._create_pair(partition, parent=parent, host_id=host_id)
            callback(ms.name, gs.name)

        event = self.sim.after(SERVER_SPAWN_DELAY, create)
        self._pending_spawns.setdefault(parent, []).append(event)

    def decommission_pair(
        self, matrix_name: str, host_id: str | None
    ) -> None:
        """Remove a reclaimed pair and return its host to the pool.

        A short grace period lets straggler in-flight messages drain
        into the void instead of a dead handler.  ``host_id=None``
        frees the host the pair was spawned on (cancelled-split
        cleanup, which may not hold the original id any more).
        """
        matrix_server = self.matrix_servers.get(matrix_name)
        if matrix_server is None:
            return
        if host_id is None:
            host_id = matrix_server.host_id
        gs_name = matrix_server.game_server
        self._pending_releases.add(host_id)

        def remove() -> None:
            self.network.remove_node(matrix_name)
            self.network.remove_node(gs_name)
            self.matrix_servers.pop(matrix_name, None)
            game_server = self.game_servers.pop(gs_name, None)
            # Normally already stopped by the evacuation; cancelled
            # splits tear down a pair that never evacuated.  Test
            # doubles without periodic duties have no shutdown.
            stop = getattr(game_server, "shutdown", None)
            if stop is not None:
                stop()
            self._pending_releases.discard(host_id)
            self.pool.release(host_id)

        self.events.append(
            ServerEvent(self.sim.now, "decommission", matrix_name, gs_name)
        )
        self.sim.after(0.25, remove)

    def client_positions(self, game_server: str):
        """Split-time read of a game server's client positions."""
        handle = self.game_servers.get(game_server)
        if handle is None:
            return []
        return handle.client_positions()

    # ------------------------------------------------------------------
    # Crash injection and supervised recovery (chaos layer)
    # ------------------------------------------------------------------
    def crash_pair(self, matrix_name: str) -> bool:
        """Kill a Matrix+game server pair abruptly (no cleanup runs).

        Unlike :meth:`decommission_pair` nothing is handed off: clients
        are orphaned, in-flight protocol exchanges hang, and the pair's
        pool lease dangles until the host supervisor (see
        :meth:`enable_crash_recovery`) autopsies the corpse.  Returns
        False when *matrix_name* is not a live server.
        """
        matrix_server = self.matrix_servers.pop(matrix_name, None)
        if matrix_server is None:
            return False
        gs_name = matrix_server.game_server
        game_server = self.game_servers.pop(gs_name, None)
        # The host died: everything scheduled on it dies with it —
        # periodic duties, queued-but-unserviced messages, and the
        # boot of any child pair this server was spawning.
        stop = getattr(game_server, "shutdown", None)
        if stop is not None:
            stop()
        matrix_server.inbox.halt()
        matrix_server.lifecycle.halt()
        if game_server is not None:
            game_server.inbox.halt()
        for event in self._pending_spawns.pop(matrix_name, []):
            self.sim.cancel(event)
        self.network.remove_node(matrix_name)
        self.network.remove_node(gs_name)
        self.events.append(
            ServerEvent(self.sim.now, "crash", matrix_name, gs_name)
        )
        self._crashed_index[matrix_name] = matrix_server
        self._corpses.append(
            (matrix_server, self._was_announced(matrix_server))
        )
        return True

    def enable_crash_recovery(self) -> None:
        """Arm the host supervisor (the pool's 'non-Matrix entity').

        Every :data:`SUPERVISOR_INTERVAL` seconds it sweeps for crashed
        pairs and, for each one found: reclaims the leases the dead
        server held (its own host after :data:`HOST_REBOOT_DELAY`, plus
        any half-finished split's host or unannounced child pair), then
        acquires a fresh host and respawns a replacement over the dead
        partition, which unregisters the victim and re-registers with
        the current MC.
        Never armed by default — plain runs have no crashes to detect
        and must stay event-for-event identical.
        """
        if self._supervisor_task is None:
            self._supervisor_task = self.sim.every(
                SUPERVISOR_INTERVAL, self._supervise
            )

    def _supervise(self) -> None:
        # Respawns waiting out an exhausted pool retry first (their
        # lease reclamation already ran at detection time).
        retries, self._respawn_queue = self._respawn_queue, []
        for corpse, record in retries:
            self.pool.try_acquire(
                lambda host_id, c=corpse, r=record: self._respawn(
                    c, r, host_id
                )
            )
        corpses, self._corpses = self._corpses, []
        for corpse, announced in corpses:
            self._recover(corpse, announced, detected_at=self.sim.now)

    def _was_announced(self, corpse: MatrixServer) -> bool:
        """Did the MC ever learn this server owned its partition?

        A child spawned by an in-flight split is announced only when
        the parent's ``mc.split`` fires after the state transfer; a
        child that crashes before that owns nothing — respawning it
        would double-cover the parent's still-unshrunk partition.
        Decided from the parent's lifecycle state (live or itself a
        corpse) rather than the MC map, which is empty mid-failover
        while the promoted standby rebuilds from re-registrations.
        """
        parent_name = corpse.ctx.parent
        if parent_name is None:
            return True  # roots register at bootstrap
        parent = self.matrix_servers.get(
            parent_name
        ) or self._crashed_index.get(parent_name)
        if parent is not None:
            pending = parent.lifecycle.in_flight_child
            if pending is not None and pending[0] == corpse.name:
                return False  # mid-split child, never announced
        return True

    def _recover(
        self, corpse: MatrixServer, announced: bool, detected_at: float
    ) -> None:
        # Reclaim the leases the dead server held.
        lifecycle = corpse.lifecycle
        pending_child = lifecycle.in_flight_child
        pending_host = lifecycle.in_flight_host
        if pending_child is not None and pending_child[0] in self.matrix_servers:
            # Spawned but never announced to the MC: a pure orphan.
            self.decommission_pair(pending_child[0], pending_host)
        elif pending_host is not None:
            self.pool.release(pending_host)
        own_host = corpse.host_id
        if own_host in self.pool.issued:
            self._pending_releases.add(own_host)

            def reboot(host_id: str = own_host) -> None:
                self._pending_releases.discard(host_id)
                self.pool.release(host_id)

            self.sim.after(HOST_REBOOT_DELAY, reboot)
        if not announced:
            # The corpse owned no announced partition; its parent's
            # split watchdog aborts and keeps the whole range, so a
            # respawn here would double-cover it.  Leases are already
            # reclaimed above — nothing to restore.
            return
        crashed_at = next(
            event.time
            for event in reversed(self.events)
            if event.kind == "crash" and event.matrix_server == corpse.name
        )
        record = CrashRecovery(
            victim=corpse.name,
            crashed_at=crashed_at,
            detected_at=detected_at,
        )
        self.crash_recoveries.append(record)
        # Respawn a replacement over the dead partition.
        self.pool.try_acquire(
            lambda host_id: self._respawn(corpse, record, host_id)
        )

    def _respawn(
        self,
        corpse: MatrixServer,
        record: CrashRecovery,
        host_id: str | None,
    ) -> None:
        if host_id is None:
            # Pool empty right now: retry the respawn on a later sweep
            # (reclamation already ran; the record stays unrecovered
            # until a host frees up).
            self._respawn_queue.append((corpse, record))
            return

        def boot() -> None:
            ctx = corpse.ctx
            replacement, _ = self._create_pair(
                ctx.partition, parent=ctx.parent, host_id=host_id
            )
            # Adopt the dead server's children so reclaims keep working.
            for child in ctx.children:
                replacement.ctx.children.append(child)
                live_child = self.matrix_servers.get(child.matrix_name)
                if live_child is not None:
                    live_child.ctx.parent = replacement.name
            replacement.ctx.child_loads.update(ctx.child_loads)
            # And fix the victim's own parent's bookkeeping.
            parent = (
                self.matrix_servers.get(ctx.parent) if ctx.parent else None
            )
            if parent is not None:
                for sibling in parent.ctx.children:
                    if sibling.matrix_name == corpse.name:
                        sibling.matrix_name = replacement.name
                        sibling.game_server = replacement.game_server
                        sibling.host_id = host_id
            # Re-register the partition with whichever MC is current.
            from repro.core.messages import UnregisterServer

            replacement.ctx.control_send(
                self._coordinator_name,
                "mc.unregister",
                UnregisterServer(matrix_server=corpse.name),
            )
            replacement.register_with_coordinator()
            record.restored_at = self.sim.now
            record.replacement = replacement.name
            if self.on_recovery is not None:
                self.on_recovery(record)

        self.sim.after(SERVER_SPAWN_DELAY, boot)

    def unaccounted_hosts(self) -> list[str]:
        """Issued pool hosts no live owner can explain (leak audit).

        Accounted-for hosts: those of live pairs, those held by a
        still-in-flight split, and those in a release grace window
        (decommission drain, crashed-host reboot).  Anything else
        leaked.  Run this after the simulation has settled — mid-flight
        it reports transient holds, not leaks.
        """
        held: set[str] = set(self._pending_releases)
        held |= self.pool.provisioning
        for server in self.matrix_servers.values():
            held.add(server.host_id)
            in_flight = server.lifecycle.in_flight_host
            if in_flight is not None:
                held.add(in_flight)
        return sorted(self.pool.issued - held)

    # ------------------------------------------------------------------
    # Lobby / directory services (used by workload generators)
    # ------------------------------------------------------------------
    def locate_game_server(self, point: Vec2) -> str:
        """Game server whose partition contains *point* (login path).

        During a reclaim there is a brief window where the dying child's
        region is not yet covered by the parent's merged partition; the
        lobby then answers with the nearest live partition, which is the
        parent in that window.
        """
        best_name: str | None = None
        best_distance = float("inf")
        for matrix_server in self.matrix_servers.values():
            if matrix_server.ctx.dying:
                continue
            if matrix_server.partition.contains(point):
                return matrix_server.game_server
            distance = matrix_server.partition.distance_to_point(point)
            if distance < best_distance:
                best_distance = distance
                best_name = matrix_server.game_server
        if best_name is None:
            raise LookupError(f"no live partition near {point}")
        return best_name

    def live_server_names(self) -> list[str]:
        """Names of Matrix servers that are alive and not being reclaimed."""
        return [
            name
            for name, server in self.matrix_servers.items()
            if not server.ctx.dying
        ]

    def total_clients(self) -> int:
        """Clients across all live game servers (from handles)."""
        return sum(
            handle.client_count for handle in self.game_servers.values()
        )
