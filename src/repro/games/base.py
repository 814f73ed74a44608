"""Generic game server and client.

The paper's three test games differ only in workload parameters (world,
rates, sizes — see :mod:`repro.games.profile`); the actual server/client
machinery they share is implemented once here:

* :class:`GameServer` — owns the clients inside its map range, processes
  their updates/actions, emits personalised snapshots, feeds every
  packet through its :class:`~repro.core.api.MatrixPort` (spatial
  tagging), reports load, and executes Matrix's range directives by
  redirecting clients to peer game servers.
* :class:`GameClient` — joins a server, moves via a pluggable mobility
  model, sends updates and actions, measures response latency from
  snapshot acks, and follows server-switch directives (clients are
  "unaware of Matrix", §3.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

from repro.core.api import MatrixPort, PORT_KINDS
from repro.core.config import LOAD_REPORT_PERIOD
from repro.core.messages import SpatialPacket
from repro.games.grid import SpatialGrid
from repro.games.packets import (
    ActionEvent,
    Goodbye,
    Hello,
    PlayerUpdate,
    Snapshot,
    SwitchDirective,
    Welcome,
)
from repro.games.profile import GameProfile
from repro.geometry import Rect, Vec2
from repro.net.message import Message
from repro.net.node import Node, handles

#: Control-plane message kinds that jump the game server's data queue.
CONTROL_KINDS = frozenset(
    {"gs.set_range", "gs.evacuate", "gs.resume", "gs.query_reply"}
)

#: Handoff hysteresis, as a fraction of the visibility radius: a roaming
#: client is only switched once it wanders this far *outside* the
#: range, so border loiterers do not flap between two servers every few
#: ticks.  Well inside the radius, so overlap-region routing still
#: reaches every server that must stay consistent.
HANDOFF_MARGIN_FRACTION = 0.25
#: Seconds a client waits for the target's welcome before it gives up
#: on a handoff and relocates through the lobby.
SWITCH_TIMEOUT = 5.0
#: Snapshot silence (seconds) after which a client with dead-server
#: detection armed relocates and rejoins.
REJOIN_TIMEOUT = 3.0


class MobilityModel(Protocol):
    """Pluggable client movement (see :mod:`repro.workload.mobility`)."""

    def step(self, position: Vec2, dt: float) -> Vec2:
        """Next position after *dt* seconds."""


@dataclass(slots=True)
class ClientRecord:
    """Server-side state for one connected client."""

    client_id: str
    position: Vec2
    last_seq: int = 0
    processed_seq: int = 0
    joined_at: float = 0.0
    last_seen: float = 0.0


class GameServer(Node):
    """A game server homed on one Matrix partition."""

    def __init__(
        self,
        name: str,
        profile: GameProfile,
        partition: Rect,
        queue_capacity: int | None = None,
    ) -> None:
        super().__init__(
            name,
            service_rate=profile.server_service_rate,
            priority_kinds=CONTROL_KINDS,
            queue_capacity=queue_capacity,
        )
        self._profile = profile
        #: Where the sharded network homes this node: the partition's
        #: centre *at spawn time*.  Splits shrink ``_range`` later, but
        #: lane placement is static, so the anchor must not move — and
        #: it matches the co-located Matrix server's anchor exactly.
        self.shard_anchor = partition.center
        self._handoff_margin = HANDOFF_MARGIN_FRACTION * profile.visibility_radius
        self._set_range(partition)
        self._clients: dict[str, ClientRecord] = {}
        #: Recently departed clients -> the game server they moved to.
        self._tombstones: dict[str, str] = {}
        self._directory: dict[str, Rect] = {}
        #: Remote entities mirrored from peers: id -> (position, expiry).
        self._ghosts: dict[str, tuple[Vec2, float]] = {}
        self._grid = SpatialGrid(cell_size=profile.visibility_radius)
        self._snapshot_seq = 0
        self._tasks: list = []

        self.port = MatrixPort(self)
        self.port.on_deliver = self._on_remote_packet
        self.port.on_set_range = self._on_set_range

        # Statistics.
        self.updates_processed = 0
        self.remote_updates_seen = 0
        self.remote_actions_seen = 0
        self.snapshots_sent = 0

    # ------------------------------------------------------------------
    # GameServerHandle protocol
    # ------------------------------------------------------------------
    @property
    def client_count(self) -> int:
        """Clients currently homed here (Fig 2a plots this per server)."""
        return len(self._clients)

    def client_positions(self) -> Sequence[Vec2]:
        """Positions of homed clients (read by split strategies)."""
        return [record.position for record in self._clients.values()]

    def bind_matrix(self, matrix_name: str, partition: Rect) -> None:
        """Attach to Matrix and start periodic duties."""
        self.port.bind(matrix_name)
        self._set_range(partition)
        self._start_duties()

    def _set_range(self, partition: Rect) -> None:
        """The one writer of ``_range``: the handoff rectangle every
        update is tested against is derived here, per change."""
        self._range = partition
        self._handoff_range = partition.expanded(self._handoff_margin)

    def _start_duties(self) -> None:
        self._tasks.append(
            self.sim.every(LOAD_REPORT_PERIOD, self._report_load)
        )
        self._tasks.append(
            self.sim.every(1.0 / self._profile.snapshot_hz, self._snapshot_tick)
        )

    def resume_duties(self) -> None:
        """Restart periodic duties after an aborted evacuation.

        A reclaim evacuates the clients and shuts the server down; if
        the reclaiming parent then vanishes (crash, chaos), Matrix
        cancels the reclaim and this server must serve its partition
        again.  No-op while duties are already running.
        """
        if self._tasks:
            return
        self._start_duties()

    @property
    def map_range(self) -> Rect:
        """The map range this server currently owns."""
        return self._range

    def shutdown(self) -> None:
        """Stop periodic tasks (when decommissioned or at run end)."""
        for task in self._tasks:
            task.stop()
        self._tasks.clear()

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    @handles(*PORT_KINDS)
    def _on_matrix_traffic(self, message: Message) -> None:
        self.port.handle(message)

    @handles("gs.evacuate")
    def _on_evacuate(self, message: Message) -> None:
        self._evacuate_all(message.payload)

    @handles("gs.resume")
    def _on_resume(self, message: Message) -> None:
        self.resume_duties()

    @handles("client.hello")
    def _on_client_hello(self, message: Message) -> None:
        hello: Hello = message.payload
        self._tombstones.pop(hello.client_id, None)
        self._clients[hello.client_id] = ClientRecord(
            client_id=hello.client_id,
            position=hello.position,
            joined_at=self.sim.now,
            last_seen=self.sim.now,
        )
        welcome = Welcome(client_id=hello.client_id, server_range=self._range)
        self.send(message.src, "gs.welcome", welcome, size_bytes=64)
        # A hello for a position we no longer own gets redirected right
        # away (stale lobby data or a racing split).
        if not self._range.contains(hello.position):
            self._redirect(hello.client_id)

    @handles("client.update")
    def _on_client_update(self, message: Message) -> None:
        update: PlayerUpdate = message.payload
        record = self._clients.get(update.client_id)
        if record is None:
            target = self._tombstones.get(update.client_id)
            if target is not None:
                # Straggler from a switched client: remind it.
                directive = SwitchDirective(
                    client_id=update.client_id, target=target
                )
                self.send(message.src, "gs.switch", directive, size_bytes=64)
            return
        record.position = update.position
        record.last_seq = update.seq
        record.last_seen = self.sim.now
        self.updates_processed += 1
        self.port.send_spatial(
            origin=update.position,
            payload=update,
            payload_bytes=self._profile.update_bytes,
            client_id=update.client_id,
        )
        if not self._handoff_range.contains(update.position):
            self._redirect(update.client_id)

    @handles("client.action")
    def _on_client_action(self, message: Message) -> None:
        action: ActionEvent = message.payload
        record = self._clients.get(action.client_id)
        if record is None:
            return
        record.processed_seq = max(record.processed_seq, action.seq)
        record.last_seen = self.sim.now
        self.port.send_spatial(
            origin=action.position,
            dest=action.target,
            payload=action,
            payload_bytes=self._profile.action_bytes,
            client_id=action.client_id,
        )

    @handles("client.bye")
    def _on_client_bye(self, message: Message) -> None:
        goodbye: Goodbye = message.payload
        self._clients.pop(goodbye.client_id, None)
        self._tombstones.pop(goodbye.client_id, None)

    # ------------------------------------------------------------------
    # Matrix directives
    # ------------------------------------------------------------------
    def _on_set_range(self, directive) -> None:
        self._set_range(directive.partition)
        self._directory = directive.directory
        for client_id in [
            cid
            for cid, record in self._clients.items()
            if not self._range.contains(record.position)
        ]:
            self._redirect(client_id)

    def _evacuate_all(self, target: str) -> None:
        """Matrix reclaim: push every client to the parent's server."""
        for client_id in list(self._clients):
            self._redirect(client_id, forced_target=target)
        self.shutdown()

    def _redirect(self, client_id: str, forced_target: str | None = None) -> None:
        record = self._clients.get(client_id)
        if record is None:
            return
        if forced_target is not None:
            target = forced_target
        else:
            target = self._owner_of(record.position)
            if target is None or target == self.name:
                return
        directive = SwitchDirective(client_id=client_id, target=target)
        self.send(client_id, "gs.switch", directive, size_bytes=64)
        del self._clients[client_id]
        self._tombstones[client_id] = target

    def _owner_of(self, point: Vec2) -> str | None:
        for gs_name, rect in self._directory.items():
            if rect.contains(point):
                return gs_name
        return None

    # ------------------------------------------------------------------
    # Remote packets (via Matrix)
    # ------------------------------------------------------------------
    def _on_remote_packet(self, packet: SpatialPacket) -> None:
        payload = packet.payload
        expiry = self.sim.now + self._profile.ghost_lifetime
        if isinstance(payload, PlayerUpdate):
            self.remote_updates_seen += 1
            self._ghosts[payload.client_id] = (payload.position, expiry)
        elif isinstance(payload, ActionEvent):
            self.remote_actions_seen += 1
            self._ghosts[payload.client_id] = (payload.position, expiry)

    # ------------------------------------------------------------------
    # Periodic duties
    # ------------------------------------------------------------------
    def _report_load(self) -> None:
        self._prune_dead_clients()
        if self.port.bound:
            self.port.report_load(len(self._clients), self.inbox.length)

    def _prune_dead_clients(self) -> None:
        """Drop clients that have gone silent (disconnect detection).

        A goodbye can be lost or mis-addressed while a client is
        mid-switch, so — like any real game server — liveness is also
        enforced by timeout: a client whose updates stopped for several
        update periods is considered gone.
        """
        timeout = 4.0 / self._profile.update_hz + 2.0
        now = self.sim.now
        stale = [
            client_id
            for client_id, record in self._clients.items()
            if now - max(record.last_seen, record.joined_at) > timeout
        ]
        for client_id in stale:
            del self._clients[client_id]

    def _snapshot_tick(self) -> None:
        """Send one personalised snapshot to every client."""
        profile = self._profile
        radius = profile.visibility_radius
        cap = profile.max_visible_entities
        now = self.sim.now
        self._snapshot_seq += 1
        clients = self._clients
        ghosts = self._ghosts
        grid = self._grid
        grid.clear()
        for record in clients.values():
            grid.insert(record.client_id, record.position)
        for ghost_id, (position, expiry) in list(ghosts.items()):
            if expiry <= now:
                del ghosts[ghost_id]
            else:
                grid.insert(ghost_id, position)
        # The batch counts the client itself, hence ``cap + 1`` and
        # ``- 1``: min(n, cap + 1) - 1 == min(n - 1, cap).
        counts = grid.count_within_each(
            [record.position for record in clients.values()], radius, cap + 1
        )
        for record, seen in zip(clients.values(), counts):
            client_id = record.client_id
            if client_id in ghosts:
                # Handed back within ``ghost_lifetime``: its own stale
                # ghost is in the grid too, and only excluding by id
                # drops both.
                visible = grid.count_within(
                    record.position, radius, cap, exclude_id=client_id
                )
            else:
                visible = seen - 1
            snapshot = Snapshot(
                client_id=client_id,
                seq=self._snapshot_seq,
                visible_entities=visible,
                processed_seq=record.processed_seq,
            )
            size = (
                profile.snapshot_base_bytes
                + profile.snapshot_per_entity_bytes * visible
            )
            self.send(client_id, "gs.snapshot", snapshot, size_bytes=size)
            self.snapshots_sent += 1


class GameClient(Node):
    """A game client: mobility, updates, actions, server switching."""

    def __init__(
        self,
        name: str,
        profile: GameProfile,
        mobility: MobilityModel,
        rng,
        relocate: Callable[[Vec2], str] | None = None,
        position: Vec2 | None = None,
    ) -> None:
        super().__init__(name)
        self._profile = profile
        #: The mobility model steering this client.
        self.mobility = mobility
        self._rng = rng
        self._relocate = relocate
        # Dead-server detection: once armed (enable_rejoin), a snapshot
        # silence longer than REJOIN_TIMEOUT makes the client relocate
        # and rejoin (its server crashed).  Off by default — the check
        # rides the existing update tick, but plain runs must not even
        # look.
        self._rejoin_timeout: float | None = None
        self._last_snapshot_at = 0.0
        self.rejoins = 0
        #: The game server currently serving this client.
        self.server: str | None = None
        self._pending: str | None = None
        self._switch_started: float | None = None
        #: Current world position.
        self.position = (
            position if position is not None else Vec2(0.0, 0.0)
        )
        #: Lane placement for the sharded network: the spawn position.
        #: The client roams afterwards, but cross-shard client links are
        #: WAN-class, so a stale home lane never violates lookahead.
        self.shard_anchor = self.position
        self._seq = 0
        self._action_seq = 0
        self._pending_actions: dict[int, float] = {}
        self._update_task = None
        self.active = False

        # Statistics the user-study and microbenches read.
        self.updates_sent = 0
        self.actions_sent = 0
        self.snapshots_received = 0
        self.switches_completed = 0
        self.action_latencies: list[float] = []
        self.switch_latencies: list[float] = []

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def enable_rejoin(self) -> None:
        """Arm dead-server detection: after :data:`REJOIN_TIMEOUT`
        seconds of snapshot silence the client relocates and rejoins
        (chaos runs; see :meth:`_rejoin`)."""
        self._rejoin_timeout = REJOIN_TIMEOUT

    def retarget(self, target: Vec2) -> bool:
        """Ask the mobility model to head toward *target*.

        Part of the public mobility protocol: models that support goal
        changes expose ``retarget(Vec2)`` (hotspot loiterers, flocks,
        commuter circuits, pursuers); for models without one this is a
        no-op.  Returns whether the model accepted the retarget.
        """
        retarget = getattr(self.mobility, "retarget", None)
        if retarget is None:
            return False
        retarget(target)
        return True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def join(self, game_server: str, position: Vec2) -> None:
        """Connect to *game_server* at *position*."""
        self.position = position
        self._last_snapshot_at = self.sim.now
        hello = Hello(client_id=self.name, position=position, switching=False)
        self.send(game_server, "client.hello", hello,
                  size_bytes=self._profile.hello_bytes)

    def leave(self) -> None:
        """Leave the game."""
        # A fixed order — server, then pending — because send order
        # decides which goodbye takes which latency draw.
        for server in dict.fromkeys((self.server, self._pending)):
            if server is not None:
                self.send(
                    server, "client.bye", Goodbye(client_id=self.name),
                    size_bytes=32,
                )
        if self._update_task is not None:
            self._update_task.stop()
            self._update_task = None
        self.active = False
        self.server = None
        self._pending = None

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    @handles("gs.welcome")
    def _on_welcome(self, message: Message) -> None:
        welcome: Welcome = message.payload
        if self._pending is not None and message.src == self._pending:
            self.server = self._pending
            self._pending = None
            if self._switch_started is not None:
                self.switch_latencies.append(self.sim.now - self._switch_started)
                self._switch_started = None
            self.switches_completed += 1
            return
        if self.server is None:
            self.server = message.src
            if not self.active:
                self.active = True
                period = 1.0 / self._profile.update_hz
                self._update_task = self.sim.every(
                    period,
                    self._update_tick,
                    start=self.sim.now + self._rng.uniform(0.0, period),
                )

    @handles("gs.switch")
    def _on_switch(self, message: Message) -> None:
        directive: SwitchDirective = message.payload
        if directive.target in (self.server, self._pending):
            return
        self._pending = directive.target
        self._switch_started = self.sim.now
        # In-flight actions die with the old connection (UDP-game
        # semantics); keeping them would mis-attribute the whole
        # handoff gap to "response latency".
        self._pending_actions.clear()
        hello = Hello(client_id=self.name, position=self.position, switching=True)
        self.send(directive.target, "client.hello", hello,
                  size_bytes=self._profile.hello_bytes)
        self.sim.after(SWITCH_TIMEOUT, self._check_switch_stuck)

    def _rejoin(self) -> None:
        """The server went silent past the rejoin timeout: relocate.

        Mirrors what a real client does when its server crashes — ask
        the lobby for whoever owns its position now and reconnect.
        Without a locator the client can only keep waiting.
        """
        if self._relocate is None:
            return
        self.server = None
        self._pending = None
        self.rejoins += 1
        self.join(self._relocate(self.position), self.position)

    def _check_switch_stuck(self) -> None:
        """Recover from a handoff to a server that died mid-switch."""
        if self._pending is None or not self.active:
            return
        if (
            self._switch_started is not None
            and self.sim.now - self._switch_started < SWITCH_TIMEOUT
        ):
            return
        self._pending = None
        self._switch_started = None
        if self._relocate is not None:
            target = self._relocate(self.position)
            self.server = None
            self.join(target, self.position)

    @handles("gs.snapshot")
    def _on_snapshot(self, message: Message) -> None:
        snapshot: Snapshot = message.payload
        self.snapshots_received += 1
        self._last_snapshot_at = self.sim.now
        acked = [
            seq
            for seq in self._pending_actions
            if seq <= snapshot.processed_seq
        ]
        for seq in acked:
            self.action_latencies.append(
                self.sim.now - self._pending_actions.pop(seq)
            )

    # ------------------------------------------------------------------
    # Update loop
    # ------------------------------------------------------------------
    def _update_tick(self) -> None:
        if not self.active or self._pending is not None:
            return
        # Dead-server watchdog before the no-server guard: a rejoin
        # whose own hello was lost leaves ``_server`` None, and only
        # this check can retry it.
        if (
            self._rejoin_timeout is not None
            and self.sim.now - self._last_snapshot_at > self._rejoin_timeout
        ):
            self._rejoin()
            return
        if self.server is None:
            return
        profile = self._profile
        dt = 1.0 / profile.update_hz
        self.position = self.mobility.step(self.position, dt)
        self._seq += 1
        update = PlayerUpdate(
            client_id=self.name, position=self.position, seq=self._seq
        )
        self.send(
            self.server, "client.update", update,
            size_bytes=profile.update_bytes,
        )
        self.updates_sent += 1
        if self._rng.random() < profile.action_rate / profile.update_hz:
            self._send_action()

    def _send_action(self) -> None:
        profile = self._profile
        self._action_seq += 1
        target = None
        if (
            profile.remote_action_fraction > 0
            and self._rng.random() < profile.remote_action_fraction
        ):
            world = profile.world
            target = Vec2(
                self._rng.uniform(world.xmin, world.xmax - 1e-9),
                self._rng.uniform(world.ymin, world.ymax - 1e-9),
            )
        action = ActionEvent(
            client_id=self.name,
            action="fire",
            position=self.position,
            seq=self._action_seq,
            target=target,
        )
        self._pending_actions[self._action_seq] = self.sim.now
        self.send(
            self.server, "client.action", action,
            size_bytes=profile.action_bytes,
        )
        self.actions_sent += 1
