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

from typing import Callable, Protocol, Sequence

from repro.core.api import MatrixPort
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


class ClientRecord:
    """Server-side state for one connected client."""

    __slots__ = ("client_id", "position", "processed_seq", "last_seen")

    def __init__(
        self, client_id: str, position: Vec2, processed_seq: int = 0,
        last_seen: float = 0.0,
    ) -> None:
        self.client_id = client_id
        self.position = position
        self.processed_seq = processed_seq
        self.last_seen = last_seen


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
        self._tasks: list = []

        self.port = MatrixPort(self)
        self.port.on_deliver = self._on_remote_packet
        self.port.on_set_range = self._on_set_range

        #: Remote actions mirrored as ghosts (the Daimonin example
        #: prints it).
        self.remote_actions_seen = 0

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
            last_seen=self.sim.now,
        )
        self.send(message.src, "gs.welcome", None, size_bytes=64)
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
                self.send(
                    message.src, "gs.switch", SwitchDirective(target),
                    size_bytes=64,
                )
            return
        record.position = update.position
        record.last_seen = self.sim.now
        self.port.send_spatial(
            origin=update.position,
            payload=update,
            payload_bytes=self._profile.update_bytes,
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
        self.send(client_id, "gs.switch", SwitchDirective(target), size_bytes=64)
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
            self.port.report_load(len(self._clients))

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
            if now - record.last_seen > timeout
        ]
        for client_id in stale:
            del self._clients[client_id]

    def _snapshot_tick(self) -> None:
        """Send one personalised snapshot to every client."""
        profile = self._profile
        radius = profile.visibility_radius
        cap = profile.max_visible_entities
        now = self.sim.now
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
        # The batch counts the client itself and, for ``ghost_lifetime``
        # after a hand-back, its own stale ghost: ask for ``cap + 2``,
        # subtract both, then cap.  min(n, cap + 2) - k, capped at cap,
        # is min(n - k, cap) for k <= 2.
        r_sq = radius * radius
        counts = grid.count_within_each(
            [record.position for record in clients.values()], radius, cap + 2
        )
        for record, seen in zip(clients.values(), counts):
            client_id = record.client_id
            visible = seen - 1
            ghost = ghosts.get(client_id)
            if ghost is not None:
                # The grid's own distance test, operands in its order.
                position = record.position
                ghost_at = ghost[0]
                gx = ghost_at.x - position.x
                gy = ghost_at.y - position.y
                if gx * gx + gy * gy <= r_sq:
                    visible -= 1
            if visible > cap:
                visible = cap
            size = (
                profile.snapshot_base_bytes
                + profile.snapshot_per_entity_bytes * visible
            )
            self.send(
                client_id, "gs.snapshot",
                Snapshot(record.processed_seq), size_bytes=size,
            )


class GameClient(Node):
    """A game client: mobility, updates, actions, server switching.

    Thousands are built per run and the fleet keeps every one to the
    end, so its attributes live in fixed slots rather than an instance
    dict.  Leaving is final: a client that has left drops both of its
    ``random.Random`` streams (its own and its mobility model's) and
    answers late messages without drawing (see :meth:`leave`).
    """

    __slots__ = (
        "_profile", "mobility", "_rng", "_relocate", "_rejoin_timeout",
        "_last_snapshot_at", "rejoins", "server", "_pending",
        "_switch_started", "position", "shard_anchor", "_pending_actions",
        "_update_task", "updates_sent", "actions_sent", "action_latencies",
        "switch_latencies",
    )

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
        #: The mobility model steering this client; ``None`` once it left.
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
        self._pending_actions: dict[int, float] = {}
        self._update_task = None

        # An update or action carries its count as its sequence number.
        # The result gathers both latency lists; the user study reads
        # the action latencies per client.
        self.updates_sent = 0
        self.actions_sent = 0
        self.action_latencies: list[float] = []
        self.switch_latencies: list[float] = []

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether the update loop runs: from the first welcome until
        the client leaves."""
        return self._update_task is not None

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
        no-op.  Returns whether the model accepted the retarget; a
        client that has left has no model and accepts none.
        """
        if self.departed:
            return False
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
        hello = Hello(client_id=self.name, position=position)
        self.send(game_server, "client.hello", hello,
                  size_bytes=self._profile.hello_bytes)

    @property
    def departed(self) -> bool:
        """Whether the client has left: a departed client holds no
        stream, so this is derived from the one it held."""
        return self._rng is None

    def leave(self) -> None:
        """Leave the game, for good.

        The client drops both streams.  Messages already in flight still
        arrive and are answered without drawing: a late snapshot acks
        the actions in flight, a late switch is ignored, and a late
        welcome gets a ``client.bye`` back (:meth:`_on_welcome`).
        """
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
        self.server = None
        self._pending = None
        self._rng = None
        self.mobility = None

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    @handles("gs.welcome")
    def _on_welcome(self, message: Message) -> None:
        if self.departed:
            # The hello this answers was sent before the client left.
            # The sender may hold the client now: it had no bye (a join
            # still unanswered at leave), or the bye overtook the hello
            # (one route can reorder).  A second bye is harmless.
            self.send(
                message.src, "client.bye", Goodbye(client_id=self.name),
                size_bytes=32,
            )
            return
        if self._pending is not None and message.src == self._pending:
            self.server = self._pending
            self._pending = None
            if self._switch_started is not None:
                self.switch_latencies.append(self.sim.now - self._switch_started)
                self._switch_started = None
            return
        if self.server is None:
            self.server = message.src
            if self._update_task is None:
                period = 1.0 / self._profile.update_hz
                self._update_task = self.sim.every(
                    period,
                    self._update_tick,
                    start=self.sim.now + self._rng.uniform(0.0, period),
                )

    @handles("gs.switch")
    def _on_switch(self, message: Message) -> None:
        directive: SwitchDirective = message.payload
        # The old server already has the bye; a hello would only make
        # the target hold a client that has left.
        if self.departed or directive.target in (self.server, self._pending):
            return
        self._pending = directive.target
        self._switch_started = self.sim.now
        # In-flight actions die with the old connection (UDP-game
        # semantics); keeping them would mis-attribute the whole
        # handoff gap to "response latency".
        self._pending_actions.clear()
        hello = Hello(client_id=self.name, position=self.position)
        self.send(directive.target, "client.hello", hello,
                  size_bytes=self._profile.hello_bytes)
        self.sim.after(SWITCH_TIMEOUT, self._check_switch_stuck)

    def _reconnect(self) -> None:
        """Drop the connection and join whoever the locator says owns
        the current position, as a real client asks the lobby when its
        server dies.  Without a locator it can only keep waiting."""
        if self._relocate is None:
            return
        self.server = None
        self._pending = None
        self.join(self._relocate(self.position), self.position)

    def _rejoin(self) -> None:
        """The server went silent past the rejoin timeout: reconnect."""
        if self._relocate is not None:
            self.rejoins += 1
        self._reconnect()

    def _check_switch_stuck(self) -> None:
        """Recover from a handoff to a server that died mid-switch."""
        if self._pending is None or not self.active:
            return
        if (
            self._switch_started is not None
            and self.sim.now - self._switch_started < SWITCH_TIMEOUT
        ):
            return
        # Without a locator the client stays with its old server.
        self._pending = None
        self._switch_started = None
        self._reconnect()

    @handles("gs.snapshot")
    def _on_snapshot(self, message: Message) -> None:
        snapshot: Snapshot = message.payload
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
        if self._pending is not None:
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
        self.updates_sent += 1
        update = PlayerUpdate(
            client_id=self.name, position=self.position, seq=self.updates_sent
        )
        self.send(
            self.server, "client.update", update,
            size_bytes=profile.update_bytes,
        )
        if self._rng.random() < profile.action_rate / profile.update_hz:
            self._send_action()

    def _send_action(self) -> None:
        profile = self._profile
        self.actions_sent += 1
        seq = self.actions_sent
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
            position=self.position,
            seq=seq,
            target=target,
        )
        self._pending_actions[seq] = self.sim.now
        self.send(
            self.server, "client.action", action,
            size_bytes=profile.action_bytes,
        )
