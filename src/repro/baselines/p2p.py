"""Peer-to-peer region groups — the Knutsson-style alternative (§5).

"players form localized groups and exchange messages directly with
other players in the group ... these mechanisms are unable to
effectively handle hotspots".

The failure mode is bandwidth, not server capacity: within a region
group every player sends its updates directly to every other member,
so per-player *upload* grows linearly with group size.  A hotspot of
600 co-located players would require each consumer uplink to carry
599 update streams — orders of magnitude past a 2005 uplink.

Two layers live here:

* the closed-form cost model (:func:`p2p_group_cost`,
  :func:`max_p2p_group`) the ablation bench plots, and
* :class:`P2PExperiment` — the same architecture as a *real*
  event-driven system: the world is carved into fixed region tiles,
  each with a :class:`RegionTracker` (the stand-in for the
  decentralized membership protocol), and every player gets a
  :class:`PlayerUplink` node whose finite-rate ``ReceiveQueue`` models
  the consumer uplink.  Updates fan out peer-to-peer as actual
  ``p2p.update`` messages, so hotspot groups saturate uplinks as real
  queue growth and packet drops.  The analytic model is asserted
  against this system's measured upload traffic in tests.
"""

from __future__ import annotations

from repro.baselines.backend import ArchitectureBackend
from repro.core.config import PerfConfig
from repro.games.packets import Snapshot
from repro.games.profile import GameProfile
from repro.geometry import Vec2, tile_world
from repro.net.message import Message
from repro.net.network import loopback_profile, wan_profile
from repro.net.node import Node, handles
from repro.value import Value

#: Consumer uplink of the paper's era: 256 kbit/s ≈ 32 kB/s.
DEFAULT_UPLINK_BYTES_PER_S = 32_000.0


def mean_packet_bytes(profile: GameProfile) -> float:
    """Rate-weighted mean wire size of one client packet."""
    packet_rate = profile.update_hz + profile.action_rate
    return (
        profile.update_bytes * profile.update_hz
        + profile.action_bytes * profile.action_rate
    ) / packet_rate


class RegionTracker(Node):
    """Membership directory of one p2p region group.

    A deliberately thin stand-in for the decentralized group-membership
    protocol: uplinks register when their player enters the region and
    deregister when they leave; joins and leaves are broadcast to the
    group so every member can keep its peer list.  The tracker never
    touches game traffic — that flows uplink-to-uplink.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        #: uplink name -> join epoch (insertion-ordered: deterministic).
        #: The epoch is the uplink's own join counter; echoing it back
        #: on every membership message lets the uplink discard
        #: deliveries that raced a region crossing, and lets this
        #: tracker discard a stale leave that was reordered behind a
        #: fresh rejoin on the jittery WAN path.
        self._members: dict[str, int] = {}
        self.peak_members = 0

    @property
    def member_count(self) -> int:
        """Uplinks currently registered in this region group."""
        return len(self._members)

    def member_names(self) -> list[str]:
        """Names of the registered uplinks."""
        return list(self._members)

    @handles("p2p.join")
    def _on_join(self, message: Message) -> None:
        uplink = message.src
        epoch = int(message.payload)
        if uplink in self._members:
            # A rejoin that overtook its own earlier leave: refresh the
            # epoch (so the stale leave will be ignored) and re-answer.
            self._members[uplink] = max(self._members[uplink], epoch)
            self._send_members(uplink)
            return
        current = dict(self._members)
        self._members[uplink] = epoch
        self.peak_members = max(self.peak_members, len(self._members))
        for member, member_epoch in current.items():
            self.send(
                member,
                "p2p.peer-joined",
                (member_epoch, uplink),
                size_bytes=48,
            )
        self._send_members(uplink)

    def _send_members(self, uplink: str) -> None:
        peers = tuple(name for name in self._members if name != uplink)
        self.send(
            uplink,
            "p2p.members",
            (self._members[uplink], peers),
            size_bytes=32 + 16 * len(peers),
        )

    @handles("p2p.leave")
    def _on_leave(self, message: Message) -> None:
        uplink = message.src
        epoch = int(message.payload)
        if self._members.get(uplink) != epoch:
            return  # stale leave from a tenancy already superseded
        del self._members[uplink]
        for member, member_epoch in self._members.items():
            self.send(
                member,
                "p2p.peer-left",
                (member_epoch, uplink),
                size_bytes=48,
            )


class PlayerUplink(Node):
    """One player's consumer uplink: the p2p bandwidth bottleneck.

    Speaks the game-server protocol to its (co-located) client — hello,
    welcome, snapshots — but instead of serving anything it fans each
    update/action out to every peer uplink in the player's current
    region group.  Its finite-rate receive queue carries both the
    player's own stream and the whole group's inbound streams, so group
    size directly drives queueing delay and, past the cap, drops.
    """

    def __init__(
        self,
        name: str,
        backend: "P2PExperiment",
        service_rate: float,
        queue_capacity: int | None,
    ) -> None:
        super().__init__(
            name, service_rate=service_rate, queue_capacity=queue_capacity
        )
        self._backend = backend
        self._client: str | None = None
        self._region: int | None = None
        #: monotone join counter; echoed back by the tracker on every
        #: membership message so deliveries racing a region crossing
        #: (or a rapid leave/rejoin of the same region) are discarded.
        self._join_epoch = 0
        #: peer uplink names (insertion-ordered set).
        self._peers: dict[str, None] = {}
        self._processed_seq = 0
        self._snapshot_task = None
        self.upload_bytes = 0

    # ------------------------------------------------------------------
    # Client-facing protocol
    # ------------------------------------------------------------------
    @handles("client.hello")
    def _on_hello(self, message: Message) -> None:
        hello = message.payload
        self._client = hello.client_id
        self._join_region(self._backend.region_of(hello.position))
        self.send(self._client, "gs.welcome", None, size_bytes=64)
        if self._snapshot_task is None:
            self._snapshot_task = self.sim.every(
                1.0 / self._backend.profile.snapshot_hz, self._snapshot_tick
            )

    @handles("client.update")
    def _on_update(self, message: Message) -> None:
        update = message.payload
        region = self._backend.region_of(update.position)
        if region != self._region:
            self._leave_region()
            self._join_region(region)
        self._fan_out(
            "p2p.update", update, self._backend.profile.update_bytes
        )

    @handles("client.action")
    def _on_action(self, message: Message) -> None:
        action = message.payload
        self._processed_seq = max(self._processed_seq, action.seq)
        self._fan_out(
            "p2p.action", action, self._backend.profile.action_bytes
        )

    @handles("client.bye")
    def _on_bye(self, message: Message) -> None:
        self._leave_region()
        if self._snapshot_task is not None:
            self._snapshot_task.stop()
            self._snapshot_task = None
        self._client = None

    # ------------------------------------------------------------------
    # Group membership
    # ------------------------------------------------------------------
    def _current_tenancy(self, message: Message, epoch: int) -> bool:
        """True when a membership message is for our *current* tenancy.

        Membership broadcasts race region crossings: a stale
        ``p2p.peer-joined`` (or members reply) from a region we since
        left — or from an *earlier* join of the same region — must not
        repopulate the peer list we cleared, or we would stream to a
        departed peer forever.  The echoed join epoch identifies the
        tenancy exactly; the source check is belt-and-braces.
        """
        return (
            epoch == self._join_epoch
            and self._region is not None
            and message.src == self._backend.tracker_name(self._region)
        )

    @handles("p2p.members")
    def _on_members(self, message: Message) -> None:
        epoch, peers = message.payload
        if not self._current_tenancy(message, epoch):
            return
        for peer in peers:
            if peer != self.name:
                self._peers[peer] = None

    @handles("p2p.peer-joined")
    def _on_peer_joined(self, message: Message) -> None:
        epoch, peer = message.payload
        if not self._current_tenancy(message, epoch):
            return
        if peer != self.name:
            self._peers[peer] = None

    @handles("p2p.peer-left")
    def _on_peer_left(self, message: Message) -> None:
        epoch, peer = message.payload
        if not self._current_tenancy(message, epoch):
            return
        self._peers.pop(peer, None)

    def _join_region(self, region: int) -> None:
        self._region = region
        self._join_epoch += 1
        self.send(
            self._backend.tracker_name(region),
            "p2p.join",
            self._join_epoch,
            size_bytes=48,
        )

    def _leave_region(self) -> None:
        if self._region is None:
            return
        self.send(
            self._backend.tracker_name(self._region),
            "p2p.leave",
            self._join_epoch,
            size_bytes=48,
        )
        self._region = None
        self._peers.clear()

    # ------------------------------------------------------------------
    # Peer traffic
    # ------------------------------------------------------------------
    @handles("p2p.update", "p2p.action")
    def _on_peer_packet(self, message: Message) -> None:
        """A peer's update or action: its cost is the queueing it caused."""

    def _fan_out(self, kind: str, payload, size_bytes: int) -> None:
        self.multicast(self._peers, kind, payload, size_bytes)
        self.upload_bytes += size_bytes * len(self._peers)

    def _snapshot_tick(self) -> None:
        if self._client is None:
            return
        profile = self._backend.profile
        visible = min(len(self._peers), profile.max_visible_entities)
        size = (
            profile.snapshot_base_bytes
            + profile.snapshot_per_entity_bytes * visible
        )
        self.send(
            self._client, "gs.snapshot",
            Snapshot(self._processed_seq), size_bytes=size,
        )


class P2PExperiment(ArchitectureBackend):
    """P2P region groups, as a running system.

    * **ownership** — nobody: each player is served by its own uplink;
      region tiles only scope who must hear whom.
    * **routing** — direct member-to-member fan-out inside the
      player's region group (tracker-maintained membership).
    * **consistency traffic** — the fan-out itself: per-player upload
      grows with ``group_size - 1``, which is what saturates the
      finite-rate uplink queues under a hotspot.
    """

    name = "p2p"
    fault_kinds = ("p2p.update",)

    def __init__(
        self,
        profile: GameProfile,
        seed: int = 0,
        columns: int = 2,
        rows: int = 2,
        uplink_capacity: float = DEFAULT_UPLINK_BYTES_PER_S,
        queue_capacity: int | None = 20000,
        perf: PerfConfig | None = None,
    ) -> None:
        self._columns = columns
        self._rows = rows
        self._uplink_capacity = uplink_capacity
        self._queue_capacity = queue_capacity
        #: packets/s one uplink can push: capacity over mean wire size.
        self._uplink_rate = uplink_capacity / mean_packet_bytes(profile)
        self._uplink_count = 0
        super().__init__(profile, seed=seed, perf=perf)

    def build(self) -> None:
        self.network.set_prefix_profile("client.", "uplink.", loopback_profile())
        self.network.set_prefix_profile("uplink.", "client.", loopback_profile())
        self.network.set_prefix_profile("uplink.", "uplink.", wan_profile())
        self.network.set_prefix_profile("uplink.", "tracker.", wan_profile())
        self.network.set_prefix_profile("tracker.", "uplink.", wan_profile())
        self.trackers: list[RegionTracker] = []
        self.uplinks: dict[str, PlayerUplink] = {}
        # One tracker per region tile; tile_world refuses an empty grid.
        for index, _ in enumerate(
            tile_world(self.profile.world, self._columns, self._rows)
        ):
            tracker = RegionTracker(f"tracker.{index + 1}")
            self.network.add_node(tracker)
            self.trackers.append(tracker)

    # ------------------------------------------------------------------
    # Region geometry
    # ------------------------------------------------------------------
    def region_of(self, point: Vec2) -> int:
        """Index of the region tile containing *point* (edge-clamped)."""
        world = self.profile.world
        column = min(
            int((point.x - world.xmin) / world.width * self._columns),
            self._columns - 1,
        )
        row = min(
            int((point.y - world.ymin) / world.height * self._rows),
            self._rows - 1,
        )
        return max(row, 0) * self._columns + max(column, 0)

    def tracker_name(self, region: int) -> str:
        """Node name of the region's membership tracker."""
        return self.trackers[region].name

    # ------------------------------------------------------------------
    # ArchitectureBackend
    # ------------------------------------------------------------------
    def locate(self, point: Vec2) -> str:
        """Ownership: every join mints the player's own uplink node."""
        self._uplink_count += 1
        uplink = PlayerUplink(
            f"uplink.{self._uplink_count}",
            self,
            service_rate=self._uplink_rate,
            queue_capacity=self._queue_capacity,
        )
        self.network.add_node(uplink)
        self.uplinks[uplink.name] = uplink
        return uplink.name

    def probes(self) -> dict:
        out = {}
        for index, tracker in enumerate(self.trackers):
            region_id = f"region-{index + 1}"
            out[f"clients/{region_id}"] = lambda t=tracker: t.member_count
            out[f"queue/{region_id}"] = (
                lambda t=tracker: self._region_peak_queue(t)
            )
        return out

    def _region_peak_queue(self, tracker: RegionTracker) -> int:
        lengths = [
            self.uplinks[name].inbox.length
            for name in tracker.member_names()
            if name in self.uplinks
        ]
        return max(lengths, default=0)

    def fault_nodes(self) -> list:
        """Fan-out leaves from the player uplinks (present members)."""
        return list(self.uplinks.values())

    def dropped_packets(self) -> int:
        return sum(
            uplink.inbox.dropped_count for uplink in self.uplinks.values()
        )

    def servers_used(self) -> int:
        """P2P's selling point: zero server-class nodes."""
        return 0

    def consistency_metrics(self) -> dict[str, float]:
        """Measured fan-out traffic vs the closed-form expectation."""
        stats = self.network.stats
        fanout_messages = stats.kind_messages("p2p.update") + (
            stats.kind_messages("p2p.action")
        )
        fanout_bytes = stats.kind_bytes("p2p.update") + (
            stats.kind_bytes("p2p.action")
        )
        return {
            "regions": float(len(self.trackers)),
            "fanout_messages": float(fanout_messages),
            "fanout_bytes": float(fanout_bytes),
            "membership_messages": float(stats.kind_messages("p2p.join")),
            "peak_group_size": float(
                max(
                    (t.peak_members for t in self.trackers),
                    default=0,
                )
            ),
            "peak_uplink_queue": float(
                max(
                    (u.inbox.peak_length for u in self.uplinks.values()),
                    default=0,
                )
            ),
            "uplink_capacity_bytes_per_s": self._uplink_capacity,
        }


class P2PCost(Value):
    """Per-player costs of one p2p region group."""

    __slots__ = ("upload_bytes_per_second", "uplink_capacity")

    def __init__(
        self, upload_bytes_per_second: float, uplink_capacity: float
    ) -> None:
        self.upload_bytes_per_second = upload_bytes_per_second
        self.uplink_capacity = uplink_capacity

    @property
    def feasible(self) -> bool:
        """True when a consumer uplink can carry the group."""
        return self.upload_bytes_per_second <= self.uplink_capacity

    @property
    def uplink_utilisation(self) -> float:
        """Upload requirement as a fraction of uplink capacity."""
        return self.upload_bytes_per_second / self.uplink_capacity


def p2p_group_cost(
    profile: GameProfile,
    group_size: int,
    uplink_capacity: float = DEFAULT_UPLINK_BYTES_PER_S,
) -> P2PCost:
    """Cost of a fully-connected region group of *group_size* players."""
    if group_size < 1:
        raise ValueError("group must have at least one player")
    packet_rate = profile.update_hz + profile.action_rate
    per_peer = packet_rate * mean_packet_bytes(profile)
    return P2PCost(
        upload_bytes_per_second=per_peer * (group_size - 1),
        uplink_capacity=uplink_capacity,
    )


def max_p2p_group(
    profile: GameProfile,
    uplink_capacity: float = DEFAULT_UPLINK_BYTES_PER_S,
) -> int:
    """Largest group a consumer uplink can sustain."""
    size = 1
    while p2p_group_cost(profile, size + 1, uplink_capacity).feasible:
        size += 1
        if size > 1 << 20:  # pragma: no cover - defensive
            break
    return size
