"""Protocol payloads exchanged between Matrix components.

Message *kinds* (the strings used for traffic accounting) follow a
dotted scheme:

* ``game.spatial``      — game server → its Matrix server (tagged packet)
* ``matrix.forward``    — Matrix server → peer Matrix server
* ``matrix.deliver``    — Matrix server → its game server (the remote
  ``SpatialPacket`` itself)
* ``matrix.load``       — game server → its Matrix server (load report)
* ``matrix.gossip``     — child Matrix server → parent (load gossip)
* ``matrix.state.*``    — bulk state transfer during splits/reclaims
* ``matrix.ctl.*``      — split/reclaim control handshakes
* ``mc.*``              — anything to/from the Matrix Coordinator
* ``gs.*``              — Matrix server → game server directives
* ``fabric.*``          — lane fabric proxy ↔ deployment fabric node
  (sharded runs route host grants and pair spawns over these instead of
  calling the deployment object directly, keeping control state
  lane-local; the proxy sends through its Matrix server and handles the
  replies itself, so the server has no ``fabric.*`` handler)

Each payload is a plain ``__slots__`` class: it compares by identity,
pickles by its slots and generates no code at import.
"""

from __future__ import annotations

from repro.geometry import Rect, Vec2

# ----------------------------------------------------------------------
# Data plane
# ----------------------------------------------------------------------


class SpatialPacket:
    """A game packet tagged with the spatial coordinates of its origin
    (and optionally a distinct destination point, for projectiles etc.).

    Matrix never looks inside ``payload`` — the separation-of-concerns
    contract of §2.1.
    """

    __slots__ = ("origin", "payload", "dest")

    def __init__(
        self, origin: Vec2, payload: object, dest: Vec2 | None = None
    ) -> None:
        #: The point whose consistency set decides routing.
        self.origin = origin
        self.payload = payload
        self.dest = dest


class LoadReport:
    """Periodic game-server load report (§3.2.2).

    It carries the client count, the load measure the split/reclaim
    policy reads; the message is sized ``LOAD_REPORT_BYTES``.
    """

    __slots__ = ("client_count",)

    def __init__(self, client_count: int) -> None:
        self.client_count = client_count


class LoadGossip:
    """Child → parent load summary, used for reclaim decisions."""

    __slots__ = ("server", "client_count", "has_children")

    def __init__(
        self, server: str, client_count: int, has_children: bool
    ) -> None:
        self.server = server
        self.client_count = client_count
        self.has_children = has_children


# ----------------------------------------------------------------------
# Coordinator plane
# ----------------------------------------------------------------------


class RegisterServer:
    """Matrix server → MC: announce (or re-announce) a map range."""

    __slots__ = ("matrix_server", "game_server", "partition")

    def __init__(
        self, matrix_server: str, game_server: str, partition: Rect
    ) -> None:
        self.matrix_server = matrix_server
        self.game_server = game_server
        self.partition = partition


class UnregisterServer:
    """Matrix server → MC: a reclaimed server leaves the game."""

    __slots__ = ("matrix_server",)

    def __init__(self, matrix_server: str) -> None:
        self.matrix_server = matrix_server


class OverlapTableUpdate:
    """MC → Matrix server: the new overlap table plus the directory.

    ``cells`` are the merged overlap cells of the receiving server's
    partition at the deployment's visibility radius; ``partitions`` maps
    every Matrix server to its partition; ``game_servers`` maps every
    game server to its partition (the redirect directory forwarded to
    game servers).
    """

    __slots__ = (
        "version", "partition", "cells", "partitions", "game_servers",
        "server_map",
    )

    def __init__(
        self, version: int, partition: Rect, cells: list, partitions: dict,
        game_servers: dict, server_map: dict,
    ) -> None:
        self.version = version
        self.partition = partition
        self.cells = cells  # list[OverlapCell]
        self.partitions = partitions
        self.game_servers = game_servers
        self.server_map = server_map  # matrix server name -> game server name


class SplitNotice:
    """Parent Matrix server → MC: atomic record of a completed split.

    Carried as one message so the MC never observes a transient state
    where parent and child partitions overlap.
    """

    __slots__ = (
        "parent", "parent_partition", "child", "child_game_server",
        "child_partition",
    )

    def __init__(
        self, parent: str, parent_partition: Rect, child: str,
        child_game_server: str, child_partition: Rect,
    ) -> None:
        self.parent = parent
        self.parent_partition = parent_partition
        self.child = child
        self.child_game_server = child_game_server
        self.child_partition = child_partition


class ReclaimNotice:
    """Parent Matrix server → MC: atomic record of a completed reclaim."""

    __slots__ = ("parent", "merged_partition", "child")

    def __init__(
        self, parent: str, merged_partition: Rect, child: str
    ) -> None:
        self.parent = parent
        self.merged_partition = merged_partition
        self.child = child


class ConsistencyQuery:
    """Matrix server → MC: non-proximal interaction lookup (§3.2.4)."""

    __slots__ = ("point", "exclude", "request_id")

    def __init__(self, point: Vec2, exclude: str, request_id: int) -> None:
        self.point = point
        self.exclude = exclude
        self.request_id = request_id


class ConsistencyReply:
    """MC → Matrix server: answer to a :class:`ConsistencyQuery`."""

    __slots__ = ("request_id", "servers")

    def __init__(self, request_id: int, servers: frozenset) -> None:
        self.request_id = request_id
        self.servers = servers


# ----------------------------------------------------------------------
# Split / reclaim control plane
# ----------------------------------------------------------------------


class SplitGrant:
    """Parent Matrix server → child: here is your partition."""

    __slots__ = ("parent", "child_partition", "parent_partition")

    def __init__(
        self, parent: str, child_partition: Rect, parent_partition: Rect
    ) -> None:
        self.parent = parent
        self.child_partition = child_partition
        self.parent_partition = parent_partition


class StateBegin:
    """Start of a bulk state transfer."""

    __slots__ = ("transfer_id", "total_chunks")

    def __init__(self, transfer_id: int, total_chunks: int) -> None:
        self.transfer_id = transfer_id
        self.total_chunks = total_chunks


class StateChunk:
    """One chunk of bulk state."""

    __slots__ = ("transfer_id",)

    def __init__(self, transfer_id: int) -> None:
        self.transfer_id = transfer_id


class StateDone:
    """Receiver → sender: all chunks arrived."""

    __slots__ = ("transfer_id",)

    def __init__(self, transfer_id: int) -> None:
        self.transfer_id = transfer_id


class ReclaimRequest:
    """Parent Matrix server → child: hand your partition back."""

    __slots__ = ("parent", "parent_game_server")

    def __init__(self, parent: str, parent_game_server: str) -> None:
        self.parent = parent
        self.parent_game_server = parent_game_server


class ReclaimAck:
    """Child → parent: partition and client handoff complete."""

    __slots__ = ("child", "child_partition", "client_count")

    def __init__(
        self, child: str, child_partition: Rect, client_count: int
    ) -> None:
        self.child = child
        self.child_partition = child_partition
        self.client_count = client_count


# ----------------------------------------------------------------------
# Game-server directives
# ----------------------------------------------------------------------


class SetRange:
    """Matrix server → game server: new map range + redirect directory.

    The game server must redirect every client outside ``partition`` to
    the game server owning the client's position (looked up in
    ``directory``).
    """

    __slots__ = ("partition", "directory")

    def __init__(self, partition: Rect, directory: dict) -> None:
        self.partition = partition
        self.directory = directory


# ----------------------------------------------------------------------
# Fabric control plane (sharded deployments)
# ----------------------------------------------------------------------


class FabricAcquire:
    """Matrix server → fabric: request one host from the pool."""

    __slots__ = ("requester",)

    def __init__(self, requester: str) -> None:
        self.requester = requester


class FabricGrant:
    """Fabric → Matrix server: the pool's answer (None = exhausted)."""

    __slots__ = ("host_id",)

    def __init__(self, host_id: str | None) -> None:
        self.host_id = host_id


class FabricSpawn:
    """Matrix server → fabric: boot a child pair on a granted host."""

    __slots__ = ("host_id", "partition", "parent")

    def __init__(self, host_id: str, partition: Rect, parent: str) -> None:
        self.host_id = host_id
        self.partition = partition
        self.parent = parent


class FabricSpawned:
    """Fabric → Matrix server: the child pair is up and bound."""

    __slots__ = ("child_ms", "child_gs")

    def __init__(self, child_ms: str, child_gs: str) -> None:
        self.child_ms = child_ms
        self.child_gs = child_gs


class FabricRelease:
    """Matrix server → fabric: return an unused host grant."""

    __slots__ = ("host_id",)

    def __init__(self, host_id: str) -> None:
        self.host_id = host_id


class FabricDecommission:
    """Matrix server → fabric: retire a reclaimed child pair.

    ``host_id=None`` frees whatever host the pair currently holds
    (cancelled-split cleanup — see ``MatrixDeployment.decommission_pair``).
    """

    __slots__ = ("matrix_name", "host_id")

    def __init__(self, matrix_name: str, host_id: str | None) -> None:
        self.matrix_name = matrix_name
        self.host_id = host_id
