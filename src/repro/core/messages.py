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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry import Rect, Vec2

# ----------------------------------------------------------------------
# Data plane
# ----------------------------------------------------------------------


@dataclass(slots=True)
class SpatialPacket:
    """A game packet tagged with the spatial coordinates of its origin
    (and optionally a distinct destination point, for projectiles etc.).

    Matrix never looks inside ``payload`` — the separation-of-concerns
    contract of §2.1.
    """

    #: The point whose consistency set decides routing.
    origin: Vec2
    payload: object
    dest: Vec2 | None = None


@dataclass(slots=True)
class LoadReport:
    """Periodic game-server load report (§3.2.2)."""

    client_count: int
    queue_length: int


@dataclass(slots=True)
class LoadGossip:
    """Child → parent load summary, used for reclaim decisions."""

    server: str
    client_count: int
    has_children: bool
    timestamp: float


# ----------------------------------------------------------------------
# Coordinator plane
# ----------------------------------------------------------------------


@dataclass(slots=True)
class RegisterServer:
    """Matrix server → MC: announce (or re-announce) a map range."""

    matrix_server: str
    game_server: str
    partition: Rect


@dataclass(slots=True)
class UnregisterServer:
    """Matrix server → MC: a reclaimed server leaves the game."""

    matrix_server: str


@dataclass(slots=True)
class OverlapTableUpdate:
    """MC → Matrix server: the new overlap table plus the directory.

    ``cells`` are the merged overlap cells of the receiving server's
    partition at the deployment's visibility radius; ``partitions`` maps
    every Matrix server to its partition; ``game_servers`` maps every
    game server to its partition (the redirect directory forwarded to
    game servers).
    """

    version: int
    partition: Rect
    cells: list  # list[OverlapCell]
    partitions: dict
    game_servers: dict
    server_map: dict  # matrix server name -> game server name


@dataclass(slots=True)
class SplitNotice:
    """Parent Matrix server → MC: atomic record of a completed split.

    Carried as one message so the MC never observes a transient state
    where parent and child partitions overlap.
    """

    parent: str
    parent_partition: Rect
    child: str
    child_game_server: str
    child_partition: Rect


@dataclass(slots=True)
class ReclaimNotice:
    """Parent Matrix server → MC: atomic record of a completed reclaim."""

    parent: str
    merged_partition: Rect
    child: str


@dataclass(slots=True)
class ConsistencyQuery:
    """Matrix server → MC: non-proximal interaction lookup (§3.2.4)."""

    point: Vec2
    exclude: str
    request_id: int


@dataclass(slots=True)
class ConsistencyReply:
    """MC → Matrix server: answer to a :class:`ConsistencyQuery`."""

    request_id: int
    servers: frozenset


# ----------------------------------------------------------------------
# Split / reclaim control plane
# ----------------------------------------------------------------------


@dataclass(slots=True)
class SplitGrant:
    """Parent Matrix server → child: here is your partition."""

    parent: str
    child_partition: Rect
    parent_partition: Rect


@dataclass(slots=True)
class StateBegin:
    """Start of a bulk state transfer."""

    transfer_id: int
    total_chunks: int


@dataclass(slots=True)
class StateChunk:
    """One chunk of bulk state."""

    transfer_id: int


@dataclass(slots=True)
class StateDone:
    """Receiver → sender: all chunks arrived."""

    transfer_id: int


@dataclass(slots=True)
class ReclaimRequest:
    """Parent Matrix server → child: hand your partition back."""

    parent: str
    parent_game_server: str


@dataclass(slots=True)
class ReclaimAck:
    """Child → parent: partition and client handoff complete."""

    child: str
    child_partition: Rect
    client_count: int


# ----------------------------------------------------------------------
# Game-server directives
# ----------------------------------------------------------------------


@dataclass(slots=True)
class SetRange:
    """Matrix server → game server: new map range + redirect directory.

    The game server must redirect every client outside ``partition`` to
    the game server owning the client's position (looked up in
    ``directory``).
    """

    partition: Rect
    directory: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Fabric control plane (sharded deployments)
# ----------------------------------------------------------------------


@dataclass(slots=True)
class FabricAcquire:
    """Matrix server → fabric: request one host from the pool."""

    requester: str


@dataclass(slots=True)
class FabricGrant:
    """Fabric → Matrix server: the pool's answer (None = exhausted)."""

    host_id: str | None


@dataclass(slots=True)
class FabricSpawn:
    """Matrix server → fabric: boot a child pair on a granted host."""

    host_id: str
    partition: Rect
    parent: str


@dataclass(slots=True)
class FabricSpawned:
    """Fabric → Matrix server: the child pair is up and bound."""

    child_ms: str
    child_gs: str


@dataclass(slots=True)
class FabricRelease:
    """Matrix server → fabric: return an unused host grant."""

    host_id: str


@dataclass(slots=True)
class FabricDecommission:
    """Matrix server → fabric: retire a reclaimed child pair.

    ``host_id=None`` frees whatever host the pair currently holds
    (cancelled-split cleanup — see ``MatrixDeployment.decommission_pair``).
    """

    matrix_name: str
    host_id: str | None
