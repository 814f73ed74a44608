"""The developer-facing Matrix API (§2.1, §3.2.2).

A game server integrates with Matrix through a :class:`MatrixPort`: a
small library object owned by the game-server process.  Constructing
one adopts it into its owner node, so the port answers Matrix's
message kinds from the owner's handler table itself.  It hides every
Matrix mechanism behind three calls and two callbacks —

* :meth:`MatrixPort.send_spatial` — tag a game packet with the spatial
  coordinates of its origin and hand it to Matrix for consistency
  propagation;
* :meth:`MatrixPort.report_load` — periodic load report;
* :meth:`MatrixPort.query_consistency` — the rare non-proximal lookup;
* ``on_deliver`` — called with a remote :class:`SpatialPacket`;
* ``on_set_range`` — called with a map-range directive.

This is the "clean layering that hides the consistency maintenance
details" — the game never learns which peer servers exist.
"""

from __future__ import annotations

import itertools
from typing import Callable, Protocol, Sequence, runtime_checkable

from repro.core.config import (
    CONTROL_BYTES,
    LOAD_REPORT_BYTES,
    SPATIAL_TAG_BYTES,
)
from repro.core.messages import (
    ConsistencyQuery,
    LoadReport,
    SetRange,
    SpatialPacket,
)
from repro.geometry import Rect, Vec2
from repro.net.message import Message
from repro.net.node import Node, handles


@runtime_checkable
class GameServerHandle(Protocol):
    """What the Matrix fabric needs from a game-server implementation.

    Game servers are otherwise opaque to Matrix (separation of
    concerns); these members exist so the deployment can create, bind
    and introspect them.
    """

    name: str

    def bind_matrix(self, matrix_name: str, partition: Rect) -> None:
        """Attach to a Matrix server and adopt an initial map range."""

    @property
    def client_count(self) -> int:
        """Number of clients currently homed on this server."""

    def client_positions(self) -> Sequence[Vec2]:
        """Positions of the homed clients (read at split time only)."""


class MatrixPort:
    """Game-server-side Matrix integration library.

    Constructing a port adopts it into *owner*: the owner's handler
    table then hands Matrix's kinds to the port's ``@handles`` methods.
    """

    def __init__(self, owner: Node) -> None:
        self._owner = owner
        self._matrix_name: str | None = None
        # Request ids are unique per port: replies come back to it only.
        self._query_ids = itertools.count(1)
        self._pending_queries: dict[int, Callable[[frozenset], None]] = {}
        #: Called with a :class:`SpatialPacket` from a peer's region.
        self.on_deliver: Callable[[SpatialPacket], None] | None = None
        #: Called with a :class:`SetRange` directive.
        self.on_set_range: Callable[[SetRange], None] | None = None
        owner.adopt(self)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @property
    def bound(self) -> bool:
        """True once attached to a Matrix server."""
        return self._matrix_name is not None

    def bind(self, matrix_name: str) -> None:
        """Attach to Matrix server *matrix_name*."""
        self._matrix_name = matrix_name

    # ------------------------------------------------------------------
    # Outbound (game server → Matrix)
    # ------------------------------------------------------------------
    def send_spatial(
        self,
        origin: Vec2,
        payload: object,
        payload_bytes: int,
        dest: Vec2 | None = None,
    ) -> SpatialPacket:
        """Tag a game packet with coordinates and forward it to Matrix.

        This is the §3.1 contract: the game merely forwards packets
        "appropriately tagged with the spatial coordinates ... of the
        packet's origin and destination" to its local Matrix server.
        """
        if not self.bound:
            raise RuntimeError("MatrixPort not bound to a Matrix server")
        packet = SpatialPacket(origin=origin, payload=payload, dest=dest)
        self._owner.send(
            self._matrix_name,
            "game.spatial",
            packet,
            size_bytes=payload_bytes + SPATIAL_TAG_BYTES,
        )
        return packet

    def report_load(self, client_count: int) -> None:
        """Send the periodic load report (§3.2.2): the client count,
        the one load measure the split/reclaim policy reads."""
        if not self.bound:
            raise RuntimeError("MatrixPort not bound to a Matrix server")
        self._owner.send(
            self._matrix_name,
            "matrix.load",
            LoadReport(client_count),
            size_bytes=LOAD_REPORT_BYTES,
        )

    def query_consistency(
        self, point: Vec2, callback: Callable[[frozenset], None]
    ) -> None:
        """Resolve the consistency set of a *non-proximal* point.

        Used for the uncommon long-range interactions (§3.2.4); the
        answer (a frozenset of game-server names) arrives via
        *callback* after a Matrix-server → MC round trip.
        """
        if not self.bound:
            raise RuntimeError("MatrixPort not bound to a Matrix server")
        request_id = next(self._query_ids)
        self._pending_queries[request_id] = callback
        query = ConsistencyQuery(
            point=point, exclude="", request_id=request_id
        )
        self._owner.send(
            self._matrix_name,
            "matrix.query",
            query,
            size_bytes=CONTROL_BYTES,
        )

    # ------------------------------------------------------------------
    # Inbound (Matrix → game server)
    # ------------------------------------------------------------------
    @handles("matrix.deliver")
    def _handle_deliver(self, message: Message) -> None:
        if self.on_deliver is not None:
            self.on_deliver(message.payload)

    @handles("gs.set_range")
    def _handle_set_range(self, message: Message) -> None:
        if self.on_set_range is not None:
            self.on_set_range(message.payload)

    @handles("gs.query_reply")
    def _handle_query_reply(self, message: Message) -> None:
        reply = message.payload
        callback = self._pending_queries.pop(reply.request_id, None)
        if callback is not None:
            callback(reply.servers)
