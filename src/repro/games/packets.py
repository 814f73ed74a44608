"""Game-level packet payloads exchanged between clients and servers.

These travel *inside* Matrix's :class:`~repro.core.messages.SpatialPacket`
envelopes when propagated between servers — Matrix never inspects them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry import Vec2


@dataclass(slots=True)
class PlayerUpdate:
    """Client → server: periodic position/state update."""

    client_id: str
    position: Vec2
    seq: int


@dataclass(slots=True)
class ActionEvent:
    """Client → server: a discrete action (shot, spell, interaction).

    ``target`` may name a far-away point (Daimonin shouts/teleports),
    which exercises Matrix's non-proximal routing.
    """

    client_id: str
    action: str
    position: Vec2
    seq: int
    target: Vec2 | None = None


@dataclass(slots=True)
class Hello:
    """Client → server: join (fresh login or a Matrix-driven switch).

    The server's answer, ``gs.welcome``, carries no payload: the
    client reads only who sent it.
    """

    client_id: str
    position: Vec2


@dataclass(slots=True)
class SwitchDirective:
    """Server → client: reconnect to *target* (Matrix repartitioned).

    §3.2.1: "The client is informed of these switches by its current
    game server and is unaware of Matrix."
    """

    target: str


@dataclass(slots=True)
class Snapshot:
    """Server → client: personalised world-state delta.

    ``processed_seq`` acks the client's latest processed input, which
    is how clients measure response latency (action → observed
    reaction); ``visible_entities`` drives the snapshot's wire size.
    """

    visible_entities: int
    processed_seq: int


@dataclass(slots=True)
class Goodbye:
    """Client → server: leaving the game."""

    client_id: str
