"""Game-level packet payloads exchanged between clients and servers.

These travel *inside* Matrix's :class:`~repro.core.messages.SpatialPacket`
envelopes when propagated between servers — Matrix never inspects them.
Like Matrix's own payloads, each is a plain ``__slots__`` class.
"""

from __future__ import annotations

from repro.geometry import Vec2


class PlayerUpdate:
    """Client → server: periodic position/state update."""

    __slots__ = ("client_id", "position", "seq")

    def __init__(self, client_id: str, position: Vec2, seq: int = 0) -> None:
        self.client_id = client_id
        self.position = position
        self.seq = seq


class ActionEvent:
    """Client → server: a discrete action (shot, spell, interaction).

    ``target`` may name a far-away point (Daimonin shouts/teleports),
    which exercises Matrix's non-proximal routing.
    """

    __slots__ = ("client_id", "position", "seq", "target")

    def __init__(
        self, client_id: str, position: Vec2, seq: int,
        target: Vec2 | None = None,
    ) -> None:
        self.client_id = client_id
        self.position = position
        self.seq = seq
        self.target = target


class Hello:
    """Client → server: join (fresh login or a Matrix-driven switch).

    The server's answer, ``gs.welcome``, carries no payload: the
    client reads only who sent it.
    """

    __slots__ = ("client_id", "position")

    def __init__(self, client_id: str, position: Vec2) -> None:
        self.client_id = client_id
        self.position = position


class SwitchDirective:
    """Server → client: reconnect to *target* (Matrix repartitioned).

    §3.2.1: "The client is informed of these switches by its current
    game server and is unaware of Matrix."
    """

    __slots__ = ("target",)

    def __init__(self, target: str) -> None:
        self.target = target


class Snapshot:
    """Server → client: personalised world-state delta.

    ``processed_seq`` acks the client's latest processed input, which
    is how clients measure response latency (action → observed
    reaction).  The visible entities are not carried: the sender sizes
    the message by their count.
    """

    __slots__ = ("processed_seq",)

    def __init__(self, processed_seq: int) -> None:
        self.processed_seq = processed_seq


class Goodbye:
    """Client → server: leaving the game."""

    __slots__ = ("client_id",)

    def __init__(self, client_id: str) -> None:
        self.client_id = client_id
