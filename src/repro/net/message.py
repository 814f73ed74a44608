"""Messages exchanged between simulated hosts."""

from __future__ import annotations

from typing import Any


class Message:
    """A network message between two nodes.

    ``kind`` is a routing/accounting label (e.g. ``"game.update"``,
    ``"matrix.forward"``, ``"mc.overlap_table"``); traffic statistics
    are broken down by it, which is how the coordinator-overhead and
    bandwidth microbenchmarks classify traffic.

    One is built per packet, so construction is a single hand-written
    frame.  Instances pickle by their slots (``--jobs`` grid workers
    return results that hold them) and compare by identity: there is
    no message id.
    """

    __slots__ = ("src", "dst", "kind", "payload", "size_bytes", "sent_at")

    def __init__(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: Any,
        size_bytes: int,
        sent_at: float = 0.0,
    ) -> None:
        if size_bytes < 0:
            raise ValueError(f"negative message size: {size_bytes}")
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.size_bytes = size_bytes
        self.sent_at = sent_at
