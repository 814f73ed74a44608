"""Messages exchanged between simulated hosts."""

from __future__ import annotations

from typing import Any


class Message:
    """A network message from one node to one or more.

    ``kind`` is a routing/accounting label (e.g. ``"game.update"``,
    ``"matrix.forward"``, ``"mc.overlap_table"``); traffic statistics
    are broken down by it, which is how the coordinator-overhead and
    bandwidth microbenchmarks classify traffic.

    A send builds one per packet, so construction is a single
    hand-written frame.  A fan-out (:meth:`repro.net.node.Node.multicast`)
    builds one for all its destinations: its ``dst`` is ``None``, and
    every arrival of the fan-out carries that one object.  An arrival's
    destination is the queue it lands in, so no handler reads ``dst``.
    Instances pickle by their slots (``--jobs`` grid workers return
    results that hold them) and compare by identity: there is no
    message id.
    """

    __slots__ = ("src", "dst", "kind", "payload", "size_bytes")

    def __init__(
        self,
        src: str,
        dst: str | None,
        kind: str,
        payload: Any,
        size_bytes: int,
    ) -> None:
        if size_bytes < 0:
            raise ValueError(f"negative message size: {size_bytes}")
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.size_bytes = size_bytes
