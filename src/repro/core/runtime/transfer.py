"""Chunked state transfer between Matrix servers (§3.2.2).

During a split the parent ships the dynamic map state of the given-away
area to the child; during a reclaim the child ships its state back.
Static assets (textures, geometry) are pre-cached on every host — only
pointers travel — so what moves here is the dynamic object state,
chunked to model bulk transfer over the LAN.

Chunks and the ``begin`` control message travel independently and may
reorder; the receiver tolerates chunks overtaking their ``begin``.
"""

from __future__ import annotations

import itertools
from typing import Callable

from repro.core.config import STATE_CHUNK_BYTES, STATE_OBJECT_BYTES
from repro.core.messages import StateBegin, StateChunk, StateDone
from repro.core.runtime.context import ServerContext
from repro.geometry import Rect
from repro.net.dispatch import handles
from repro.net.message import Message

#: Density of transferable map objects (objects per world-area unit).
MAP_OBJECT_DENSITY = 0.005


class _IncomingTransfer:
    __slots__ = ("total_chunks", "received")

    def __init__(self, total_chunks: int, received: int) -> None:
        self.total_chunks = total_chunks  # 0 until the StateBegin arrives
        self.received = received


class StateTransfer:
    """Both halves of the chunked transfer protocol for one server."""

    def __init__(self, ctx: ServerContext) -> None:
        self._ctx = ctx
        self._transfer_ids = itertools.count(1)
        #: Completion callback of each outgoing transfer, by id.  An
        #: aborted operation's entry stays until its StateDone pops it,
        #: if one ever comes; the callback then finds the operation gone.
        self._outgoing: dict[int, Callable[[], None]] = {}
        # Keyed by (sender, transfer id): a receiver does not rely on
        # ids being unique across senders.
        self._incoming: dict[tuple[str, int], _IncomingTransfer] = {}

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------
    def start(
        self, peer: str, area_rect: Rect, done: Callable[[], None]
    ) -> None:
        """Send the dynamic map state for *area_rect* to *peer*.

        *done* runs when the receiver confirms completion.  It is bound
        to the operation that started the transfer and checks itself
        whether that operation is still current.
        """
        ctx = self._ctx
        object_count = max(1, int(area_rect.area * MAP_OBJECT_DENSITY))
        total_bytes = object_count * STATE_OBJECT_BYTES
        total_chunks = max(1, -(-total_bytes // STATE_CHUNK_BYTES))
        transfer_id = next(self._transfer_ids)
        self._outgoing[transfer_id] = done
        begin = StateBegin(transfer_id=transfer_id, total_chunks=total_chunks)
        ctx.control_send(peer, "matrix.state.begin", begin)
        remaining = total_bytes
        for _ in range(total_chunks):
            chunk_bytes = min(STATE_CHUNK_BYTES, remaining)
            remaining -= chunk_bytes
            ctx.send(
                peer,
                "matrix.state.chunk",
                StateChunk(transfer_id=transfer_id),
                size_bytes=chunk_bytes,
            )

    @handles("matrix.state.done")
    def on_done(self, message: Message) -> None:
        """The receiver confirmed completion: run the sender's callback."""
        finished: StateDone = message.payload
        done = self._outgoing.pop(finished.transfer_id, None)
        if done is not None:
            done()

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    @handles("matrix.state.begin")
    def on_begin(self, message: Message) -> None:
        begin: StateBegin = message.payload
        key = (message.src, begin.transfer_id)
        # A transfer record may already exist with buffered chunks.
        transfer = self._incoming.get(key)
        if transfer is None:
            transfer = _IncomingTransfer(total_chunks=0, received=0)
            self._incoming[key] = transfer
        transfer.total_chunks = begin.total_chunks
        self._maybe_complete(key)

    @handles("matrix.state.chunk")
    def on_chunk(self, message: Message) -> None:
        chunk: StateChunk = message.payload
        key = (message.src, chunk.transfer_id)
        transfer = self._incoming.get(key)
        if transfer is None:
            # Chunk overtook its StateBegin: buffer the count.
            transfer = _IncomingTransfer(total_chunks=0, received=0)
            self._incoming[key] = transfer
        transfer.received += 1
        self._maybe_complete(key)

    def _maybe_complete(self, key: tuple[str, int]) -> None:
        transfer = self._incoming.get(key)
        if transfer is None or transfer.total_chunks <= 0:
            return
        if transfer.received < transfer.total_chunks:
            return
        del self._incoming[key]
        sender, transfer_id = key
        self._ctx.control_send(
            sender, "matrix.state.done", StateDone(transfer_id=transfer_id)
        )
