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
from dataclasses import dataclass
from typing import Callable

from repro.core.config import STATE_CHUNK_BYTES, STATE_OBJECT_BYTES
from repro.core.messages import StateBegin, StateChunk, StateDone
from repro.core.runtime.context import ServerContext
from repro.geometry import Rect
from repro.net.dispatch import handles
from repro.net.message import Message

#: Density of transferable map objects (objects per world-area unit).
MAP_OBJECT_DENSITY = 0.005


@dataclass(slots=True)
class _IncomingTransfer:
    sender: str
    total_chunks: int  # 0 until the StateBegin arrives
    received: int
    context: str


class StateTransfer:
    """Both halves of the chunked transfer protocol for one server."""

    _transfer_ids = itertools.count(1)

    def __init__(self, ctx: ServerContext) -> None:
        self._ctx = ctx
        self._outgoing: dict[int, str] = {}  # transfer id -> context
        # Keyed by (sender, transfer id): a receiver does not rely on
        # ids being unique across senders.
        self._incoming: dict[tuple[str, int], _IncomingTransfer] = {}
        #: Completion callbacks keyed by transfer context ("split", ...).
        self._completions: dict[str, Callable[[], None]] = {}

    def on_complete(self, context: str, callback: Callable[[], None]) -> None:
        """Invoke *callback* when an outgoing *context* transfer finishes."""
        self._completions[context] = callback

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------
    def start(self, peer: str, area_rect: Rect, context: str) -> None:
        """Send the dynamic map state for *area_rect* to *peer*."""
        ctx = self._ctx
        object_count = max(1, int(area_rect.area * MAP_OBJECT_DENSITY))
        total_bytes = object_count * STATE_OBJECT_BYTES
        total_chunks = max(1, -(-total_bytes // STATE_CHUNK_BYTES))
        transfer_id = next(self._transfer_ids)
        self._outgoing[transfer_id] = context
        begin = StateBegin(
            transfer_id=transfer_id,
            total_chunks=total_chunks,
            total_bytes=total_bytes,
            context=context,
        )
        ctx.control_send(peer, "matrix.state.begin", begin)
        remaining = total_bytes
        for index in range(total_chunks):
            chunk_bytes = min(STATE_CHUNK_BYTES, remaining)
            remaining -= chunk_bytes
            ctx.send(
                peer,
                "matrix.state.chunk",
                StateChunk(transfer_id=transfer_id, index=index),
                size_bytes=chunk_bytes,
            )

    def cancel(self, context: str) -> int:
        """Forget every outgoing *context* transfer (abort path).

        A ``StateDone`` for a cancelled transfer finds no record, so the
        completion callback never fires — completions are no-ops after
        an abort.  Returns the number of transfers cancelled.
        """
        stale = [
            transfer_id
            for transfer_id, transfer_context in self._outgoing.items()
            if transfer_context == context
        ]
        for transfer_id in stale:
            del self._outgoing[transfer_id]
        return len(stale)

    @handles("matrix.state.done")
    def on_done(self, message: Message) -> None:
        """The receiver confirmed completion: fire the context callback."""
        done: StateDone = message.payload
        context = self._outgoing.pop(done.transfer_id, None)
        callback = self._completions.get(context) if context else None
        if callback is not None:
            callback()

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
            transfer = _IncomingTransfer(
                sender=message.src, total_chunks=0, received=0, context=""
            )
            self._incoming[key] = transfer
        transfer.sender = message.src
        transfer.total_chunks = begin.total_chunks
        transfer.context = begin.context
        self._maybe_complete(key)

    @handles("matrix.state.chunk")
    def on_chunk(self, message: Message) -> None:
        chunk: StateChunk = message.payload
        key = (message.src, chunk.transfer_id)
        transfer = self._incoming.get(key)
        if transfer is None:
            # Chunk overtook its StateBegin: buffer the count.
            transfer = _IncomingTransfer(
                sender=message.src, total_chunks=0, received=0, context=""
            )
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
        self._ctx.control_send(
            transfer.sender, "matrix.state.done", StateDone(transfer_id=key[1])
        )
