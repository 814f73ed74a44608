"""Outbound interception stages for nodes.

A node's ``stages`` list (:meth:`~repro.net.node.Node.use` appends to
it) sits between its ``send`` and the wire: every outbound message
passes through the stages' ``on_outbound`` hooks before it reaches the
network.  Cross-cutting concerns — per-kind metrics, packet batching,
fault injection — become opt-in stages instead of edits to the routing
core.  ``Node.send`` walks the list itself; a node with no stage (every
node of every timed workload) skips it on one truthiness test.

Interception is one direction.  The walk runs last-to-first, so the
first stage in the list is the one closest to the wire.  A hook
returning ``None`` consumes the message (nothing further runs).  A
stage interested in some kinds only tests the kind at the top of its
hook.  Nothing intercepts a serviced message: a stage that must answer
a kind on the receiving side declares a ``@handles`` method, and
``Node.use`` adopts it into the node's handler table like any
component (the batching stage unpacks ``net.batch`` that way).

Stages that buffer or clone traffic (batching, fault duplication)
re-inject via ``node.network.transmit`` directly, *below* the stages:
no stage observes a flushed batch or a duplicate clone, and hooks of
stages outside a buffering stage never see the kinds it absorbs.
Per-kind *wire* truth therefore lives in ``network.stats``;
``KindMetricsStage`` measures the traffic crossing its own position in
the list.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Iterable

from repro.net.dispatch import handles
from repro.net.message import Message
from repro.net.stats import Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node

#: Wire kind of an aggregated same-destination batch.
BATCH_KIND = "net.batch"


class MiddlewareStage:
    """Base class for middleware stages; default hooks pass through."""

    name = "stage"

    def __init__(self) -> None:
        self._node: "Node | None" = None

    @property
    def node(self) -> "Node":
        """The node this stage is installed on."""
        if self._node is None:
            raise RuntimeError(f"stage {self.name} not bound to a node")
        return self._node

    def bind(self, node: "Node") -> None:
        """Called by :meth:`~repro.net.node.Node.use` on installation."""
        self._node = node

    def on_outbound(self, message: Message) -> Message | None:
        """Hook an outbound message; ``None`` consumes it."""
        return message


class KindMetricsStage(MiddlewareStage):
    """Per-kind outbound message/byte counters.

    Purely observational — messages always pass through unchanged.
    Counts what crosses this stage's position in the list: kinds a
    deeper stage absorbs (e.g. batched forwards) never reach its outbound
    hook, and traffic re-injected below the stages (flushed batches,
    duplicate clones) is visible only in ``network.stats``.
    """

    name = "kind-metrics"

    def __init__(self) -> None:
        super().__init__()
        self.outbound: dict[str, Counter] = {}

    def on_outbound(self, message: Message) -> Message | None:
        counter = self.outbound.get(message.kind)
        if counter is None:
            counter = self.outbound[message.kind] = Counter()
        counter.add(message.size_bytes)
        return message


class FaultInjectionStage(MiddlewareStage):
    """Outbound drop/duplicate fault injection for selected kinds.

    Models the lossy links tier-2 experiments need without touching the
    router: a message may be silently dropped or transmitted twice.
    Duplication bypasses the outer stages (the clone goes straight to
    the wire) so a duplicate cannot itself be re-dropped.
    """

    name = "fault-injection"

    def __init__(
        self,
        rng: random.Random,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        kinds: Iterable[str] | None = None,
    ) -> None:
        super().__init__()
        if not 0.0 <= drop_rate <= 1.0:
            raise ValueError(f"drop_rate out of [0, 1]: {drop_rate}")
        if not 0.0 <= duplicate_rate <= 1.0:
            raise ValueError(f"duplicate_rate out of [0, 1]: {duplicate_rate}")
        self._rng = rng
        #: Probability of dropping a matching outbound message.
        self.drop_rate = drop_rate
        #: Probability of duplicating a matching message.
        self.duplicate_rate = duplicate_rate
        self._kinds = frozenset(kinds) if kinds is not None else None
        self.dropped = 0
        self.duplicated = 0

    def set_kinds(self, kinds: Iterable[str] | None) -> None:
        """Re-target the stage at a different kind set mid-run."""
        self._kinds = frozenset(kinds) if kinds is not None else None

    def set_rates(self, drop_rate: float, duplicate_rate: float = 0.0) -> None:
        """Re-tune the fault rates mid-run (chaos LinkDegrade/Recovery).

        Zero rates make the stage inert (messages pass through without
        an RNG draw), so degradation windows can open and close without
        reinstalling stages.
        """
        if not 0.0 <= drop_rate <= 1.0:
            raise ValueError(f"drop_rate out of [0, 1]: {drop_rate}")
        if not 0.0 <= duplicate_rate <= 1.0:
            raise ValueError(f"duplicate_rate out of [0, 1]: {duplicate_rate}")
        self.drop_rate = drop_rate
        self.duplicate_rate = duplicate_rate

    def on_outbound(self, message: Message) -> Message | None:
        if self._kinds is not None and message.kind not in self._kinds:
            return message
        if self.drop_rate and self._rng.random() < self.drop_rate:
            self.dropped += 1
            return None
        if self.duplicate_rate and self._rng.random() < self.duplicate_rate:
            self.duplicated += 1
            clone = Message(
                src=message.src,
                dst=message.dst,
                kind=message.kind,
                payload=message.payload,
                size_bytes=message.size_bytes,
            )
            self.node.network.transmit(clone)
        return message


class SpatialBatchingStage(MiddlewareStage):
    """Aggregate same-destination spatial forwards within a flush window.

    Outbound ``matrix.forward`` messages are buffered per destination;
    once per :attr:`WINDOW` seconds every buffer is flushed — a
    single buffered message goes out as-is, two or more are wrapped into
    one :data:`BATCH_KIND` wire message whose payload is the tuple of
    original messages.  On the receiving side the stage's
    :data:`BATCH_KIND` handler unwraps a batch and dispatches each inner
    message individually, so handlers observe exactly the packets they
    would have seen unbatched (delivery is delayed by at most one
    window, and the wire carries fewer, larger messages).

    Both endpoints must install the stage (the deployment installs it on
    every Matrix server from one config).  A stage installed after it
    (a chaos fault stage) is innermost, so it sees single forwards
    before they are buffered.
    """

    name = "spatial-batching"
    #: Flush window in seconds: one game tick.
    WINDOW = 0.05
    #: Wire overhead of one aggregated batch message.
    HEADER_BYTES = 16
    #: The kinds buffered for aggregation.
    KINDS = frozenset({"matrix.forward"})

    def __init__(self) -> None:
        super().__init__()
        self._buffers: dict[str, list[Message]] = {}
        self._flush_scheduled = False
        self.buffered_total = 0

    def on_outbound(self, message: Message) -> Message | None:
        if message.kind not in self.KINDS:
            return message
        self._buffers.setdefault(message.dst, []).append(message)
        self.buffered_total += 1
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.node.sim.after(self.WINDOW, self._flush_tick)
        return None

    @handles(BATCH_KIND)
    def _on_batch(self, message: Message) -> None:
        node = self.node
        for inner in message.payload:
            node._handlers.get(inner.kind, node.on_unhandled)(inner)

    def _flush_tick(self) -> None:
        self._flush_scheduled = False
        self.flush()

    def flush(self) -> None:
        buffers, self._buffers = self._buffers, {}
        network = self.node.network
        for dst, pending in buffers.items():
            if len(pending) == 1:
                network.transmit(pending[0])
                continue
            batch = Message(
                src=self.node.name,
                dst=dst,
                kind=BATCH_KIND,
                payload=tuple(pending),
                size_bytes=self.HEADER_BYTES
                + sum(inner.size_bytes for inner in pending),
            )
            network.transmit(batch)
