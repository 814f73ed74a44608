"""Base class for simulated hosts (game servers, Matrix servers, MC, clients)."""

from __future__ import annotations

from abc import ABC
from typing import Any, ClassVar, Iterable, TYPE_CHECKING, TypeVar

from repro.net.dispatch import (  # noqa: F401
    DispatchCollisionError,
    build_dispatch_table,
    handles,
)
from repro.net.message import Message
from repro.net.middleware import MiddlewarePipeline, MiddlewareStage
from repro.net.queue import ReceiveQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network

C = TypeVar("C")


class Node(ABC):
    """A network endpoint with a finite-rate receive queue.

    Subclasses declare message handlers with the
    :func:`~repro.net.dispatch.handles` decorator; a ``kind -> handler``
    table is compiled once per class, and :meth:`dispatch` routes each
    serviced message through it.  A node built from components lets
    them declare their own kinds the same way and binds them in with
    :meth:`adopt`: one ``kind -> bound callable`` table per node,
    whoever owns the method.  Everything else — queueing, servicing
    delay, traffic accounting, the middleware pipeline — is provided.

    Legacy subclasses may still override :meth:`handle_message`
    wholesale (some test doubles do), bypassing pipeline and registry.
    """

    #: kind -> method name, compiled at class-definition time.
    _dispatch_table: ClassVar[dict[str, str]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._dispatch_table = build_dispatch_table(cls)

    def __init__(
        self,
        name: str,
        service_rate: float = float("inf"),
        queue_capacity: int | None = None,
        priority_kinds: frozenset[str] | None = None,
    ) -> None:
        self.name = name
        self._network: "Network | None" = None
        #: This node's simulation handle — its shard lane when sharded;
        #: ``None`` until :meth:`attach`.  An attribute, not a property:
        #: handlers read it on every schedule.
        self.sim = None
        self._service_rate = service_rate
        self._queue_capacity = queue_capacity
        self._priority_kinds = priority_kinds
        self._inbox: ReceiveQueue | None = None
        self.middleware = MiddlewarePipeline(self)
        # The pipeline's live stage list (appended to in place by
        # ``use``): an empty-list truthiness check is how the hot send/
        # receive paths skip the pipeline entirely on bare nodes.
        self._mw_stages = self.middleware.stages
        # kind -> bound handler: adopted components' handlers, plus the
        # node's own, resolved through the class dispatch table on first
        # use so steady-state dispatch is one dict hit.
        self._handlers: dict[str, Any] = {}
        self.unhandled_count = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, network: "Network") -> None:
        """Called by :meth:`Network.add_node`; builds the receive queue."""
        self._network = network
        # Under the sharded network this is the node's shard lane; all
        # of the node's own scheduling (receive queue service, duties,
        # timers) must go through it so the node's work stays lane-local.
        self.sim = network.sim_for(self)
        # An overridden ``handle_message`` filters: no bypassing it.
        direct = type(self).handle_message is Node.handle_message
        self._inbox = ReceiveQueue(
            self.sim,
            self.handle_message,
            service_rate=self._service_rate,
            capacity=self._queue_capacity,
            priority_kinds=self._priority_kinds,
            handlers=self._handlers if direct else None,
            stages=self._mw_stages,
        )

    def use(self, stage: MiddlewareStage) -> MiddlewareStage:
        """Install a middleware stage (innermost position)."""
        return self.middleware.use(stage)

    def adopt(self, component: C) -> C:
        """Let *component*'s ``@handles`` methods answer for this node.

        Each is bound into the node's handler table, so
        :meth:`handle_message` calls the component directly.  A kind the
        node or an earlier component already handles raises
        :class:`~repro.net.dispatch.DispatchCollisionError`; an object
        with no ``@handles`` method adopts to nothing.
        """
        for kind, method_name in build_dispatch_table(type(component)).items():
            if kind in self._dispatch_table or kind in self._handlers:
                raise DispatchCollisionError(
                    f"{self.name}: {type(component).__qualname__}."
                    f"{method_name} claims kind {kind!r}, which is "
                    "already handled"
                )
            self._handlers[kind] = getattr(component, method_name)
        return component

    @property
    def network(self) -> "Network":
        """The network this node is attached to."""
        if self._network is None:
            raise RuntimeError(f"node {self.name} not attached to a network")
        return self._network

    @property
    def inbox(self) -> ReceiveQueue:
        """This node's receive queue (Fig 2b samples its ``length``)."""
        if self._inbox is None:
            raise RuntimeError(f"node {self.name} not attached to a network")
        return self._inbox

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, dst: str, kind: str, payload: Any, size_bytes: int) -> Message:
        """Send a message to node *dst* over the network.

        The message first runs through the middleware pipeline's
        outbound hooks; a stage may transform it or consume it (e.g.
        buffer it into a batch).  The constructed message is returned
        either way.
        """
        message = Message(self.name, dst, kind, payload, size_bytes)
        network = self._network or self.network  # raises: not attached
        if self._mw_stages:
            processed = self.middleware.process_outbound(message)
            if processed is None:
                return message
            network.transmit(processed)
        else:
            network.transmit(message)
        return message

    def multicast(
        self, dsts: Iterable[str], kind: str, payload: Any, size_bytes: int
    ) -> None:
        """:meth:`send` to each of *dsts* in order, in one call (through
        :meth:`send` itself when the node has stages)."""
        if self._mw_stages:
            for dst in dsts:
                self.send(dst, kind, payload, size_bytes)
            return
        transmit = (self._network or self.network).transmit
        name = self.name
        for dst in dsts:
            transmit(Message(name, dst, kind, payload, size_bytes))

    def handle_message(self, message: Message) -> None:
        """Process one serviced message: inbound middleware, then dispatch.

        A kind already resolved is called straight from the handler
        table; :meth:`dispatch` is the miss path.  To filter what a node
        handles, override this method — not :meth:`dispatch`.
        """
        if self._mw_stages:
            message = self.middleware.process_inbound(message)
            if message is None:
                return
        handler = self._handlers.get(message.kind)
        if handler is not None:
            handler(message)
        else:
            self.dispatch(message)

    def dispatch(self, message: Message) -> None:
        """Route *message* to the handler registered for its kind.

        The bound handler is resolved once per (instance, kind) and
        cached; afterwards a message costs a single dict lookup instead
        of a dispatch-table probe plus a ``getattr`` bound-method
        allocation.
        """
        handler = self._handlers.get(message.kind)
        if handler is None:
            method_name = self._dispatch_table.get(message.kind)
            if method_name is None:
                self.on_unhandled(message)
                return
            handler = getattr(self, method_name)
            self._handlers[message.kind] = handler
        handler(message)

    def on_unhandled(self, message: Message) -> None:
        """A message no handler claims: counted, then dropped.

        Unknown kinds are tolerated (a decommissioned peer's straggler
        traffic may reference protocol the receiver never speaks), but
        the count is kept so tests can assert nothing important leaked.
        """
        self.unhandled_count += 1
