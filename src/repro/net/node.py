"""Base class for simulated hosts (game servers, Matrix servers, MC, clients).

A node answers a message through one ``kind -> bound callable`` table:
its own ``@handles`` methods, bound at construction, and those of the
components handed to :meth:`Node.adopt` (a middleware stage installed
with :meth:`Node.use` among them).  There is no other dispatch path:
no per-node override, no lazily filled second lookup, and no stage
between the receive queue and the table.
"""

from __future__ import annotations

from abc import ABC
from typing import Any, ClassVar, Collection, TYPE_CHECKING, TypeVar

from repro.net.dispatch import (  # noqa: F401
    DispatchCollisionError,
    build_dispatch_table,
    handles,
)
from repro.net.message import Message
from repro.net.middleware import MiddlewareStage
from repro.net.queue import ReceiveQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network

C = TypeVar("C")


class Node(ABC):
    """A network endpoint with a finite-rate receive queue.

    Subclasses declare message handlers with the
    :func:`~repro.net.dispatch.handles` decorator; a ``kind -> method
    name`` table is compiled once per class and bound once per node, at
    construction.  A node built from components lets them declare their
    own kinds the same way and binds them in with :meth:`adopt`.  That
    one ``kind -> bound callable`` table, whoever owns the method, is
    the only way a node answers a message: a kind it does not hold goes
    to :meth:`on_unhandled`.  Everything else — queueing, servicing
    delay, traffic accounting, the outbound middleware stages — is
    provided.

    A node's attributes live in fixed slots.  A subclass that declares
    no ``__slots__`` of its own (servers, test doubles) gets an
    instance dict for its own attributes, as any class does; one built
    in the thousands (:class:`~repro.games.base.GameClient`) declares
    its slots and has none.
    """

    __slots__ = (
        "name", "_network", "sim", "_service_rate", "_queue_capacity",
        "_priority_kinds", "_inbox", "_arrive", "stages", "_handlers",
        "unhandled_count",
    )

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
        #: ``self._inbox.deliver``, bound once in :meth:`attach`: every
        #: route to this node holds this one object as its arrival.
        self._arrive = None
        #: Installed middleware stages, outermost (closest to the wire)
        #: first.  An empty-list truthiness check is how the hot send
        #: path skips the stages on bare nodes.
        self.stages: list[MiddlewareStage] = []
        # kind -> bound handler: the node's own ``@handles`` methods,
        # plus adopted components'.  The receive queue holds this dict,
        # so it is only ever mutated in place.
        self._handlers: dict[str, Any] = {
            kind: getattr(self, name)
            for kind, name in self._dispatch_table.items()
        }
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
        self._inbox = ReceiveQueue(
            self.sim,
            self.handle_message,
            self._handlers,
            service_rate=self._service_rate,
            capacity=self._queue_capacity,
            priority_kinds=self._priority_kinds,
        )
        self._arrive = self._inbox.deliver

    def use(self, stage: MiddlewareStage) -> MiddlewareStage:
        """Install *stage* as the new innermost middleware stage.

        The stage is also :meth:`adopt`-ed, so a ``@handles`` method it
        declares answers its kind on this node.
        """
        stage.bind(self)
        self.adopt(stage)
        self.stages.append(stage)
        return stage

    def adopt(self, component: C) -> C:
        """Let *component*'s ``@handles`` methods answer for this node.

        Each is bound into the node's handler table, so a serviced
        message goes to the component directly.  A kind the node or an
        earlier component already handles raises
        :class:`~repro.net.dispatch.DispatchCollisionError`; an object
        with no ``@handles`` method adopts to nothing.
        """
        for kind, method_name in build_dispatch_table(type(component)).items():
            if kind in self._handlers:
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

        The message first runs through the stages' outbound hooks,
        innermost first; a stage may transform it or consume it (e.g.
        buffer it into a batch).  The constructed message is returned
        either way.
        """
        message = Message(self.name, dst, kind, payload, size_bytes)
        network = self._network or self.network  # raises: not attached
        processed = message
        if self.stages:
            for stage in reversed(self.stages):
                processed = stage.on_outbound(processed)
                if processed is None:
                    return message
        network.transmit(processed)
        return message

    def multicast(
        self, dsts: Collection[str], kind: str, payload: Any, size_bytes: int
    ) -> None:
        """Send one message to each of *dsts*, in order.

        On a bare node the fan-out is one :class:`Message` (its ``dst``
        is ``None``) handed with *dsts* to :meth:`Network.multicast` in
        one call; each destination gets what a :meth:`send` to it would
        get, and every arrival carries that one message.  An empty
        *dsts* builds nothing.  *dsts* is a sized collection (a list,
        tuple or dict of names), since the network accounts the
        fan-out's length up front.  A node with stages sends each message through
        :meth:`send`, so every stage sees every message.
        """
        if self.stages:
            for dst in dsts:
                self.send(dst, kind, payload, size_bytes)
            return
        if dsts:
            (self._network or self.network).multicast(
                Message(self.name, None, kind, payload, size_bytes), dsts
            )

    def handle_message(self, message: Message) -> None:
        """Process one serviced message through the handler table
        (:meth:`on_unhandled` for a kind it lacks).

        The receive queue calls a table entry itself; this is its path
        for a kind the table lacks.
        """
        self._handlers.get(message.kind, self.on_unhandled)(message)

    def on_unhandled(self, message: Message) -> None:
        """A message no handler claims: counted, then dropped.

        Unknown kinds are tolerated (a decommissioned peer's straggler
        traffic may reference protocol the receiver never speaks), but
        the count is kept so tests can assert nothing important leaked.
        """
        self.unhandled_count += 1
