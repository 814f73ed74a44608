"""Declarative message dispatch for :class:`~repro.net.node.Node`.

Instead of every node hand-writing an ``if kind == ... / elif kind ==``
chain, subclasses decorate handler methods::

    class Echo(Node):
        @handles("ping")
        def _on_ping(self, message: Message) -> None:
            self.send(message.src, "pong", None, size_bytes=16)

At class-definition time :func:`build_dispatch_table` (invoked from
``Node.__init_subclass__``) walks the MRO and compiles a flat
``kind -> method-name`` table; ``Node.__init__`` binds it into the
node's one ``kind -> bound callable`` table, so per-message dispatch is
a single dict lookup — no chain, no per-message ``getattr``.

Rules:

* A subclass may re-register a kind to a different method; the subclass
  wins (ordinary override semantics).  Overriding the *method* by name
  without re-decorating also works, because the table stores method
  names and the node binds each with ``getattr``.
* Two different methods of the *same* class claiming the same kind is a
  programming error and raises :class:`DispatchCollisionError` when the
  class is defined.
* Any object may decorate its methods the same way; a node answers
  those kinds with the object's bound methods once it has been handed
  to :meth:`~repro.net.node.Node.adopt`.  A kind the node or an earlier component
  already handles raises :class:`DispatchCollisionError` at adoption.
* A message whose kind is not in the node's table is routed to
  ``Node.on_unhandled`` (default: counted and dropped).  The table is
  the only dispatch path: a node that must not answer a kind yet (the
  standby MC before promotion) keeps it out of the table.
"""

from __future__ import annotations

from typing import Callable, TypeVar

_DISPATCH_ATTR = "__dispatch_kinds__"

F = TypeVar("F", bound=Callable)


class DispatchCollisionError(TypeError):
    """Two methods of one class — or a node and a component it adopts —
    registered a handler for the same kind."""


def handles(*kinds: str) -> Callable[[F], F]:
    """Mark a method as the handler for the given message kinds."""
    if not kinds:
        raise ValueError("@handles needs at least one message kind")
    for kind in kinds:
        if not isinstance(kind, str) or not kind:
            raise ValueError(f"message kind must be a non-empty str: {kind!r}")

    def decorate(fn: F) -> F:
        existing = getattr(fn, _DISPATCH_ATTR, ())
        setattr(fn, _DISPATCH_ATTR, (*existing, *kinds))
        return fn

    return decorate


def registered_kinds(fn: Callable) -> tuple[str, ...]:
    """The kinds a callable was decorated with (empty if undecorated)."""
    return getattr(fn, _DISPATCH_ATTR, ())


def build_dispatch_table(cls: type) -> dict[str, str]:
    """Compile the ``kind -> method name`` table for *cls*.

    Walks the MRO base-first so subclass registrations shadow base-class
    ones, and rejects same-class collisions.
    """
    table: dict[str, str] = {}
    for base in reversed(cls.__mro__):
        own: dict[str, str] = {}
        for name, attr in vars(base).items():
            for kind in registered_kinds(attr):
                claimed = own.get(kind)
                if claimed is not None and claimed != name:
                    raise DispatchCollisionError(
                        f"{base.__qualname__}: both .{claimed} and .{name} "
                        f"register a handler for kind {kind!r}"
                    )
                own[kind] = name
        table.update(own)
    return table
