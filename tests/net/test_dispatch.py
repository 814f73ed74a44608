"""Unit tests for the declarative dispatch registry."""

import pytest

from repro.net.dispatch import DispatchCollisionError, build_dispatch_table, handles
from repro.net.message import Message
from repro.net.network import Network
from repro.net.node import Node
from repro.sim.kernel import Simulator


def make(kind: str, payload=None) -> Message:
    return Message(src="a", dst="b", kind=kind, payload=payload, size_bytes=8)


class Base(Node):
    def __init__(self, name="base"):
        super().__init__(name)
        self.log: list[str] = []

    @handles("ping")
    def _on_ping(self, message):
        self.log.append("base-ping")

    @handles("multi.a", "multi.b")
    def _on_multi(self, message):
        self.log.append(f"multi:{message.kind}")


def attached(node: Node) -> Node:
    network = Network(Simulator())
    network.add_node(node)
    return node


def test_registered_handler_dispatches():
    node = attached(Base())
    node.handle_message(make("ping"))
    assert node.log == ["base-ping"]
    assert node.unhandled_count == 0


def test_one_handler_many_kinds():
    node = attached(Base())
    node.handle_message(make("multi.a"))
    node.handle_message(make("multi.b"))
    assert node.log == ["multi:multi.a", "multi:multi.b"]


def test_unknown_kind_is_counted_and_dropped():
    node = attached(Base())
    node.handle_message(make("mystery.kind"))
    assert node.log == []
    assert node.unhandled_count == 1


def test_subclass_rebinds_kind_to_new_method():
    class Sub(Base):
        @handles("ping")
        def _on_ping_v2(self, message):
            self.log.append("sub-ping")

    node = attached(Sub())
    node.handle_message(make("ping"))
    assert node.log == ["sub-ping"]
    # The base's other registrations are inherited untouched.
    node.handle_message(make("multi.a"))
    assert node.log[-1] == "multi:multi.a"


def test_subclass_method_override_without_redecorating():
    class Sub(Base):
        def _on_ping(self, message):  # same name, no @handles needed
            self.log.append("overridden")

    node = attached(Sub())
    node.handle_message(make("ping"))
    assert node.log == ["overridden"]


def test_same_class_collision_rejected_at_definition():
    with pytest.raises(DispatchCollisionError):

        class Colliding(Node):
            @handles("dup")
            def _a(self, message):
                pass

            @handles("dup")
            def _b(self, message):
                pass


def test_redecorating_same_method_is_not_a_collision():
    class Stacked(Node):
        @handles("x")
        @handles("y")
        def _on_both(self, message):
            pass

    assert Stacked._dispatch_table["x"] == "_on_both"
    assert Stacked._dispatch_table["y"] == "_on_both"


def test_handles_rejects_bad_arguments():
    with pytest.raises(ValueError):
        handles()
    with pytest.raises(ValueError):
        handles("")


def test_build_dispatch_table_walks_mro():
    class Sub(Base):
        @handles("extra")
        def _on_extra(self, message):
            pass

    table = build_dispatch_table(Sub)
    assert table["ping"] == "_on_ping"
    assert table["extra"] == "_on_extra"
    assert table["multi.a"] == "_on_multi"


def test_class_table_is_bound_at_construction():
    node = Base()  # not attached: the table does not wait for a network
    assert node._handlers == {
        "ping": node._on_ping,
        "multi.a": node._on_multi,
        "multi.b": node._on_multi,
    }
    assert node._handlers["ping"].__self__ is node


def test_a_handler_overridden_by_name_is_the_one_bound():
    class Sub(Base):
        def _on_ping(self, message):
            self.log.append("overridden")

    node = Sub()
    assert node._handlers["ping"].__func__ is Sub._on_ping
    assert node._handlers["multi.a"].__func__ is Base._on_multi


class Echoes:
    """A component: not a node, but it declares the kinds it answers."""

    def __init__(self):
        self.log: list[str] = []

    @handles("echo", "echo.loud")
    def on_echo(self, message):
        self.log.append(message.kind)


def test_adopted_component_is_called_straight_from_handle_message():
    import gc
    import sys

    node = attached(Base())
    echoes = node.adopt(Echoes())
    called = []

    def trace(frame, event, arg):
        if event == "call":
            called.append(frame.f_code.co_name)

    message = make("echo")
    # A collection inside the window would add the frames of whatever
    # gc.callbacks other tests' libraries installed (hypothesis has one).
    gc_was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(trace)
    try:
        node.handle_message(message)
    finally:
        sys.setprofile(None)
        if gc_was_enabled:
            gc.enable()
    # No frame between the node's entry point and the component.
    assert called == ["handle_message", "on_echo"]
    node.handle_message(make("echo.loud"))
    node.handle_message(make("ping"))  # the node's own kinds still work
    assert echoes.log == ["echo", "echo.loud"]
    assert node.log == ["base-ping"]
    assert node.unhandled_count == 0


def test_adopting_a_second_claimant_of_a_kind_is_a_collision():
    class AlsoPing:
        @handles("ping")
        def on_ping(self, message):
            pass

    node = attached(Base())
    with pytest.raises(DispatchCollisionError, match="'ping'"):
        node.adopt(AlsoPing())  # the node itself handles ping
    node.adopt(Echoes())
    with pytest.raises(DispatchCollisionError, match="'echo'"):
        node.adopt(Echoes())  # an earlier component handles echo


def test_adopting_an_object_without_handlers_is_a_no_op():
    node = attached(Base())
    before = dict(node._handlers)
    plain = object()
    assert node.adopt(plain) is plain
    assert node._handlers == before
    node.handle_message(make("echo"))
    assert node.unhandled_count == 1
