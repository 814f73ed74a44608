"""Unit tests for the outbound middleware stages."""

import random

from repro.net.message import Message
from repro.net.middleware import (
    BATCH_KIND,
    FaultInjectionStage,
    KindMetricsStage,
    MiddlewareStage,
    SpatialBatchingStage,
)
from repro.net.network import Network
from repro.net.node import Node, handles
from repro.sim.kernel import Simulator


class Receiver(Node):
    def __init__(self, name="rx"):
        super().__init__(name)
        self.received: list[Message] = []

    @handles("data", "matrix.forward")
    def _on_data(self, message):
        self.received.append(message)


class Sender(Node):
    def __init__(self, name="tx"):
        super().__init__(name)


def pair():
    sim = Simulator()
    network = Network(sim)
    tx = Sender()
    rx = Receiver()
    network.add_node(tx)
    network.add_node(rx)
    return sim, network, tx, rx


class Tag(MiddlewareStage):
    """Appends its label to a list payload on the way out."""

    def __init__(self, label):
        super().__init__()
        self.label = label

    def on_outbound(self, message):
        message.payload.append(f"out:{self.label}")
        return message


def test_pipeline_is_an_onion():
    sim, network, tx, rx = pair()
    tx.use(Tag("outer"))
    tx.use(Tag("inner"))
    trace: list[str] = []
    tx.send("rx", "data", trace, size_bytes=8)
    # Outbound runs innermost stage first, wire-side stage last.
    assert trace == ["out:inner", "out:outer"]


def test_stage_can_consume_outbound():
    class DropAll(MiddlewareStage):
        def on_outbound(self, message):
            return None

    sim, network, tx, rx = pair()
    tx.use(DropAll())
    tx.send("rx", "data", [], size_bytes=8)
    sim.run(until=1.0)
    assert rx.received == []
    assert network.stats.total.messages == 0


def test_kind_metrics_counts_outbound():
    sim, network, tx, rx = pair()
    metrics_tx = tx.use(KindMetricsStage())
    for _ in range(3):
        tx.send("rx", "data", [], size_bytes=100)
    sim.run(until=1.0)
    assert metrics_tx.outbound["data"].messages == 3
    assert metrics_tx.outbound["data"].bytes == 300


def test_a_stage_answers_its_kinds_from_the_handler_table():
    """``use`` adopts the stage: a batch is unpacked by the batching
    stage's ``net.batch`` handler, and a stage with no ``@handles``
    method adds nothing to the table."""
    sim, network, tx, rx = pair()
    kinds = set(rx._handlers)
    rx.use(KindMetricsStage())
    assert set(rx._handlers) == kinds
    batching = rx.use(SpatialBatchingStage())
    assert set(rx._handlers) == kinds | {BATCH_KIND}
    assert rx._handlers[BATCH_KIND] == batching._on_batch


def test_fault_injection_drops_and_duplicates():
    sim, network, tx, rx = pair()
    stage = tx.use(
        FaultInjectionStage(
            rng=random.Random(42), drop_rate=0.5, kinds=("data",)
        )
    )
    for _ in range(200):
        tx.send("rx", "data", [], size_bytes=8)
    sim.run(until=5.0)
    assert stage.dropped > 50
    assert len(rx.received) == 200 - stage.dropped

    sim2, network2, tx2, rx2 = pair()
    dup = tx2.use(
        FaultInjectionStage(
            rng=random.Random(42), duplicate_rate=0.5, kinds=("data",)
        )
    )
    for _ in range(100):
        tx2.send("rx", "data", [], size_bytes=8)
    sim2.run(until=5.0)
    assert dup.duplicated > 20
    assert len(rx2.received) == 100 + dup.duplicated


def test_fault_injection_ignores_other_kinds():
    sim, network, tx, rx = pair()
    tx.use(
        FaultInjectionStage(
            rng=random.Random(1), drop_rate=1.0, kinds=("matrix.forward",)
        )
    )
    tx.send("rx", "data", [], size_bytes=8)
    sim.run(until=1.0)
    assert len(rx.received) == 1


def test_batching_aggregates_same_destination():
    sim, network, tx, rx = pair()
    tx.use(SpatialBatchingStage())
    rx.use(SpatialBatchingStage())
    for i in range(4):
        tx.send("rx", "matrix.forward", f"p{i}", size_bytes=64)
    sim.run(until=1.0)
    # One wire message carried all four packets...
    assert network.stats.by_kind[BATCH_KIND].messages == 1
    assert network.stats.by_kind["matrix.forward"].messages == 0
    # ...and the receiver's handler saw each packet individually.
    assert [m.payload for m in rx.received] == ["p0", "p1", "p2", "p3"]
    assert all(m.size_bytes == 64 for m in rx.received)


def test_batching_single_message_goes_out_unwrapped():
    sim, network, tx, rx = pair()
    tx.use(SpatialBatchingStage())
    rx.use(SpatialBatchingStage())
    tx.send("rx", "matrix.forward", "solo", size_bytes=64)
    sim.run(until=1.0)
    assert network.stats.by_kind[BATCH_KIND].messages == 0
    assert network.stats.by_kind["matrix.forward"].messages == 1
    assert [m.payload for m in rx.received] == ["solo"]


def test_batching_separates_destinations_and_windows():
    sim = Simulator()
    network = Network(sim)
    tx = Sender()
    rx1 = Receiver("rx")
    rx2 = Receiver("rx2")
    for node in (tx, rx1, rx2):
        network.add_node(node)
        node.use(SpatialBatchingStage())
    # Window 1: two to rx, two to rx2.  Window 2: two more to rx.
    for i in range(2):
        tx.send("rx", "matrix.forward", f"a{i}", size_bytes=64)
        tx.send("rx2", "matrix.forward", f"b{i}", size_bytes=64)
    sim.at(0.2, lambda: [
        tx.send("rx", "matrix.forward", f"c{i}", size_bytes=64)
        for i in range(2)
    ])
    sim.run(until=1.0)
    assert network.stats.by_kind[BATCH_KIND].messages == 3
    assert [m.payload for m in rx1.received] == ["a0", "a1", "c0", "c1"]
    assert [m.payload for m in rx2.received] == ["b0", "b1"]


def test_batching_leaves_control_kinds_alone():
    sim, network, tx, rx = pair()
    tx.use(SpatialBatchingStage())
    tx.send("rx", "data", "ctl", size_bytes=8)
    sim.run(until=1.0)
    assert [m.payload for m in rx.received] == ["ctl"]
    assert network.stats.by_kind[BATCH_KIND].messages == 0


def test_kind_rewrite_mid_walk_reaches_the_remaining_stages():
    """A stage rewriting a message's kind must not hide the message
    from the stages after it: they see the kind it has *now*."""

    class Rewriter(MiddlewareStage):
        def on_outbound(self, message):
            return Message(
                src=message.src,
                dst=message.dst,
                kind="rewritten",
                payload=message.payload,
                size_bytes=message.size_bytes,
            )

    class OnlyRewritten(MiddlewareStage):
        def __init__(self):
            super().__init__()
            self.seen = []

        def on_outbound(self, message):
            if message.kind == "rewritten":
                self.seen.append(message.kind)
            return message

    sim, network, tx, rx = pair()
    # Outbound runs innermost (last installed) first: Rewriter rewrites
    # "data" -> "rewritten", then the wire-side stage, which ignores
    # "data", must see it.
    watcher = tx.use(OnlyRewritten())
    tx.use(Rewriter())
    tx.send("rx", "data", [], size_bytes=8)
    assert watcher.seen == ["rewritten"]
    assert network.stats.by_kind["rewritten"].messages == 1


def test_stage_installed_after_traffic_sees_the_next_message():
    sim, network, tx, rx = pair()
    tx.send("rx", "data", [], size_bytes=8)  # before any stage exists
    metrics = tx.use(KindMetricsStage())
    tx.send("rx", "data", [], size_bytes=8)
    assert metrics.outbound["data"].messages == 1
