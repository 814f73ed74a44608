"""Microbenchmark — registry dispatch vs a hand-written if/elif chain.

The middleware refactor replaced every node's ``if kind == ...`` chain
with a class-level dispatch table compiled by ``@handles`` and bound
into one handler table per node.  This bench measures the per-message
overhead of both approaches on the same handler workload — the chain
and the table lookup each as a plain function — plus the full
``handle_message`` path (inbound middleware + table) with an empty and
a metrics-bearing pipeline, so the cost of the spine is a recorded
number rather than folklore.
"""

from __future__ import annotations

import time

from common import record, record_json

from repro.net.message import Message
from repro.net.middleware import KindMetricsStage
from repro.net.network import Network
from repro.net.node import Node, handles
from repro.sim.kernel import Simulator

KINDS = [
    "game.spatial",
    "matrix.forward",
    "matrix.load",
    "mc.table",
    "matrix.gossip",
    "matrix.state.chunk",
    "matrix.ctl.reclaim_ack",
    "mc.reply",
]

MESSAGES_PER_ROUND = 200_000


class RegistryNode(Node):
    """Eight registry-dispatched handlers (a Matrix server's shape)."""

    def __init__(self, name: str = "registry") -> None:
        super().__init__(name)
        self.handled = 0

    @handles(*KINDS)
    def _on_any(self, message: Message) -> None:
        self.handled += 1


def make_chain():
    """The same workload hand-dispatched through an if/elif chain: a
    plain function, plus a reader of its count."""
    handled = 0

    def chain(message: Message) -> None:
        nonlocal handled
        kind = message.kind
        if kind == "game.spatial":
            handled += 1
        elif kind == "matrix.forward":
            handled += 1
        elif kind == "matrix.load":
            handled += 1
        elif kind == "mc.table":
            handled += 1
        elif kind == "matrix.gossip":
            handled += 1
        elif kind == "matrix.state.chunk":
            handled += 1
        elif kind == "matrix.ctl.reclaim_ack":
            handled += 1
        elif kind == "mc.reply":
            handled += 1

    return chain, lambda: handled


def _messages() -> list[Message]:
    return [
        Message(src="a", dst="b", kind=KINDS[i % len(KINDS)], payload=None,
                size_bytes=64)
        for i in range(MESSAGES_PER_ROUND)
    ]


def _time(callable_, messages) -> float:
    start = time.perf_counter()
    for message in messages:
        callable_(message)
    return time.perf_counter() - start


def test_dispatch_overhead():
    sim = Simulator()
    network = Network(sim)
    registry = RegistryNode()
    metered = RegistryNode("metered")
    network.add_node(registry)
    network.add_node(metered)
    metered.use(KindMetricsStage())
    chain, chain_handled = make_chain()
    handlers = registry._handlers

    def table(message: Message) -> None:
        handlers[message.kind](message)

    messages = _messages()
    # Warm-up (interning, attribute caches), then measure.
    for target in (chain, table, registry.handle_message, metered.handle_message):
        _time(target, messages[:1000])

    chain_s = _time(chain, messages)
    table_s = _time(table, messages)
    full_s = _time(registry.handle_message, messages)
    metered_s = _time(metered.handle_message, messages)

    per_msg = lambda s: s / MESSAGES_PER_ROUND * 1e9  # noqa: E731
    lines = [
        "M-dispatch: per-message dispatch cost (ns), lower is better",
        "",
        f"  if/elif chain (old spine):      {per_msg(chain_s):8.1f} ns",
        f"  handler table lookup only:      {per_msg(table_s):8.1f} ns",
        f"  handle_message, empty pipeline: {per_msg(full_s):8.1f} ns",
        f"  handle_message, kind metrics:   {per_msg(metered_s):8.1f} ns",
        "",
        f"  messages per round: {MESSAGES_PER_ROUND}",
        "  The registry must stay within ~2x of the hand-written chain;",
        "  the table lookup is the production hot path (the receive",
        "  queue calls the entry itself).",
    ]
    record("micro_dispatch_overhead", "\n".join(lines))
    record_json(
        "micro_dispatch_overhead",
        {"messages_per_round": MESSAGES_PER_ROUND},
        # Wall-clock readings: ``metrics`` holds deterministic values only.
        timing={
            "chain_ns_per_msg": per_msg(chain_s),
            "table_lookup_ns_per_msg": per_msg(table_s),
            "handle_message_ns_per_msg": per_msg(full_s),
            "handle_message_metrics_ns_per_msg": per_msg(metered_s),
        },
    )

    assert registry.handled >= MESSAGES_PER_ROUND
    assert chain_handled() >= MESSAGES_PER_ROUND
    # Dispatch must not regress into something pathological: allow a
    # generous factor over the chain to keep CI boxes from flaking.
    assert table_s < chain_s * 5.0
