"""A deterministic budget for the per-message path.

Counts Python ``call`` events (``sys.setprofile``) from ``Node.send``
to the handler's return, over 1 000 messages between two bare nodes on
a WAN-style link.  The count repeats exactly, so it guards the
per-message cost in tier-1 without a clock.  Only the uninstrumented
path (``Network(perf=None)``) has a budget.  docs/ARCHITECTURE.md,
"The life of a message", names the frames.
"""

import gc
import random
import sys

import pytest

from repro.net import LinkProfile, Network, Node, NormalLatency, handles
from repro.sim import Simulator

MESSAGES = 1000


class Sink(Node):
    received = 0

    @handles("probe")
    def _on_probe(self, message):
        self.received += 1


def frames_per_message(service_rate):
    sim = Simulator()
    network = Network(
        sim,
        rng=random.Random(1),
        default_profile=LinkProfile(NormalLatency(25e-3, 8e-3, floor=5e-3), 1.25e6),
    )
    source = network.add_node(Sink("a"))
    sink = network.add_node(Sink("b", service_rate=service_rate))
    # First use fills the profile memo, the handler cache and the two
    # stats entries; the budget is for the steady state.
    source.send("b", "probe", None, 100)
    sim.run()

    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # A collection would call whatever ``gc.callbacks`` other tests'
    # libraries installed (hypothesis has one) inside the counted window.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        for _ in range(MESSAGES):
            source.send("b", "probe", None, 100)
        sim.run()
    finally:
        sys.setprofile(None)
        if gc_was_enabled:
            gc.enable()
    assert sink.received == MESSAGES + 1
    return calls / MESSAGES


@pytest.mark.parametrize(
    "service_rate, budget",
    [(float("inf"), 14), (500.0, 18)],
    ids=["idle", "queued"],
)
def test_frames_from_send_to_handler(service_rate, budget):
    frames = frames_per_message(service_rate)
    assert frames == frames_per_message(service_rate)  # repeats exactly
    assert frames <= budget
