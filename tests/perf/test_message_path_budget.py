"""A deterministic budget for the per-message path.

Counts Python ``call`` events (``sys.setprofile``) from ``Node.send``
to the handler's return, over 1 000 messages between two bare nodes on
a WAN-style link.  The count repeats exactly, so it guards the
per-message cost in tier-1 without a clock.  Only the uninstrumented
path (``Network(perf=None)``) has a budget.  docs/ARCHITECTURE.md,
"The life of a message", names the frames.

The sharded rows run the same two nodes on ``ShardedSimulator(2)`` +
``ShardedNetwork``: anchored on one lane (the message is scheduled
straight onto it) and on two (outbox, barrier flush).  The engine with
a thread-local active lane behind accessor calls and per-lane
accounting slots (commit 3e29abb) cost 21.2 and 25.2 frames per
message here; the serial-lane engine costs one lane hand-off
(``ShardedNetwork._hand_off``) above the plain path plus the window
loop.

Frames per message on CPython 3.11.  The middle column is after the
heap entry became the event handle (no ``Event.__init__`` per
schedule) and the finite-rate queue started its service periods in
place (no ``_start_next``).  The last is after each ``(src, dst)``
got one resolved route (no ``TrafficStats.record`` frame) and the
queue started calling the ``@handles`` method itself (no
``handle_message`` frame); on lanes, one ``transmit`` serves both
networks and idle lanes skip their barrier work.  Every budget fails
at the middle column:

==========  ======  ======  =====  ======
row         before  middle  after  budget
==========  ======  ======  =====  ======
idle        12.0    11.0    9.0    10
queued      16.0    13.0    11.0   12
same-lane   13.1    12.1    10.1   11
cross-lane  15.1    14.1    10.1   11
==========  ======  ======  =====  ======
"""

import gc
import random
import sys

import pytest

from repro.geometry import Rect, Vec2
from repro.geometry.sharding import ShardMap
from repro.net import LinkProfile, Network, Node, NormalLatency, handles
from repro.net.sharded import ShardedNetwork
from repro.sim import RngRegistry, ShardedSimulator, Simulator

MESSAGES = 1000
WAN = LinkProfile(NormalLatency(25e-3, 8e-3, floor=5e-3), 1.25e6)


class Sink(Node):
    received = 0

    @handles("probe")
    def _on_probe(self, message):
        self.received += 1


def count_calls(run):
    """Python ``call`` events while *run()* executes."""
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
        run()
    finally:
        sys.setprofile(None)
        if gc_was_enabled:
            gc.enable()
    return calls


def frames_per_message(service_rate):
    sim = Simulator()
    network = Network(sim, rng=random.Random(1), default_profile=WAN)
    source = network.add_node(Sink("a"))
    sink = network.add_node(Sink("b", service_rate=service_rate))
    # First use fills the profile memo, the handler cache and the two
    # stats entries; the budget is for the steady state.
    source.send("b", "probe", None, 100)
    sim.run()

    def burst():
        for _ in range(MESSAGES):
            source.send("b", "probe", None, 100)
        sim.run()

    calls = count_calls(burst)
    assert sink.received == MESSAGES + 1
    return calls / MESSAGES


@pytest.mark.parametrize(
    "service_rate, budget",
    [(float("inf"), 10), (500.0, 12)],
    ids=["idle", "queued"],
)
def test_frames_from_send_to_handler(service_rate, budget):
    frames = frames_per_message(service_rate)
    assert frames == frames_per_message(service_rate)  # repeats exactly
    assert frames <= budget


def sharded_frames_per_message(sink_x):
    engine = ShardedSimulator(2)
    network = ShardedNetwork(
        engine,
        ShardMap(Rect(0, 0, 100, 100), 2),  # lanes: x < 50, x >= 50
        RngRegistry(seed=1),
        default_profile=WAN,
    )
    engine.lookahead = network.minimum_cross_latency()
    source, sink = Sink("a"), Sink("b")
    source.shard_anchor = Vec2(10, 50)
    sink.shard_anchor = Vec2(sink_x, 50)
    network.add_node(source)
    network.add_node(sink)

    def burst(messages):
        for _ in range(messages):
            source.send("b", "probe", None, 100)

    # Sends start inside a lane event, as a node's do; the first fills
    # the memos (see ``frames_per_message``).
    source.sim.at(0.0, burst, arg=1)
    engine.run(until=1.0)
    source.sim.at(1.0, burst, arg=MESSAGES)
    calls = count_calls(lambda: engine.run(until=2.0))
    assert sink.received == MESSAGES + 1
    assert network.cross_border_count == (MESSAGES + 1 if sink_x >= 50 else 0)
    return calls / MESSAGES


@pytest.mark.parametrize(
    "sink_x, budget", [(20, 11), (90, 11)], ids=["same-lane", "cross-lane"]
)
def test_frames_from_send_to_handler_on_shard_lanes(sink_x, budget):
    frames = sharded_frames_per_message(sink_x)
    assert frames == sharded_frames_per_message(sink_x)  # repeats exactly
    assert frames <= budget
