"""A deterministic budget for the per-message path.

Counts Python ``call`` events (``sys.setprofile``) from ``Node.send``
to the handler's return, over 1 000 messages between two bare nodes on
a WAN-style link.  The count repeats exactly, so it guards the
per-message cost in tier-1 without a clock.  Only the uninstrumented
path (``Network(perf=None)``) has a budget.  docs/ARCHITECTURE.md,
"The life of a message", names the frames.  A sink carrying a
middleware stage takes the same frames: stages are outbound only (an
inbound stage walk cost two more, ``Node.handle_message`` and
``on_inbound``).

The sharded rows run the same two nodes on ``ShardedSimulator(2)`` +
``ShardedNetwork``: anchored on one lane (the route names the sending
lane, so the message is the plain path's push) and on two (the
hand-off to an outbox, then the barrier flush).  The engine with a
thread-local active lane behind accessor calls and per-lane accounting
slots (commit 3e29abb) cost 21.2 and 25.2 frames per message here.  The
barrier-round row counts calls per *window* instead: two lanes with one
self-rescheduling event each, so a window runs one event, its
``after`` and the drain — the round itself adds no frame.

The fan-out rows count calls per destination of an 8-way
``Node.multicast`` to bare sinks: one message and one network call for
the whole fan-out, then the draw, the arrival and the handler per
destination, 3.375 idle and 4.375 queued (budgets 3.5 / 4.5).  A
message and a ``transmit`` per destination read 5.125 / 6.125.  An
empty fan-out calls nothing past ``Node.multicast``.

Calls on CPython 3.11 after each rewrite: *entry* — the heap entry
became the event handle (no ``Event.__init__`` per schedule) and the
finite-rate queue started its service periods in place (no
``_start_next``); *route* — each ``(src, dst)`` got one resolved route
(no ``TrafficStats.record`` frame), the queue started calling the
``@handles`` method itself (no ``handle_message`` frame) and one
``transmit`` served both networks; *lane* — the route carries its
destination's lane (no hand-off frame for a same-lane send), and the
barrier loop reads heads inline, drains each lane through
``_run_plain`` and injects only after a window that crossed lanes (no
``_inject``, ``next_time``, ``run_window`` or barrier-hook frame per
round); *draw* — a jittered link's latency is one shared zero-argument
draw with ``Random.gauss`` inlined (no ``LatencyModel.sample`` frame in
front of the stdlib one); *arrive* — ``transmit``, the receive queue
and a periodic task push their heap entries themselves (no
``Simulator.after`` for an arrival or a service period) and an
arrival's callback is the destination's ``ReceiveQueue.deliver`` (no
``Network._deliver`` between the heap and the queue).  Every budget
fails at the column before the one that set it:

==========  ======  =====  =====  ====  ====  ======  ======
row         before  entry  route  lane  draw  arrive  budget
==========  ======  =====  =====  ====  ====  ======  ======
idle        12.0    11.0   9.0    9.0   8.0   6.0     6.5
queued      16.0    13.0   11.0   11.0  10.0  7.0     7.5
same-lane   13.1    12.1   10.1   9.0   8.0   6.0     6.5
cross-lane  15.1    14.1   10.1   10.0  9.0   8.0     8.5
round                      9.0    3.0   3.0   3.0     4
==========  ======  =====  =====  ====  ====  ======  ======
"""

import gc
import random
import sys
from functools import partial

import pytest

from repro.geometry import Rect, Vec2
from repro.geometry.sharding import ShardMap
from repro.net import LinkProfile, Network, Node, NormalLatency, handles
from repro.net.middleware import FaultInjectionStage
from repro.net.sharded import ShardedNetwork
from repro.sim import RngRegistry, Simulator
from repro.sim.sharded import ShardedSimulator

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


def frames_per_message(service_rate, staged=False):
    sim = Simulator()
    network = Network(sim, rng=random.Random(1), default_profile=WAN)
    source = network.add_node(Sink("a"))
    sink = network.add_node(Sink("b", service_rate=service_rate))
    if staged:
        sink.use(FaultInjectionStage(random.Random(2)))
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
    [(float("inf"), 6.5), (500.0, 7.5)],
    ids=["idle", "queued"],
)
def test_frames_from_send_to_handler(service_rate, budget):
    frames = frames_per_message(service_rate)
    assert frames == frames_per_message(service_rate)  # repeats exactly
    assert frames <= budget


@pytest.mark.parametrize(
    "service_rate", [float("inf"), 500.0], ids=["idle", "queued"]
)
def test_a_stage_adds_no_frame_to_the_receive_path(service_rate):
    """Middleware is outbound only: a node carrying a stage (a chaos
    ``LinkDegrade`` leaves one on every fault node) services a message
    in the frames of a bare node, with no stage walk in between."""
    assert frames_per_message(service_rate, staged=True) == (
        frames_per_message(service_rate)
    )


FAN_OUT = 8


def frames_per_fan_out_destination(service_rate):
    """Calls per destination of an 8-way fan-out to bare sinks."""
    sim = Simulator()
    network = Network(sim, rng=random.Random(1), default_profile=WAN)
    source = network.add_node(Sink("a"))
    names = [f"b{index}" for index in range(FAN_OUT)]
    sinks = [
        network.add_node(Sink(name, service_rate=service_rate))
        for name in names
    ]
    source.multicast(names, "probe", None, 100)  # fills the memos
    sim.run()

    def burst():
        for _ in range(MESSAGES):
            source.multicast(names, "probe", None, 100)
        sim.run()

    calls = count_calls(burst)
    assert all(sink.received == MESSAGES + 1 for sink in sinks)
    return calls / (MESSAGES * FAN_OUT)


@pytest.mark.parametrize(
    "service_rate, budget",
    [(float("inf"), 3.5), (500.0, 4.5)],
    ids=["idle", "queued"],
)
def test_frames_per_fan_out_destination(service_rate, budget):
    """A fan-out is one ``Node.multicast``, one ``Message.__init__`` and
    one network call; each destination then costs only the draw, the
    arrival and the handler (and the service period's ``_finish_one``
    on the queued path): 3.375 / 4.375.  A message and a ``transmit``
    per destination read 5.125 / 6.125."""
    frames = frames_per_fan_out_destination(service_rate)
    assert frames == frames_per_fan_out_destination(service_rate)
    assert frames <= budget


def test_an_empty_fan_out_calls_nothing():
    """No message is built and the network is not entered: the only
    call is ``Node.multicast`` itself."""
    network = Network(Simulator())
    source = network.add_node(Sink("a"))
    fan_out = partial(source.multicast, [], "probe", None, 100)
    assert count_calls(fan_out) == 1
    assert network.stats.by_kind == {}


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
    "sink_x, budget", [(20, 6.5), (90, 8.5)], ids=["same-lane", "cross-lane"]
)
def test_frames_from_send_to_handler_on_shard_lanes(sink_x, budget):
    frames = sharded_frames_per_message(sink_x)
    assert frames == sharded_frames_per_message(sink_x)  # repeats exactly
    assert frames <= budget


def calls_per_barrier_round():
    engine = ShardedSimulator(2, lookahead=0.1)
    # Lane 0 ticks at whole seconds, lane 1 half a second later: every
    # window holds exactly one event, and no window crosses lanes.
    for slot, start in ((0, 0.0), (1, 0.5)):
        lane = engine.lane(slot)

        def tick(lane=lane):
            lane.after(1.0, tick)

        lane.at(start, tick)
    engine.run(until=1.0)
    before = engine.windows_run
    calls = count_calls(lambda: engine.run(until=201.0))
    return calls / (engine.windows_run - before)


def test_calls_per_barrier_round():
    calls = calls_per_barrier_round()
    assert calls == calls_per_barrier_round()  # repeats exactly
    assert calls <= 4
