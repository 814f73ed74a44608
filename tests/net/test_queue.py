"""Tests for the finite-service-rate receive queue."""

import pytest

from repro.net import Message, ReceiveQueue
from repro.sim import Simulator


def make_message(i=0, size=100):
    return Message(src="a", dst="b", kind="test", payload=i, size_bytes=size)


def miss(message):
    """The path for a kind the table lacks: every test kind is in it."""
    raise AssertionError(f"{message.kind!r} missed the handler table")


def test_infinite_rate_services_immediately():
    sim = Simulator()
    handled = []
    queue = ReceiveQueue(sim, miss, {"test": handled.append})
    queue.deliver(make_message(1))
    assert [m.payload for m in handled] == [1]
    assert queue.length == 0


def test_finite_rate_delays_service():
    sim = Simulator()
    handled = []
    queue = ReceiveQueue(
        sim, miss, {"test": lambda m: handled.append(sim.now)}, service_rate=10.0
    )
    queue.deliver(make_message())
    assert handled == []
    sim.run()
    assert handled == [pytest.approx(0.1)]


def test_length_counts_the_message_in_service():
    """At a finite rate the message in service stays queued until its
    period ends (Fig 2b samples ``length``); an idle immediate queue
    never reads above 0 outside its handler."""
    sim = Simulator()
    queue = ReceiveQueue(sim, miss, {"test": lambda m: None}, service_rate=10.0)
    seen = [queue.length]
    queue.deliver(make_message())
    seen.append(queue.length)
    sim.at(0.05, lambda: seen.append(queue.length))
    sim.at(0.1, lambda: seen.append(queue.length))  # after the service ends
    sim.run()
    assert seen == [0, 1, 1, 0]
    assert queue.peak_length == 1

    immediate = ReceiveQueue(sim, miss, {"test": lambda m: None})
    for i in range(3):
        immediate.deliver(make_message(i))
        assert immediate.length == 0
    assert immediate.serviced_count == 3


def test_queue_builds_under_overload():
    sim = Simulator()
    queue = ReceiveQueue(sim, miss, {"test": lambda m: None}, service_rate=10.0)
    # 100 arrivals at t=0; service rate 10/s -> after 1s, ~90 remain.
    for i in range(100):
        queue.deliver(make_message(i))
    sim.run(until=1.0)
    assert 85 <= queue.length <= 91
    assert queue.peak_length == 100


def test_queue_drains_in_fifo_order():
    sim = Simulator()
    order = []
    queue = ReceiveQueue(
        sim, miss, {"test": lambda m: order.append(m.payload)}, service_rate=100.0
    )
    for i in range(5):
        queue.deliver(make_message(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_capacity_drops_excess():
    sim = Simulator()
    queue = ReceiveQueue(
        sim, miss, {"test": lambda m: None}, service_rate=1.0, capacity=10
    )
    for i in range(25):
        queue.deliver(make_message(i))
    # The message in service still occupies its queue slot, so 10 fit.
    assert queue.dropped_count == 15
    sim.run(until=1.0)


def test_serviced_count():
    sim = Simulator()
    queue = ReceiveQueue(sim, miss, {"test": lambda m: None}, service_rate=10.0)
    for i in range(5):
        queue.deliver(make_message(i))
    sim.run()
    assert queue.serviced_count == 5
    assert queue.length == 0


def test_set_service_rate_speeds_drain():
    sim = Simulator()
    queue = ReceiveQueue(sim, miss, {"test": lambda m: None}, service_rate=1.0)
    for i in range(50):
        queue.deliver(make_message(i))
    sim.after(1.0, lambda: queue.set_service_rate(1000.0))
    # The service period already in flight finishes at the old rate;
    # everything after drains at the new rate.
    sim.run(until=3.0)
    assert queue.length == 0


def test_non_positive_rate_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        ReceiveQueue(sim, miss, {"test": lambda m: None}, service_rate=0.0)
    queue = ReceiveQueue(sim, miss, {"test": lambda m: None}, service_rate=1.0)
    with pytest.raises(ValueError):
        queue.set_service_rate(-1.0)


def test_negative_message_size_rejected():
    with pytest.raises(ValueError):
        Message(src="a", dst="b", kind="k", payload=None, size_bytes=-1)


def test_infinite_rate_fast_path_keeps_counters_exact():
    """The in-place service fast path must report the same counters the
    general enqueue/dequeue path would have."""
    sim = Simulator()
    handled = []
    queue = ReceiveQueue(sim, miss, {"test": handled.append})
    for i in range(3):
        queue.deliver(make_message(i))
    assert [m.payload for m in handled] == [0, 1, 2]
    assert queue.serviced_count == 3
    assert queue.peak_length == 1  # each message transiently occupied it
    assert queue.length == 0
    assert queue.dropped_count == 0
    assert queue.arrivals == 3
    assert queue._queue is None  # nothing ever waited


def test_infinite_rate_fast_path_drains_reentrant_deliveries():
    sim = Simulator()
    handled = []
    queue = None

    def handler(message):
        handled.append(message.payload)
        if message.payload == 0:
            queue.deliver(make_message(1))  # delivered mid-service

    queue = ReceiveQueue(sim, miss, {"test": handler})
    queue.deliver(make_message(0))
    assert handled == [0, 1]
    assert queue.serviced_count == 2
    # The delivery made inside the handler allocated the deque; the
    # fast path re-read it and drained it in the same call.
    assert (queue.arrivals, queue.length, queue.peak_length) == (2, 0, 1)
    assert queue._queue is not None and sim.pending_events == 0


def test_zero_capacity_queue_still_drops():
    sim = Simulator()
    handled = []
    queue = ReceiveQueue(sim, miss, {"test": handled.append}, capacity=0)
    queue.deliver(make_message(0))
    assert handled == []
    assert queue.dropped_count == 1


def test_switch_to_infinite_rate_mid_backlog_drains_in_place():
    """finite -> inf: the service period in flight completes at the old
    rate, then the whole backlog is serviced at that instant — once
    each, in order, iteratively (a 5 000-deep backlog must not recurse)."""
    sim = Simulator()
    handled = []
    queue = ReceiveQueue(
        sim,
        miss,
        {"test": lambda m: handled.append((m.payload, sim.now))},
        service_rate=10.0,
    )
    for i in range(5000):
        queue.deliver(make_message(i))
    sim.after(0.25, lambda: queue.set_service_rate(float("inf")))
    sim.run()
    assert [payload for payload, _ in handled] == list(range(5000))
    assert [t for _, t in handled[:3]] == [
        pytest.approx(0.1), pytest.approx(0.2), pytest.approx(0.3)
    ]
    assert {t for _, t in handled[3:]} == {handled[2][1]}
    assert queue.serviced_count == 5000
    assert queue.length == 0
    # Idle again, and now immediate: the next arrival is serviced in place.
    queue.deliver(make_message(-1))
    assert handled[-1] == (-1, sim.now)
    assert sim.pending_events == 0


def test_switch_to_finite_rate_mid_backlog_starts_scheduling():
    """inf -> finite: a backlog only exists on an immediate queue while
    its handler runs, so the switch happens there; what the handler
    queued re-entrantly is then serviced one per period."""
    sim = Simulator()
    handled = []

    def handler(message):
        handled.append((message.payload, sim.now))
        if message.payload == 0:
            for i in (1, 2, 3):
                queue.deliver(make_message(i))
            queue.set_service_rate(4.0)

    queue = ReceiveQueue(sim, miss, {"test": handler})
    queue.deliver(make_message(0))
    assert handled == [(0, 0.0)]
    assert queue.length == 3
    sim.run()
    assert handled == [(0, 0.0), (1, 0.25), (2, 0.5), (3, 0.75)]
    assert queue.serviced_count == 4
    # Back to immediate while idle: in place again.
    queue.set_service_rate(float("inf"))
    queue.deliver(make_message(4))
    assert handled[-1] == (4, 0.75)
    assert queue.length == 0


# ----------------------------------------------------------------------
# The same contract on a queue whose deque does not exist yet.  An
# infinite-rate queue allocates its FIFO the first time a message has
# to wait, so each case below also runs on an in-place queue that never
# waited (``_queue is None``) beside one that has.
# ----------------------------------------------------------------------
STATES = pytest.mark.parametrize("state", ["never-waited", "waited", "finite"])


def queue_in(state, sim, handler):
    """A fresh queue in *state*, with one message already serviced.

    ``never-waited``: infinite rate, the message serviced in place, no
    deque.  ``waited``: infinite rate, and that message's handler made a
    re-entrant delivery, so an (empty) deque exists.  ``finite``: 10
    messages/s, the message serviced at 0.1 s.
    """
    reentered = []

    def first(message):
        if state == "waited" and not reentered:
            reentered.append(True)
            queue.deliver(make_message(-2))
        elif message.payload >= 0:
            handler(message)

    rate = 10.0 if state == "finite" else float("inf")
    queue = ReceiveQueue(sim, miss, {"test": first}, service_rate=rate)
    queue.deliver(make_message(-1))
    sim.run()
    assert (queue._queue is None) == (state == "never-waited")
    assert (queue.arrivals, queue.length) == (1 + len(reentered), 0)
    return queue


class Returns:
    """A network stand-in: what a detached queue hands back."""

    def __init__(self):
        self.returned = []

    def _arrive_detached(self, message, name, sim):
        self.returned.append((name, message.payload))


@STATES
def test_halt_discards_the_backlog_and_refuses_later_arrivals(state):
    sim = Simulator()
    handled = []
    queue = queue_in(state, sim, handled.append)
    before = queue.arrivals
    for i in range(3):
        queue.deliver(make_message(i))
    serviced = len(handled)  # 3 in place, 0 at a finite rate
    queue.halt()
    queue.deliver(make_message(3))
    sim.run()
    assert len(handled) == serviced == (0 if state == "finite" else 3)
    assert queue.length == 0
    assert queue.arrivals == before + 4


def test_halt_inside_the_handler_discards_what_it_delivered():
    sim = Simulator()
    handled = []

    def handler(message):
        handled.append(message.payload)
        if message.payload == 0:
            queue.deliver(make_message(1))
            queue.halt()

    queue = ReceiveQueue(sim, miss, {"test": handler})
    queue.deliver(make_message(0))
    queue.deliver(make_message(2))
    assert handled == [0]
    assert (queue.arrivals, queue.length, queue.serviced_count) == (3, 0, 1)


@STATES
def test_detach_hands_later_arrivals_back_and_drains_the_backlog(state):
    sim = Simulator()
    handled = []
    network = Returns()
    queue = queue_in(state, sim, lambda m: handled.append(m.payload))
    for i in range(2):
        queue.deliver(make_message(i))
    queue.detach(network, "b")
    arrivals = queue.arrivals
    queue.deliver(make_message(2))
    sim.run()
    assert handled == [0, 1]  # a removed node still drains its backlog
    assert network.returned == [("b", 2)]
    assert queue.arrivals == arrivals
    assert queue.length == 0


@STATES
@pytest.mark.parametrize("where", ["idle", "handler"])
def test_switch_to_finite_rate_with_arrivals_pending(state, where):
    """inf (or 10/s) -> 4/s, made while idle or by the handler of an
    arrival that delivers three more: those three wait their turn."""
    sim = Simulator()
    handled = []

    def handler(message):
        handled.append((message.payload, sim.now))
        if message.payload == 0:
            for i in (1, 2, 3):
                queue.deliver(make_message(i))
            if where == "handler":
                queue.set_service_rate(4.0)
            assert queue.length == 3

    queue = queue_in(state, sim, handler)
    start = sim.now
    if where == "idle":
        queue.set_service_rate(4.0)
    queue.deliver(make_message(0))
    sim.run()
    # Message 0 is serviced at the rate it arrived at.
    first = start + {"idle": 0.25, "handler": 0.1 if state == "finite" else 0.0}[where]
    assert handled == [
        (0, pytest.approx(first)),
        (1, pytest.approx(first + 0.25)),
        (2, pytest.approx(first + 0.5)),
        (3, pytest.approx(first + 0.75)),
    ]
    assert queue.length == 0
    assert queue.peak_length >= 3
    assert queue.arrivals == queue.serviced_count
