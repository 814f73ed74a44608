"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import SimulationError, Simulator


def test_initial_time_is_zero():
    assert Simulator().now == 0.0


def test_after_fires_at_relative_time():
    sim = Simulator()
    fired = []
    sim.after(1.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.5]


def test_at_fires_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.at(3.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [3.0]


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.after(2.0, lambda: order.append("b"))
    sim.after(1.0, lambda: order.append("a"))
    sim.after(3.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.at(1.0, lambda i=i: order.append(i))
    sim.run()
    assert order == list(range(10))


def test_same_instant_events_fire_in_schedule_order_across_at_after_every():
    """``(time, seq)`` is the whole ordering key: whichever method made
    the schedule, same-instant events fire in the order they were made."""
    sim = Simulator()
    order = []
    sim.after(1.0, lambda: order.append("after"))
    task = sim.every(1.0, lambda: order.append("every"))
    sim.at(1.0, order.append, "arg")
    sim.at(1.0, lambda: order.append("at"))
    sim.run(until=1.0)
    task.stop()
    assert order == ["after", "every", "arg", "at"]


def test_scheduling_in_past_raises():
    sim = Simulator()
    sim.after(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(0.5, lambda: None)


def test_negative_delay_raises():
    with pytest.raises(SimulationError):
        Simulator().after(-1.0, lambda: None)


def test_run_until_advances_clock_to_until():
    sim = Simulator()
    sim.after(1.0, lambda: None)
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_does_not_fire_later_events():
    sim = Simulator()
    fired = []
    sim.after(5.0, lambda: fired.append("late"))
    sim.run(until=2.0)
    assert fired == []
    assert sim.pending_events == 1


def test_run_resumes_after_until():
    sim = Simulator()
    fired = []
    sim.after(5.0, lambda: fired.append(sim.now))
    sim.run(until=2.0)
    sim.run(until=10.0)
    assert fired == [5.0]


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    event = sim.after(1.0, lambda: fired.append(1))
    sim.cancel(event)
    sim.run()
    assert fired == []
    assert sim.pending_events == 0


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.after(1.0, lambda: None)
    sim.cancel(event)
    sim.cancel(event)
    assert sim.pending_events == 0


def live_heap_entries(sim):
    """Heap entries that will still fire: callback slot not ``None``."""
    return sum(1 for entry in sim._heap if entry[2] is not None)


def test_self_stopping_periodic_task_keeps_pending_count_exact():
    """``stop()`` from inside the task's own callback cancels an event
    that already fired; that must not be counted as a pending one."""
    sim = Simulator()
    task = sim.every(1.0, lambda: task.stop())
    sim.after(5.0, lambda: None)
    sim.after(6.0, lambda: None)
    sim.run(until=2.0)
    assert task.fire_count == 1
    assert sim.pending_events == live_heap_entries(sim) == 2
    sim.run()
    assert sim.pending_events == live_heap_entries(sim) == 0


@pytest.mark.parametrize("drive", ["run", "step", "instrumented"])
def test_late_cancel_of_a_fired_event_is_a_no_op(drive):
    from repro.perf import PerfRegistry

    sim = Simulator(perf=PerfRegistry() if drive == "instrumented" else None)
    fired = sim.after(1.0, lambda: None)
    sim.after(2.0, lambda: None)
    doomed = sim.after(3.0, lambda: None)
    if drive == "step":
        assert sim.step()
    else:
        sim.run(until=1.5)
    sim.cancel(fired)
    assert sim.pending_events == live_heap_entries(sim) == 2
    sim.cancel(doomed)
    sim.cancel(doomed)
    assert sim.pending_events == live_heap_entries(sim) == 1
    sim.run()
    assert sim.pending_events == live_heap_entries(sim) == 0


def test_stop_halts_run():
    sim = Simulator()
    fired = []
    sim.after(1.0, lambda: (fired.append(1), sim.stop()))
    sim.after(2.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1]


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def first():
        sim.after(1.0, lambda: fired.append("second"))

    sim.after(1.0, first)
    sim.run()
    assert fired == ["second"]
    assert sim.now == 2.0


def test_max_events_bound():
    sim = Simulator()
    count = []
    for i in range(10):
        sim.at(float(i), lambda: count.append(1))
    sim.run(max_events=3)
    assert len(count) == 3


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.at(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_reentrant_run_raises():
    sim = Simulator()
    errors = []

    def inner():
        try:
            sim.run()
        except SimulationError:
            errors.append(True)

    sim.after(1.0, inner)
    sim.run()
    assert errors == [True]


def test_zero_delay_event_fires_at_now():
    sim = Simulator()
    fired = []
    sim.after(0.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [0.0]


def test_arg_carrying_events_pass_payload_to_callback():
    sim = Simulator()
    got = []
    sim.after(1.0, got.append, arg="payload")
    sim.after(2.0, got.append, arg=None)  # None is a real argument
    sim.run()
    assert got == ["payload", None]


def test_arg_carrying_event_fires_via_step():
    sim = Simulator()
    got = []
    sim.after(1.0, got.append, arg=7)
    assert sim.step() is True
    assert got == [7]


def test_run_until_takes_events_up_to_the_limit_and_leaves_later_ones():
    sim = Simulator()
    fired = []
    sim.at(1.0, lambda: fired.append(sim.now))
    sim.at(3.0, lambda: fired.append(sim.now))
    sim.run(until=2.0)
    assert fired == [1.0]
    assert sim.pending_events == 1  # the t=3 event is untouched
    sim.run(until=2.0)
    assert fired == [1.0]
    sim.run()
    assert fired == [1.0, 3.0]
    assert sim.step() is False


def test_cancelled_head_is_skipped_and_pending_count_stays_exact():
    sim = Simulator()
    fired = []
    first = sim.at(1.0, lambda: fired.append(sim.now))
    sim.at(2.0, lambda: fired.append(sim.now))
    sim.cancel(first)
    assert sim.pending_events == live_heap_entries(sim) == 1
    assert sim.step() is True
    assert fired == [2.0]
    assert sim.pending_events == live_heap_entries(sim) == 0


def test_step_still_steps_after_stop():
    """``stop()`` ends the run it was called in; it is not a latch that
    keeps a later ``step()`` from stepping."""
    sim = Simulator()
    fired = []
    sim.after(1.0, lambda: (fired.append(1), sim.stop()))
    sim.after(2.0, lambda: fired.append(2))
    sim.after(3.0, lambda: fired.append(3))
    sim.run()
    assert fired == [1]
    assert sim.step() is True
    assert fired == [1, 2]
    sim.stop()
    assert sim.step() is True
    assert fired == [1, 2, 3]


def test_capped_run_leaves_the_clock_on_the_last_event_it_ran():
    """A run that ``max_events`` ended must not jump the clock to
    ``until`` over the events it did not run: the next run would have
    to set time back to reach them."""
    sim = Simulator()
    seen = []
    for t in (1.0, 2.0, 3.0):
        sim.at(t, lambda: seen.append(sim.now))
    sim.run(until=10.0, max_events=1)
    assert sim.now == 1.0
    assert sim.pending_events == 2
    sim.after(0.0, lambda: seen.append(sim.now))  # still legal at t=1
    sim.run(until=10.0)
    assert seen == sorted(seen) == [1.0, 1.0, 2.0, 3.0]
    assert sim.now == 10.0


def test_stopped_run_does_not_advance_to_until():
    sim = Simulator()
    sim.after(1.0, sim.stop)
    sim.after(2.0, lambda: None)
    sim.run(until=10.0)
    assert sim.now == 1.0


def test_instrumented_run_is_event_identical():
    from repro.perf import PerfRegistry

    def build(sim):
        order = []
        for i in range(100):
            sim.at(float(i % 7) * 0.5, lambda i=i: order.append(i))
        return order

    for run_args, expected_events in (
        ({}, 100),
        ({"until": 1.5}, 58),
        ({"max_events": 40}, 40),
        ({"until": 1.5, "max_events": 70}, 58),
    ):
        plain_sim = Simulator()
        plain = build(plain_sim)
        plain_sim.run(**run_args)

        perf = PerfRegistry(step_sample_every=3)
        inst_sim = Simulator(perf=perf)
        instrumented = build(inst_sim)
        inst_sim.run(**run_args)

        assert instrumented == plain
        assert (
            inst_sim.events_processed
            == plain_sim.events_processed
            == expected_events
        )
        assert inst_sim.now == plain_sim.now
        assert inst_sim.pending_events == plain_sim.pending_events
        assert perf.counters["sim.events"].count == expected_events
        # One timed event, then two untimed: every third event, from
        # the first, is a sample.
        samples = -(-expected_events // 3)
        assert perf.timers["sim.step"].count == samples
        pending = perf.samplers["sim.pending_events"]
        assert pending.times == [(i % 7) * 0.5 for i in plain[::3]]
        assert pending.values == [
            float(99 - k) for k in range(0, expected_events, 3)
        ]
        if not run_args:
            assert samples == 34
