"""Tests for periodic tasks."""

import pytest

from repro.sim import SimulationError, Simulator


def test_periodic_fires_at_interval():
    sim = Simulator()
    times = []
    sim.every(1.0, lambda: times.append(sim.now))
    sim.run(until=3.5)
    assert times == [1.0, 2.0, 3.0]


def test_periodic_with_explicit_start():
    sim = Simulator()
    times = []
    sim.every(1.0, lambda: times.append(sim.now), start=0.0)
    sim.run(until=2.5)
    assert times == [0.0, 1.0, 2.0]


def test_periodic_stop():
    sim = Simulator()
    times = []
    task = sim.every(1.0, lambda: times.append(sim.now))
    sim.after(2.5, task.stop)
    sim.run(until=10.0)
    assert times == [1.0, 2.0]


def test_periodic_self_stop_from_callback():
    sim = Simulator()
    times = []

    def cb():
        times.append(sim.now)
        if len(times) == 3:
            task.stop()

    task = sim.every(1.0, cb)
    sim.run(until=10.0)
    assert times == [1.0, 2.0, 3.0]


def test_periodic_fire_count():
    sim = Simulator()
    fired = []
    sim.every(0.5, lambda: fired.append(sim.now))
    sim.run(until=2.0)
    assert len(fired) == 4


def test_periodic_non_positive_interval_raises():
    with pytest.raises(SimulationError):
        Simulator().every(0.0, lambda: None)
