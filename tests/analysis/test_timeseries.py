"""Tests for time series and the sampler."""

import pytest

from repro.analysis.timeseries import Sampler, TimeSeries
from repro.sim import Simulator


def series_of(pairs):
    s = TimeSeries("t")
    for t, v in pairs:
        s.append(t, v)
    return s


def test_append_and_accessors():
    s = series_of([(0.0, 1.0), (1.0, 5.0), (2.0, 3.0)])
    assert len(s) == 3
    assert s.max() == 5.0
    assert s.last() == 3.0
    assert s.argmax() == 1.0


def test_out_of_order_rejected():
    s = series_of([(1.0, 1.0)])
    with pytest.raises(ValueError):
        s.append(0.5, 2.0)


def test_equal_times_allowed():
    s = series_of([(1.0, 1.0)])
    s.append(1.0, 2.0)
    assert len(s) == 2


def test_at_step_interpolation():
    s = series_of([(0.0, 1.0), (10.0, 2.0)])
    assert s.at(0.0) == 1.0
    assert s.at(5.0) == 1.0
    assert s.at(10.0) == 2.0
    assert s.at(99.0) == 2.0
    assert s.at(-1.0) == 1.0  # before first sample: first value


def test_empty_series_raises():
    s = TimeSeries()
    for method in (s.max, s.last, s.argmax):
        with pytest.raises(ValueError):
            method()
    with pytest.raises(ValueError):
        s.at(0.0)


def test_sampler_collects_probes():
    sim = Simulator()
    counter = {"n": 0}

    def tick():
        counter["n"] += 1

    sim.every(0.5, tick)
    sampler = Sampler(sim, 1.0, lambda: {"n": lambda: counter["n"]})
    sim.run(until=5.0)
    series = sampler.series["n"]
    assert len(series) == 6  # t = 0..5
    assert series.values[-1] >= 8


def test_sampler_discovers_new_probes_mid_run():
    sim = Simulator()
    probes = {"a": lambda: 1.0}
    sampler = Sampler(sim, 1.0, lambda: dict(probes))
    sim.after(2.5, lambda: probes.__setitem__("b", lambda: 2.0))
    sim.run(until=5.0)
    assert len(sampler.series["a"]) == 6
    assert len(sampler.series["b"]) == 3  # t = 3, 4, 5


def test_sampler_stop():
    sim = Simulator()
    sampler = Sampler(sim, 1.0, lambda: {"x": lambda: 0.0})
    sim.after(2.5, sampler.task.stop)
    sim.run(until=10.0)
    assert len(sampler.series["x"]) == 3
