"""Unit tests for the perf instruments and registry."""

import pytest

from repro.perf import PerfRegistry
from repro.perf.instruments import PerfCounter, PerfTimer, TickSampler


def test_counter_counts_and_accumulates():
    counter = PerfCounter("c")
    counter.inc()
    counter.inc(3)
    counter.add(128.0)
    assert counter.count == 5
    assert counter.value == 128.0
    assert counter.snapshot() == {"count": 5, "value": 128.0}


def test_timer_statistics():
    timer = PerfTimer("t")
    for elapsed in (0.002, 0.004, 0.006):
        timer.record(elapsed)
    assert timer.count == 3
    assert timer.total == pytest.approx(0.012)
    assert timer.mean == pytest.approx(0.004)
    assert timer.min == pytest.approx(0.002)
    assert timer.max == pytest.approx(0.006)
    assert timer.percentile(50) == pytest.approx(0.004)
    snap = timer.snapshot()
    assert snap["count"] == 3
    assert snap["p99_us"] == pytest.approx(6000.0)


def test_timer_sample_reservoir_is_bounded():
    timer = PerfTimer("t", max_samples=4)
    for _ in range(10):
        timer.record(0.001)
    assert timer.count == 10
    assert len(timer.samples) == 4


def test_sampler_records_and_caps():
    sampler = TickSampler("s", max_samples=3)
    for i in range(5):
        sampler.record(float(i), float(i) * 2)
    assert sampler.times == [0.0, 1.0, 2.0]
    assert sampler.values == [0.0, 2.0, 4.0]
    assert sampler.snapshot() == {
        "count": 3, "min": 0.0, "mean": 2.0, "max": 4.0,
    }


def test_registry_shares_instruments_by_name():
    registry = PerfRegistry()
    a = registry.counter("net.messages")
    b = registry.counter("net.messages")
    assert a is b
    assert registry.timer("sim.step") is registry.timer("sim.step")
    assert registry.sampler("queue") is registry.sampler("queue")


def test_registry_snapshot_is_sorted_and_complete():
    registry = PerfRegistry()
    registry.counter("b").inc()
    registry.counter("a").inc()
    registry.timer("t").record(0.001)
    registry.sampler("s").record(0.0, 1.0)
    snap = registry.snapshot()
    assert list(snap["counters"]) == ["a", "b"]
    assert set(snap) == {"counters", "timers", "samplers"}
    assert snap["timers"]["t"]["count"] == 1

