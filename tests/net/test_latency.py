"""Tests for latency models."""

import random

import pytest

from repro.net.latency import (
    ConstantLatency,
    NormalLatency,
    UniformLatency,
    lan,
    loopback,
    wan,
)

RNG = random.Random(0)


def test_constant():
    model = ConstantLatency(0.01)
    assert model.sample(RNG) == 0.01


def test_constant_rejects_negative():
    with pytest.raises(ValueError):
        ConstantLatency(-0.1)


def test_uniform_within_bounds():
    model = UniformLatency(0.001, 0.002)
    samples = [model.sample(RNG) for _ in range(500)]
    assert all(0.001 <= s <= 0.002 for s in samples)


def test_uniform_rejects_bad_range():
    with pytest.raises(ValueError):
        UniformLatency(0.002, 0.001)
    with pytest.raises(ValueError):
        UniformLatency(-0.001, 0.001)


def test_normal_truncated_at_floor():
    model = NormalLatency(mean=0.01, stddev=0.05, floor=0.001)
    samples = [model.sample(RNG) for _ in range(1000)]
    assert all(s >= 0.001 for s in samples)


def test_normal_validation():
    with pytest.raises(ValueError):
        NormalLatency(mean=0.0, stddev=0.01)
    with pytest.raises(ValueError):
        NormalLatency(mean=0.01, stddev=-1.0)


def test_preset_ordering():
    """loopback < lan < wan, by an order of magnitude each."""
    rng = random.Random(1)
    lo = max(loopback().sample(rng) for _ in range(100))
    la = max(lan().sample(rng) for _ in range(100))
    wa = min(wan().sample(rng) for _ in range(100))
    assert lo < la < wa


def test_wan_sane_for_gameplay():
    """WAN latencies stay under the 150 ms playability bound."""
    rng = random.Random(2)
    samples = [wan().sample(rng) for _ in range(2000)]
    assert sum(samples) / len(samples) == pytest.approx(0.025, rel=0.2)
    assert max(samples) < 0.150


class TestMinimum:
    """``minimum()`` is the sharded kernel's lookahead source: it must
    be a true lower bound on every sample the model can produce."""

    def test_constant_minimum_is_the_constant(self):
        assert ConstantLatency(0.01).minimum() == 0.01

    def test_uniform_minimum_is_the_low_bound(self):
        model = UniformLatency(0.001, 0.002)
        assert model.minimum() == 0.001
        assert all(model.sample(RNG) >= model.minimum() for _ in range(500))

    def test_normal_minimum_is_the_floor(self):
        model = NormalLatency(mean=0.01, stddev=0.05, floor=0.001)
        assert model.minimum() == 0.001
        assert all(model.sample(RNG) >= model.minimum() for _ in range(500))

    def test_base_minimum_is_conservative_zero(self):
        from repro.net.latency import LatencyModel

        class Opaque(LatencyModel):
            def sample(self, rng):
                return 42.0

        assert Opaque().minimum() == 0.0

    def test_preset_minimums_are_positive_and_ordered(self):
        assert 0.0 < loopback().minimum() < lan().minimum() < wan().minimum()
