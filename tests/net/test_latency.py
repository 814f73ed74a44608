"""Tests for latency models."""

import random

import pytest
from hypothesis import given, settings, strategies as st

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
    assert model.sampler(RNG)() == 0.01


def test_constant_rejects_negative():
    with pytest.raises(ValueError):
        ConstantLatency(-0.1)


def test_uniform_within_bounds():
    model = UniformLatency(0.001, 0.002)
    draw = model.sampler(RNG)
    samples = [draw() for _ in range(500)]
    assert all(0.001 <= s <= 0.002 for s in samples)


def test_uniform_rejects_bad_range():
    with pytest.raises(ValueError):
        UniformLatency(0.002, 0.001)
    with pytest.raises(ValueError):
        UniformLatency(-0.001, 0.001)


def test_normal_truncated_at_floor():
    model = NormalLatency(mean=0.01, stddev=0.05, floor=0.001)
    draw = model.sampler(RNG)
    samples = [draw() for _ in range(1000)]
    assert all(s >= 0.001 for s in samples)


def test_normal_validation():
    with pytest.raises(ValueError):
        NormalLatency(mean=0.0, stddev=0.01)
    with pytest.raises(ValueError):
        NormalLatency(mean=0.01, stddev=-1.0)


def test_preset_ordering():
    """loopback < lan < wan, by an order of magnitude each."""
    rng = random.Random(1)
    lo = max(loopback().sampler(rng)() for _ in range(100))
    la = max(lan().sampler(rng)() for _ in range(100))
    wa = min(wan().sampler(rng)() for _ in range(100))
    assert lo < la < wa


def test_wan_sane_for_gameplay():
    """WAN latencies stay under the 150 ms playability bound."""
    rng = random.Random(2)
    draw = wan().sampler(rng)
    samples = [draw() for _ in range(2000)]
    assert sum(samples) / len(samples) == pytest.approx(0.025, rel=0.2)
    assert max(samples) < 0.150


positive = st.floats(1e-4, 1.0)
non_negative = st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    normals=st.lists(
        st.tuples(positive, non_negative, non_negative), min_size=2, max_size=2
    ),
    bounds=st.tuples(non_negative, non_negative).map(sorted),
    calls=st.lists(
        st.sampled_from(["normal0", "normal1", "uniform", "gauss", "random"]),
        max_size=300,
    ),
)
def test_draws_are_the_stdlib_calls_they_inline(seed, normals, bounds, calls):
    """Two Normal models and a Uniform one on one stream, interleaved with
    stdlib ``gauss`` and ``random`` calls, return what ``max(floor,
    gauss(...))`` and ``uniform(...)`` return on a twin stream, and leave
    it in the same state (the spare deviate included)."""
    rng, twin = random.Random(seed), random.Random(seed)
    low, high = bounds
    draws = {"uniform": UniformLatency(low, high).sampler(rng)}
    expected = {"uniform": lambda: twin.uniform(low, high)}
    for index, (mean, stddev, floor) in enumerate(normals):
        draws[f"normal{index}"] = NormalLatency(mean, stddev, floor).sampler(rng)
        expected[f"normal{index}"] = lambda m=mean, s=stddev, f=floor: max(
            f, twin.gauss(m, s)
        )
    draws["gauss"] = lambda: rng.gauss(0.5, 2.0)
    expected["gauss"] = lambda: twin.gauss(0.5, 2.0)
    draws["random"] = rng.random
    expected["random"] = twin.random
    for call in calls:
        assert draws[call]() == expected[call]()
    assert rng.getstate() == twin.getstate()


class TestMinimum:
    """``minimum()`` is the sharded kernel's lookahead source: it must
    be a true lower bound on every sample the model can produce."""

    def test_constant_minimum_is_the_constant(self):
        assert ConstantLatency(0.01).minimum() == 0.01

    def test_uniform_minimum_is_the_low_bound(self):
        model = UniformLatency(0.001, 0.002)
        assert model.minimum() == 0.001
        draw = model.sampler(RNG)
        assert all(draw() >= model.minimum() for _ in range(500))

    def test_normal_minimum_is_the_floor(self):
        model = NormalLatency(mean=0.01, stddev=0.05, floor=0.001)
        assert model.minimum() == 0.001
        draw = model.sampler(RNG)
        assert all(draw() >= model.minimum() for _ in range(500))

    def test_base_minimum_is_conservative_zero(self):
        from repro.net.latency import LatencyModel

        class Opaque(LatencyModel):
            def sampler(self, rng):
                return lambda: 42.0

        assert Opaque().minimum() == 0.0

    def test_preset_minimums_are_positive_and_ordered(self):
        assert 0.0 < loopback().minimum() < lan().minimum() < wan().minimum()
