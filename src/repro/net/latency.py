"""One-way latency models for simulated links.

The paper's testbed co-locates each game server with its Matrix server
(process-to-process on one host) and connects hosts over a LAN; clients
reach servers over consumer WAN paths.  The presets below encode those
three regimes with magnitudes from the paper's era (§2.2 cites 150 ms as
the playability ceiling).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod


class LatencyModel(ABC):
    """Samples one-way propagation latency in seconds."""

    #: What :meth:`sample` always returns, or ``None``.
    fixed: float | None = None

    @abstractmethod
    def sample(self, rng: random.Random) -> float:
        """Draw one latency value (seconds, ≥ 0)."""

    def minimum(self) -> float:
        """Smallest latency :meth:`sample` can ever return (seconds).

        The sharded kernel's conservative lookahead is the minimum
        one-way latency between nodes in different shards, so every
        model must state a hard lower bound on its samples.  The base
        implementation returns ``0.0`` — always safe (a zero lookahead
        makes the sharded engine refuse to run rather than miscompute),
        and overridden with a tight bound by every built-in model.
        """
        return 0.0


class ConstantLatency(LatencyModel):
    """Fixed latency; the default for deterministic unit tests."""

    def __init__(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"negative latency: {seconds}")
        self.fixed = seconds

    def sample(self, rng: random.Random) -> float:
        return self.fixed

    def minimum(self) -> float:
        return self.fixed


class UniformLatency(LatencyModel):
    """Uniformly distributed latency in ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if low < 0 or high < low:
            raise ValueError(f"bad latency range [{low}, {high}]")
        self._low = low
        self._high = high

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self._low, self._high)

    def minimum(self) -> float:
        return self._low


class NormalLatency(LatencyModel):
    """Gaussian latency, truncated at a positive floor.

    Models jittery WAN paths; the floor keeps samples physical.
    """

    def __init__(self, mean: float, stddev: float, floor: float = 1e-4) -> None:
        if mean <= 0 or stddev < 0 or floor < 0:
            raise ValueError("mean must be positive, stddev/floor non-negative")
        self._mean = mean
        self._stddev = stddev
        self._floor = floor

    def sample(self, rng: random.Random) -> float:
        return max(self._floor, rng.gauss(self._mean, self._stddev))

    def minimum(self) -> float:
        return self._floor


def loopback() -> LatencyModel:
    """Same-host IPC: game server ↔ co-located Matrix server (~50 µs)."""
    return ConstantLatency(50e-6)


def lan() -> LatencyModel:
    """Server-room LAN between Matrix servers (~0.2–0.5 ms)."""
    return UniformLatency(0.2e-3, 0.5e-3)


def wan() -> LatencyModel:
    """Consumer WAN client path (~25 ms ± 8 ms jitter)."""
    return NormalLatency(25e-3, 8e-3, floor=5e-3)
