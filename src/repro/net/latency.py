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
from math import cos, log, sin, sqrt, tau
from typing import Callable


class LatencyModel(ABC):
    """Samples one-way propagation latency in seconds."""

    #: What every draw returns, or ``None``.
    fixed: float | None = None

    @abstractmethod
    def sampler(self, rng: random.Random) -> Callable[[], float]:
        """A zero-argument draw of one latency value (seconds, ≥ 0) from
        *rng*.  A packet pays one frame for it: the stdlib arithmetic is
        inlined, and every call advances *rng* exactly as the stdlib
        call it replaces would."""

    def minimum(self) -> float:
        """Smallest latency a draw can ever return (seconds).

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

    def sampler(self, rng: random.Random) -> Callable[[], float]:
        fixed = self.fixed
        return lambda: fixed

    def minimum(self) -> float:
        return self.fixed


class UniformLatency(LatencyModel):
    """Uniformly distributed latency in ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if low < 0 or high < low:
            raise ValueError(f"bad latency range [{low}, {high}]")
        self._low = low
        self._high = high

    def sampler(self, rng: random.Random) -> Callable[[], float]:
        """``rng.uniform(low, high)``, with ``high - low`` taken once."""
        low = self._low
        span = self._high - low
        unit = rng.random
        return lambda: low + span * unit()

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

    def sampler(self, rng: random.Random) -> Callable[[], float]:
        """``max(floor, rng.gauss(mean, stddev))``, the body of
        ``Random.gauss`` inlined: the spare normal deviate stays on
        *rng* (``gauss_next``), so another model or a stdlib ``gauss``
        on the same stream, and ``getstate()``, see what they would."""
        mean = self._mean
        stddev = self._stddev
        floor = self._floor
        unit = rng.random

        def draw() -> float:
            z = rng.gauss_next
            if z is None:
                x2pi = unit() * tau
                g2rad = sqrt(-2.0 * log(1.0 - unit()))
                z = cos(x2pi) * g2rad
                rng.gauss_next = sin(x2pi) * g2rad
            else:
                rng.gauss_next = None
            value = mean + z * stddev
            return value if value > floor else floor

        return draw

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
