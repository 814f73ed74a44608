"""Time-series collection for experiment metrics."""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class TimeSeries:
    """An append-only series of ``(time, value)`` samples."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: list[float] = []
        self._values: list[float] = []

    def __len__(self) -> int:
        return len(self._times)

    def append(self, time: float, value: float) -> None:
        """Record one sample; times must be non-decreasing."""
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"out-of-order sample at t={time} (last {self._times[-1]})"
            )
        self._times.append(time)
        self._values.append(value)

    @property
    def times(self) -> list[float]:
        """Sample times (copy)."""
        return list(self._times)

    @property
    def values(self) -> list[float]:
        """Sample values (copy)."""
        return list(self._values)

    def at(self, time: float) -> float:
        """Step-interpolated value at *time* (last sample ≤ time)."""
        if not self._times:
            raise ValueError("empty series")
        index = bisect_right(self._times, time) - 1
        if index < 0:
            return self._values[0]
        return self._values[index]

    def max(self) -> float:
        """Largest sample value."""
        if not self._values:
            raise ValueError("empty series")
        return max(self._values)

    def last(self) -> float:
        """Most recent sample value."""
        if not self._values:
            raise ValueError("empty series")
        return self._values[-1]

    def argmax(self) -> float:
        """Time of the largest sample."""
        if not self._values:
            raise ValueError("empty series")
        best = max(range(len(self._values)), key=lambda i: self._values[i])
        return self._times[best]


class Sampler:
    """Samples named probes on a fixed period into :class:`TimeSeries`.

    Probes may appear mid-run (servers spawned by splits register their
    probes lazily via the ``discover`` hook).
    """

    def __init__(
        self,
        sim: "Simulator",
        period: float,
        discover: Callable[[], dict[str, Callable[[], float]]],
    ) -> None:
        self._sim = sim
        self._discover = discover
        self.series: dict[str, TimeSeries] = {}
        #: The sampling task (``task.stop()`` ends sampling).
        self.task = sim.every(period, self._sample, start=0.0)

    def _sample(self) -> None:
        for name, probe in self._discover().items():
            series = self.series.get(name)
            if series is None:
                series = TimeSeries(name)
                self.series[name] = series
            series.append(self._sim.now, float(probe()))
