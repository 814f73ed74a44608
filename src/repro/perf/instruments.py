"""Cheap wall-clock instrumentation for the simulation hot paths.

Three instrument kinds, all owned by one :class:`PerfRegistry`:

* :class:`PerfCounter` — a monotonically increasing event count with an
  optional value accumulator (bytes, cells, cache hits).
* :class:`PerfTimer` — wall-clock duration accounting (count / total /
  min / max plus a bounded reservoir of raw samples for percentiles).
  Durations are *host* time (:func:`time.perf_counter`), never
  simulation time, so instrumenting a path cannot perturb a run.
* :class:`TickSampler` — an append-only series of ``(sim_time, value)``
  pairs recorded at simulation-driven instants.  Because samples are
  keyed by deterministic simulation state, two runs with the same seed
  produce identical sampler contents (asserted by tests).

Zero-overhead discipline
------------------------
Instrumented components hold ``perf: PerfRegistry | None`` and guard
every hook with ``if perf is not None``.  When profiling is off the
registry is simply absent: the disabled cost is one attribute load and
an identity check on the non-hot paths, and *nothing at all* inside the
kernel's event loop (the kernel selects an uninstrumented loop up
front — see :meth:`repro.sim.kernel.Simulator.run`).
"""

from __future__ import annotations

__all__ = [
    "PerfCounter",
    "PerfRegistry",
    "PerfTimer",
    "TickSampler",
]


class PerfCounter:
    """A named event count plus an optional accumulated value."""

    __slots__ = ("name", "count", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.value = 0.0

    def inc(self, n: int = 1) -> None:
        """Add *n* occurrences."""
        self.count += n

    def add(self, value: float) -> None:
        """Add one occurrence carrying *value* (bytes, cells, ...)."""
        self.count += 1
        self.value += value

    def snapshot(self) -> dict:
        """Plain-data view (stable keys; see docs/BENCHMARKS.md)."""
        return {"count": self.count, "value": self.value}


class PerfTimer:
    """Wall-clock duration statistics for one instrumented scope.

    The caller measures and hands each duration to :meth:`record` (the
    kernel's sampled loop is the one caller).  A bounded reservoir of
    raw durations is kept (first ``max_samples``) so reports can show
    p50/p99 without unbounded memory growth on long runs.
    """

    __slots__ = ("name", "count", "total", "min", "max", "samples", "_cap")

    def __init__(self, name: str, max_samples: int = 65536) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0
        self.samples: list[float] = []
        self._cap = max_samples

    def record(self, elapsed: float) -> None:
        """Record one measured duration in seconds."""
        self.count += 1
        self.total += elapsed
        if elapsed < self.min:
            self.min = elapsed
        if elapsed > self.max:
            self.max = elapsed
        if len(self.samples) < self._cap:
            self.samples.append(elapsed)

    @property
    def mean(self) -> float:
        """Mean duration in seconds (0 when never fired)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The *q*-th percentile of the sampled durations (seconds)."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        index = min(len(ordered) - 1, int(round((q / 100.0) * (len(ordered) - 1))))
        return ordered[index]

    def snapshot(self) -> dict:
        """Plain-data view (stable keys; see docs/BENCHMARKS.md)."""
        return {
            "count": self.count,
            "total_s": self.total,
            "mean_us": self.mean * 1e6,
            "min_us": (self.min if self.count else 0.0) * 1e6,
            "max_us": self.max * 1e6,
            "p50_us": self.percentile(50) * 1e6,
            "p99_us": self.percentile(99) * 1e6,
        }


class TickSampler:
    """A deterministic ``(sim_time, value)`` series.

    Values come from simulation state (queue lengths, live counts), so
    the recorded series depends only on the seed — never on wall time.
    """

    __slots__ = ("name", "times", "values", "_cap")

    def __init__(self, name: str, max_samples: int = 262144) -> None:
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []
        self._cap = max_samples

    def record(self, sim_time: float, value: float) -> None:
        """Append one sample (silently capped at ``max_samples``)."""
        if len(self.times) < self._cap:
            self.times.append(sim_time)
            self.values.append(value)

    def snapshot(self) -> dict:
        """Summary view: count plus min/mean/max of the values."""
        if not self.values:
            return {"count": 0, "min": 0.0, "mean": 0.0, "max": 0.0}
        return {
            "count": len(self.values),
            "min": min(self.values),
            "mean": sum(self.values) / len(self.values),
            "max": max(self.values),
        }


class PerfRegistry:
    """The per-run home of every counter, timer and sampler.

    One registry is created per instrumented experiment (by its
    backend, from ``perf=``) and threaded down through the simulator,
    network and geometry layers.  Every instrument it holds is one
    ``perfbench`` reads (asserted by tests).
    Instruments are created on first use under a dotted name
    (``layer.component.metric``) and shared by name afterwards, so two
    call sites naming the same counter accumulate into one cell.
    """

    def __init__(self) -> None:
        self.counters: dict[str, PerfCounter] = {}
        self.timers: dict[str, PerfTimer] = {}
        self.samplers: dict[str, TickSampler] = {}

    # ------------------------------------------------------------------
    # Instrument access (create-on-first-use)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> PerfCounter:
        """The counter registered under *name* (created if absent)."""
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = PerfCounter(name)
        return counter

    def timer(self, name: str) -> PerfTimer:
        """The timer registered under *name* (created if absent)."""
        timer = self.timers.get(name)
        if timer is None:
            timer = self.timers[name] = PerfTimer(name)
        return timer

    def sampler(self, name: str) -> TickSampler:
        """The sampler registered under *name* (created if absent)."""
        sampler = self.samplers.get(name)
        if sampler is None:
            sampler = self.samplers[name] = TickSampler(name)
        return sampler

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data dump of every instrument, sorted by name.

        A run's ``result.perf_snapshot`` holds it; ``perfbench``'s
        traced runs read their per-layer counts from it, so the keys
        are stable by contract.
        """
        return {
            "counters": {
                name: self.counters[name].snapshot()
                for name in sorted(self.counters)
            },
            "timers": {
                name: self.timers[name].snapshot()
                for name in sorted(self.timers)
            },
            "samplers": {
                name: self.samplers[name].snapshot()
                for name in sorted(self.samplers)
            },
        }
