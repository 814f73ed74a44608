"""Host-speed calibration for the timing metrics.

The hosts this benchmark runs on are shared: the same interpreter-bound
work takes 1.0x to 1.5x as long from one ten-second stretch to the next
(measured while sizing the benchmark, CPU time and wall time alike),
which no median over the runs of one invocation can remove because a
slow stretch outlasts them all.  A :class:`SpeedProbe` therefore
interleaves a fixed slice of work with the measured code — a ``SIGALRM``
timer runs :meth:`SpeedProbe.calibration_slice` every ``PERIOD_S`` — and
the caller scales its wall times by how much slower than
:data:`REFERENCE_SLICE_S` those slices ran.  Slice time is excluded from
the measured intervals, so the probe costs the measurement nothing but
cache pollution every eighth of a second.

Nothing here may import from ``src/repro``: an optimisation of the
program must not speed up the ruler it is measured with.
"""

from __future__ import annotations

import heapq
import random
import signal
import time

#: One slice works on two sets of this many entries, for about the same
#: time each.  The small one stays in the private caches and follows what
#: slows computation (a busy sibling thread, the clock); the large one
#: misses them the way a scenario's event heap and traffic tables do and
#: follows what slows memory (a neighbour thrashing the shared cache).
#: Measured on the same runs, run-to-run CV of the scaled time — small
#: alone / large alone / the two combined: ``p2p-fanout`` under a noisy
#: neighbour 7.8 / 3.5 / 4.2 %, ``hotspot`` 3.0 / 3.4 / 3.1 %; in another
#: hour the large set alone trailed a 25 % fast stretch of ``hotspot`` by
#: 15 %.  Combined is never the worst.
WORKING_SETS = ((256, 1400), (20000, 700))  # (entries, iterations per slice)
#: Seconds between slices: about 4 % of the host goes to calibration.
PERIOD_S = 0.125
#: Duration of one slice on the reference host.  Reported times are
#: ``wall * REFERENCE_SLICE_S / measured slice``: seconds on a host that
#: runs a slice in exactly this long (this host, in its usual stretches).
REFERENCE_SLICE_S = 0.0034


class _Cell:
    __slots__ = ("messages", "bytes")

    def __init__(self) -> None:
        self.messages = 0
        self.bytes = 0

    def add(self, size: int) -> None:
        self.messages += 1
        self.bytes += size


def midmean(values: list[float]) -> float:
    """Mean of the middle half: ignores slices a host hiccup landed on,
    yet still moves when a run straddles a fast and a slow stretch."""
    ordered = sorted(values)
    trim = len(ordered) // 4
    middle = ordered[trim : len(ordered) - trim]
    return sum(middle) / len(middle)


class _WorkingSet:
    """Interpreter work shaped like the simulator's hot path: push and
    pop on a heap of tuples, probes of a dict keyed by name pairs, slot
    updates through a method call, float arithmetic."""

    def __init__(self, entries: int, iterations: int) -> None:
        rng = random.Random(entries)
        self._iterations = iterations
        self._heap = [(rng.random(), 0, i, None) for i in range(entries)]
        heapq.heapify(self._heap)
        self._keys = [
            (f"node.{rng.randrange(10**6)}", f"node.{rng.randrange(10**6)}")
            for _ in range(entries)
        ]
        self._table = {key: _Cell() for key in self._keys}
        self._state = 12345
        self._now = 0.0
        self._seq = entries

    def run(self) -> None:
        heap, table, keys = self._heap, self._table, self._keys
        push, pop = heapq.heappush, heapq.heappop
        state, now, seq = self._state, self._now, self._seq
        entries = len(keys)
        for _ in range(self._iterations):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            seq += 1
            push(heap, (now + state / 0x7FFFFFFF, 0, seq, None))
            now = pop(heap)[0]
            table[keys[state % entries]].add(state & 255)
        self._state, self._now, self._seq = state, now, seq


class SpeedProbe:
    """Samples a fixed slice of work on a timer while other code runs."""

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self._period_s = period_s
        self._sets = [_WorkingSet(*shape) for shape in WORKING_SETS]
        #: (start, duration) of every slice taken, in perf_counter time.
        self.slices: list[tuple[float, float]] = []
        self._previous_handler = None

    def calibration_slice(self) -> float:
        """Run the fixed work once; returns its wall time in seconds."""
        started = time.perf_counter()
        for working_set in self._sets:
            working_set.run()
        return time.perf_counter() - started

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self._period_s, self._period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        if not self.slices:  # a run shorter than one period
            self._tick()

    def _tick(self, signum=None, frame=None) -> None:
        started = time.perf_counter()
        self.slices.append((started, self.calibration_slice()))

    def slice_time(self, since: float = 0.0, until: float = float("inf")) -> float:
        """Seconds spent in slices that started in ``[since, until)``."""
        return sum(
            duration
            for started, duration in self.slices
            if since <= started < until
        )

    def scale(self) -> float:
        """Multiply a wall time by this to get reference-host seconds."""
        return REFERENCE_SLICE_S / midmean([d for _, d in self.slices])
