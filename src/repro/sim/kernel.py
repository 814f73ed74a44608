"""The discrete-event simulator at the bottom of every experiment.

Design notes
------------
All higher layers (network, Matrix middleware, game servers, workload
generators) are written against this kernel.  The kernel is deliberately
tiny and deterministic:

* time is a ``float`` number of seconds since simulation start;
* events at equal times fire in scheduling order (see
  :mod:`repro.sim.events`);
* there is no wall-clock coupling whatsoever, so runs are exactly
  reproducible given a seed.

The simulator owns the event heap, the sequence counter and the count
of cancelled entries still in the heap, and has one loop that calls
event callbacks (:meth:`Simulator._run_plain`): a run with a
:class:`~repro.perf.PerfRegistry` attached calls it in strides, timing
the first event of each.  The loop itself therefore carries zero
instrumentation cost — not even a branch.  Timers read the host clock
and never feed back into simulation time, so a sampled run is
event-for-event identical to a plain one.

A schedule is one frame: :meth:`Simulator.at` / :meth:`Simulator.after`
build the ``[time, seq, callback, arg]`` heap entry, push it, and
return it as the cancel handle.  ``now`` is a plain attribute that only
the loop (and the end of a run, or of a sharded window) writes, so
reading the clock costs no frame either.
"""

from __future__ import annotations

import gc
import itertools
import math
import time as _time
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable

from repro.sim.events import NO_ARG
from repro.sim.process import PeriodicTask

if TYPE_CHECKING:  # pragma: no cover
    from repro.perf import PerfRegistry


#: A perf-on run times one kernel step out of every this many (the
#: rest run untimed), which keeps the sampled loop within a few percent
#: of the plain one.
STEP_SAMPLE_EVERY = 64


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling in the past)."""


class Simulator:
    """A deterministic discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.after(1.5, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.5]
    """

    def __init__(self, perf: "PerfRegistry | None" = None) -> None:
        #: Current simulation time in seconds.
        self.now = 0.0
        #: The simulator a send made now runs on (the sharded facade's
        #: is its executing lane).
        self.current = self
        #: ``[time, seq, callback, arg]`` entries (see repro.sim.events).
        self._heap: list[list] = []
        self._counter = itertools.count()
        # Cancelled events still in the heap (deletion is lazy).  The
        # live count is derived from it, so scheduling and firing a live
        # event touch no counter: one frame per schedule, none per pop.
        self._cancelled = 0
        self._running = False
        self._event_count = 0
        self._perf = perf

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._event_count

    @property
    def pending_events(self) -> int:
        """Number of live events still scheduled."""
        return len(self._heap) - self._cancelled

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(
        self, time: float, callback: Callable[..., Any], arg: Any = NO_ARG
    ) -> list:
        """Schedule *callback* at absolute simulation *time*.

        When *arg* is given the kernel calls ``callback(arg)``; hot
        schedulers use it instead of binding a closure per event.
        Returns the heap entry, which is the handle :meth:`cancel`
        takes.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        entry = [time, next(self._counter), callback, arg]
        heappush(self._heap, entry)
        return entry

    def after(
        self, delay: float, callback: Callable[..., Any], arg: Any = NO_ARG
    ) -> list:
        """Schedule *callback* after a relative *delay* (seconds)."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        entry = [self.now + delay, next(self._counter), callback, arg]
        heappush(self._heap, entry)
        return entry

    def cancel(self, entry: list) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        if entry[2] is not None:
            entry[2] = None
            if self._cancelled < len(self._heap):
                self._cancelled += 1

    def next_time(self) -> float | None:
        """Time of the earliest live event (``None`` when there is none)."""
        heap = self._heap
        while heap and heap[0][2] is None:
            heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def adopt_event(self, entry: list) -> None:
        """Insert an entry created elsewhere, under a fresh local
        sequence number.

        Cross-shard schedules are created in the *source* shard's
        window (so the caller gets a cancellable handle immediately)
        but only enter the *target* shard's heap at the next barrier;
        the sequence number is assigned here, at injection, so tie
        ordering inside a heap always reflects injection order.
        """
        entry[1] = next(self._counter)
        heappush(self._heap, entry)

    def every(
        self,
        interval: float,
        callback: Callable[[], Any],
        start: float | None = None,
    ) -> "PeriodicTask":
        """Run *callback* every *interval* seconds until cancelled.

        The first firing is at *start* (default: ``now + interval``).
        Returns a :class:`PeriodicTask` handle with a ``stop()`` method.
        """
        if interval <= 0:
            raise SimulationError(f"non-positive interval: {interval}")
        first = self.now + interval if start is None else start
        return PeriodicTask(self, interval, callback, first)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the queue drains, *until* is reached, or *max_events*.

        When *until* is given and nothing live at or before it is left,
        the clock is advanced to exactly *until* even if the last event
        fired earlier, so metrics sampled "at end of run" line up across
        experiments.  A run that *max_events* ended early leaves the
        clock on the last event it ran: the events it did not get to are
        still ahead of it.

        The cyclic collector is paused for the loop (reference counting
        frees what the loop drops; see docs/ARCHITECTURE.md, "Hot-path
        design rules") and left as the caller had it.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        collecting = gc.isenabled()
        gc.disable()
        limit = math.inf if until is None else until
        try:
            if self._perf is not None:
                self._run_sampled(limit, max_events)
            else:
                self._run_plain(limit, max_events)
        finally:
            self._running = False
            if collecting:
                gc.enable()
        if until is not None and self.now < until:
            upcoming = self.next_time()
            if upcoming is None or upcoming > until:
                self.now = until

    def _run_plain(self, limit: float, max_events: int | None = None) -> int:
        """The event loop: the one place event callbacks are called.

        Executes live events at time <= *limit* and returns how many.
        The heap is inspected here, not through a method, so an event
        costs its callback's frames and no others.
        """
        heap = self._heap
        no_arg = NO_ARG
        executed = 0
        try:
            while heap and executed != max_events:
                entry = heap[0]
                callback = entry[2]
                if callback is None:
                    heappop(heap)
                    self._cancelled -= 1
                    continue
                time = entry[0]
                if time > limit:
                    break
                heappop(heap)
                entry[2] = None  # fired: a late cancel is a no-op
                self.now = time
                executed += 1
                arg = entry[3]
                if arg is no_arg:
                    callback()
                else:
                    callback(arg)
        finally:
            self._event_count += executed
        return executed

    def _run_sampled(self, limit: float, max_events: int | None) -> None:
        """Run the loop in strides, timing the first event of each.

        One timed event, then ``STEP_SAMPLE_EVERY - 1`` untimed ones.
        Only the *measurement* is sampled — every event still executes
        in the plain loop, in the same order, so the run's simulation
        outputs are identical.
        """
        perf = self._perf
        assert perf is not None
        untimed = STEP_SAMPLE_EVERY - 1
        step_timer = perf.timer("sim.step")
        pending = perf.sampler("sim.pending_events")
        clock = _time.perf_counter
        run = self._run_plain
        budget = math.inf if max_events is None else max_events
        before = self._event_count
        while True:
            left = budget - (self._event_count - before)
            started = clock()
            if not run(limit, min(1, left)):
                break
            step_timer.record(clock() - started)
            pending.record(self.now, float(self.pending_events))
            run(limit, min(untimed, left - 1))
