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

Perf instrumentation (optional) measures the kernel from the outside:
:meth:`Simulator.run` selects an instrumented copy of the event loop
only when a :class:`~repro.perf.PerfRegistry` was attached, so the
default loop carries zero instrumentation cost — not even a branch.
Timers read the host clock and never feed back into simulation time,
so an instrumented run is event-for-event identical to a plain one.
"""

from __future__ import annotations

import math
import time as _time
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable

from repro.sim.events import DEFAULT_PRIORITY, NO_ARG, Event, EventQueue
from repro.sim.process import PeriodicTask

if TYPE_CHECKING:  # pragma: no cover
    from repro.perf import PerfRegistry


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

    def __init__(
        self,
        start_time: float = 0.0,
        perf: "PerfRegistry | None" = None,
    ) -> None:
        self._now = float(start_time)
        self._queue = EventQueue()
        # Scheduling and the run loop work on the queue's heap and
        # sequence counter directly: one frame per schedule, none per
        # pop.  The queue derives its live count, so neither owes it a
        # counter update.
        self._heap = self._queue._heap
        self._counter = self._queue._counter
        self._running = False
        self._stopped = False
        self._event_count = 0
        self._perf = perf

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._event_count

    @property
    def pending_events(self) -> int:
        """Number of live events still scheduled."""
        return len(self._queue)

    @property
    def perf(self) -> "PerfRegistry | None":
        """The attached perf registry, if instrumentation is on."""
        return self._perf

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(
        self,
        time: float,
        callback: Callable[..., Any],
        priority: int = DEFAULT_PRIORITY,
        label: str = "",
        arg: Any = NO_ARG,
    ) -> Event:
        """Schedule *callback* at absolute simulation *time*.

        When *arg* is given the kernel calls ``callback(arg)``; hot
        schedulers use it instead of binding a closure per event.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={self._now}"
            )
        seq = next(self._counter)
        event = Event(time, priority, seq, callback, arg, label)
        heappush(self._heap, (time, priority, seq, event))
        return event

    def after(
        self,
        delay: float,
        callback: Callable[..., Any],
        priority: int = DEFAULT_PRIORITY,
        label: str = "",
        arg: Any = NO_ARG,
    ) -> Event:
        """Schedule *callback* after a relative *delay* (seconds)."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        time = self._now + delay
        seq = next(self._counter)
        event = Event(time, priority, seq, callback, arg, label)
        heappush(self._heap, (time, priority, seq, event))
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        if not event.cancelled:
            event.cancel()
            self._queue.note_cancel()

    def every(
        self,
        interval: float,
        callback: Callable[[], Any],
        start: float | None = None,
        label: str = "",
    ) -> "PeriodicTask":
        """Run *callback* every *interval* seconds until cancelled.

        The first firing is at *start* (default: ``now + interval``).
        Returns a :class:`PeriodicTask` handle with a ``stop()`` method.
        """
        if interval <= 0:
            raise SimulationError(f"non-positive interval: {interval}")
        first = self._now + interval if start is None else start
        return PeriodicTask(self, interval, callback, first, label)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the single earliest event.  Returns ``False`` if none."""
        event = self._queue.pop_before(None)
        if event is None:
            return False
        self._now = event.time
        self._event_count += 1
        if event.arg is NO_ARG:
            event.callback()
        else:
            event.callback(event.arg)
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the queue drains, *until* is reached, or *max_events*.

        When *until* is given, the clock is advanced to exactly *until*
        even if the last event fires earlier, so metrics sampled "at end
        of run" line up across experiments.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        self._running = True
        self._stopped = False
        try:
            if self._perf is not None:
                self._run_instrumented(until, max_events)
            else:
                self._run_plain(math.inf if until is None else until, max_events)
        finally:
            self._running = False
        if until is not None and self._now < until and not self._stopped:
            self._now = until

    def _run_plain(self, limit: float, max_events: int | None = None) -> int:
        """The uninstrumented event loop (the default).

        Executes live events at time <= *limit* and returns how many.
        The heap is inspected here, not through a queue method, so an
        event costs its callback's frames and no others.
        """
        heap = self._heap
        no_arg = NO_ARG
        executed = 0
        while heap and not self._stopped and executed != max_events:
            entry = heap[0]
            event = entry[3]
            if event.cancelled:
                self._queue.discard_head()
                continue
            time = entry[0]
            if time > limit:
                break
            heappop(heap)
            event.cancelled = True  # fired; see EventQueue
            self._now = time
            self._event_count += 1
            if event.arg is no_arg:
                event.callback()
            else:
                event.callback(event.arg)
            executed += 1
        return executed

    def _run_instrumented(
        self, until: float | None, max_events: int | None
    ) -> None:
        """The same loop, sampling wall latency every Nth step.

        Only the *measurement* is sampled — every event still executes
        exactly as in the plain loop, in the same order, so the run's
        simulation outputs are identical.
        """
        perf = self._perf
        assert perf is not None
        stride = perf.step_sample_every
        step_timer = perf.timer("sim.step")
        pending = perf.sampler("sim.pending_events")
        events_counter = perf.counter("sim.events")
        clock = _time.perf_counter
        pop_before = self._queue.pop_before
        queue = self._queue
        no_arg = NO_ARG
        executed = 0
        try:
            while not self._stopped:
                if max_events is not None and executed >= max_events:
                    break
                event = pop_before(until)
                if event is None:
                    break
                self._now = event.time
                self._event_count += 1
                if executed % stride == 0:
                    started = clock()
                    if event.arg is no_arg:
                        event.callback()
                    else:
                        event.callback(event.arg)
                    step_timer.record(clock() - started)
                    pending.record(self._now, float(len(queue)))
                elif event.arg is no_arg:
                    event.callback()
                else:
                    event.callback(event.arg)
                executed += 1
        finally:
            events_counter.inc(executed)

    def run_window(self, end: float, inclusive: bool = False) -> int:
        """Drain events up to *end* and advance the clock to exactly *end*.

        The sharded kernel's window-run mode: events strictly before
        *end* execute (``inclusive=True`` also takes events at exactly
        *end* — the barrier's own instant), then the clock lands on
        *end* so every shard observes the same time at a barrier.
        Returns the number of events executed.
        """
        if self._running:
            raise SimulationError("run_window() called re-entrantly")
        self._running = True
        self._stopped = False
        try:
            # "time < end" is "time <= the float just below end".
            executed = self._run_plain(
                end if inclusive else math.nextafter(end, -math.inf)
            )
        finally:
            self._running = False
        if self._now < end and not self._stopped:
            self._now = end
        return executed

    def stop(self) -> None:
        """Stop the current :meth:`run` after the executing event returns."""
        self._stopped = True
