"""Space-partitioned kernel: conservative time-window shard lanes.

The classic :class:`~repro.sim.kernel.Simulator` drains one event heap.
This module runs *S* lane simulators — one per world shard — one after
the other, in lane order, under a conservative synchronization
protocol:

* **Lookahead** ``L`` is the minimum one-way latency between nodes in
  different shards (``LatencyModel.minimum()`` over the network's
  non-loopback profiles).  No shard can receive a cross-shard effect
  earlier than ``L`` after it was sent.
* **Windows.** Each round picks an adaptive barrier
  ``B = min(min_lane_event + L, next_global_event, until)`` and every
  lane drains its events *strictly before* ``B``.  Any send during the
  window happens at ``t >= min_lane_event``, so its cross-shard arrival
  is ``>= min_lane_event + L >= B`` — never inside the window another
  lane is executing.  The barrier grid depends only on event *times*,
  never on the lane count, which is the cornerstone of the shard-count
  invariance proof in docs/ARCHITECTURE.md.
* **Barriers.** At each barrier all lanes sit at exactly ``B``.
  Cross-lane schedules deferred during the window are injected in
  canonical ``(time, source-lane, creation-order)`` order,
  barrier hooks run (the sharded network flushes its outboxes in
  ``(time, seq, shard)`` order and applies node removals), and then the
  **global lane** — control logic with no node of its own: workload
  generation, sampling — executes its events at exactly ``B``.  Events
  a lane scheduled *at* ``B`` run in the next window, consistently at
  every shard count (the barrier-exact edge case in the tests).
* **Idle work is skipped.**  A lane with no event before ``B`` (the
  global lane: none at ``B``) only has its clock set to ``B``, and
  injection and the barrier hooks run only when a writer set
  :attr:`ShardedSimulator.exchange_pending` — a round that crossed no
  lane costs its events and no frame of its own.
* **Stop** takes effect at the barrier of the window it was called in:
  every lane finishes that window, at any shard count.

Determinism contract: with the same seed, every simulation output is
byte-identical whatever ``shards`` — the engine at ``shards=1`` is the
reference, and the tests compare it against ``shards=2/4`` on full
scenario runs.  That is all the engine is kept for: a determinism
oracle showing that no result depends on the order in which nodes of
different shards execute.  Lanes never ran faster than the plain
kernel (docs/ARCHITECTURE.md, "Verdict"), so there is no concurrent
executor.
"""

from __future__ import annotations

import gc
import math
import time as _time
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable

from repro.sim.events import NO_ARG
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.process import PeriodicTask

if TYPE_CHECKING:  # pragma: no cover
    from repro.perf import PerfRegistry

__all__ = [
    "LaneSimulator",
    "ShardedSimulator",
]


class LaneSimulator(Simulator):
    """One shard's event heap, aware of the engine's active-lane rule.

    Scheduling into a lane from *outside* it (another lane mid-window,
    or the global lane at a barrier) is deferred: the caller gets a
    real, cancellable heap entry immediately — with seq ``-1``, "in no
    heap yet" — but it only enters this lane's heap at the next
    barrier, in canonical order, and gets its seq there.  Relative
    times (:meth:`after`, :meth:`every`) are resolved against the
    *calling* context's clock, so a cross-lane ``after(d)`` means the
    same instant at every shard count.
    """

    def __init__(self, engine: "ShardedSimulator", slot: int) -> None:
        super().__init__()
        self._engine = engine
        #: Position among the engine's lanes: ``0..shards-1`` for the
        #: shard lanes, ``shards`` for the global lane.
        self.slot = slot
        #: Cross-lane schedules created while *this* lane was
        #: executing: ``(target_lane, entry)`` in creation order.
        self._deferred: list[tuple["LaneSimulator", list]] = []

    # An own-lane schedule is one frame, like ``Simulator.at`` / ``after``.
    def at(
        self, time: float, callback: Callable[..., Any], arg: Any = NO_ARG
    ) -> list:
        active = self._engine.active_lane
        if active is None or active is self:
            if time < self.now:
                raise SimulationError(
                    f"cannot schedule event at t={time} before now={self.now}"
                )
            entry = [time, next(self._counter), callback, arg]
            heappush(self._heap, entry)
            return entry
        if time < active.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={active.now}"
            )
        entry = [time, -1, callback, arg]
        active._deferred.append((self, entry))
        self._engine.exchange_pending = True
        return entry

    def after(
        self, delay: float, callback: Callable[..., Any], arg: Any = NO_ARG
    ) -> list:
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        active = self._engine.active_lane
        if active is None or active is self:
            entry = [self.now + delay, next(self._counter), callback, arg]
            heappush(self._heap, entry)
            return entry
        return self.at(active.now + delay, callback, arg)

    def every(
        self,
        interval: float,
        callback: Callable[[], Any],
        start: float | None = None,
    ) -> PeriodicTask:
        if interval <= 0:
            raise SimulationError(f"non-positive interval: {interval}")
        if start is None:
            start = (self._engine.active_lane or self).now + interval
        return PeriodicTask(self, interval, callback, start)

    def cancel(self, entry: list) -> None:
        """Cancel an event scheduled on this lane (idempotent).

        A cross-lane schedule still waiting for its barrier is in no
        heap: it is only marked, and injection drops it.
        """
        if entry[1] == -1:
            entry[2] = None
        else:
            Simulator.cancel(self, entry)

    def stop(self) -> None:
        """Stop the engine (see :meth:`ShardedSimulator.stop`): a lane
        never stops alone."""
        self._engine.stop()


class ShardedSimulator:
    """Drop-in ``Simulator`` facade over *shards* lane simulators.

    Scheduling calls route to the active lane (or to the global lane
    between windows — which is where construction-time workload and
    sampler schedules belong), so existing code written against the
    classic kernel runs unchanged.  Component code that holds a node
    runs against that node's own lane via ``Network.sim_for``.
    """

    def __init__(
        self,
        shards: int,
        lookahead: float | None = None,
        perf: "PerfRegistry | None" = None,
    ) -> None:
        if shards < 1:
            raise SimulationError(f"shards must be >= 1, got {shards}")
        self.shard_count = shards
        self.lookahead = lookahead
        self._lanes = [LaneSimulator(self, slot) for slot in range(shards)]
        self._global = LaneSimulator(self, shards)
        self._all = [*self._lanes, self._global]
        self._barrier_time = 0.0
        #: The lane whose events are executing; None between windows
        #: (construction, barrier injection), when schedules go straight
        #: into the heap they name.
        self.active_lane: LaneSimulator | None = None
        #: ``active_lane``, or the global lane between windows.
        self.current: LaneSimulator = self._global
        self._running = False
        self._stopped = False
        #: Set by every writer of barrier work — a deferred cross-lane
        #: schedule, an outbox entry, a queued node removal — and when a
        #: run starts; the loop injects and runs the barrier hooks only
        #: while it is set.
        self.exchange_pending = True
        self._barrier_hooks: list[Callable[[float], None]] = []
        self.windows_run = 0
        self._perf = perf
        if perf is not None:
            self._perf_windows = perf.counter("shard.windows")
            self._perf_span = perf.counter("shard.window_span")
            self._perf_lane_wall = perf.timer("shard.lane_wall")
        else:
            self._perf_windows = None
            self._perf_span = None
            self._perf_lane_wall = None

    # ------------------------------------------------------------------
    # Facade: the classic Simulator surface
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.current.now

    @property
    def events_processed(self) -> int:
        return sum(lane.events_processed for lane in self._all)

    @property
    def pending_events(self) -> int:
        return sum(lane.pending_events for lane in self._all)

    @property
    def perf(self) -> "PerfRegistry | None":
        return self._perf

    def lane(self, slot: int) -> LaneSimulator:
        """The lane simulator at *slot* (``shards`` is the global lane)."""
        return self._all[slot]

    def add_barrier_hook(self, hook: Callable[[float], None]) -> None:
        """Run *hook(barrier_time)* at each barrier where
        :attr:`exchange_pending` is set, after injection (the sharded
        network's outbox flush and removals; their writers set it)."""
        self._barrier_hooks.append(hook)

    def at(self, time, callback, arg=NO_ARG):
        return self.current.at(time, callback, arg)

    def after(self, delay, callback, arg=NO_ARG):
        return self.current.after(delay, callback, arg)

    def every(self, interval, callback, start=None):
        return self.current.every(interval, callback, start=start)

    def cancel(self, entry: list) -> None:
        """Cancel the event *entry* on whichever lane it was scheduled.

        The facade does not know that lane, so it looks for the heap
        that holds the entry itself (by identity: equal entries on two
        lanes are different events) and accounts the cancellation
        there; a schedule still deferred is in none and is only marked.
        Component code cancels through its own lane, not through here.
        """
        if entry[2] is None:
            return
        if entry[1] != -1:
            for lane in self._all:
                if any(held is entry for held in lane._heap):
                    lane.cancel(entry)
                    return
        entry[2] = None

    def stop(self) -> None:
        """Stop the run at the barrier of the window it was called in.

        Every lane finishes the window, so what runs does not depend on
        the shard count, and :attr:`now` lands on the barrier.  A stop
        from a shard lane leaves the global lane's events at that barrier
        to the next run; a stop from the global lane lets it finish them.
        """
        self._stopped = True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        if self._running:
            raise SimulationError("run() called re-entrantly")
        if max_events is not None:
            raise SimulationError(
                "the sharded engine runs whole windows; max_events is not "
                "supported"
            )
        if self.lookahead is None or self.lookahead <= 0.0:
            raise SimulationError(
                f"sharded run needs a positive lookahead, got {self.lookahead}"
            )
        self._running = True
        self._stopped = False
        self.exchange_pending = True
        # A lane's own run() would drain it outside the barrier grid.
        for lane in self._all:
            lane._running = True
        # The cyclic collector is paused as in ``Simulator.run``.
        collecting = gc.isenabled()
        gc.disable()
        try:
            self._loop(until)
        finally:
            self.active_lane = None
            self.current = self._global
            self._running = False
            for lane in self._all:
                lane._running = False
            if collecting:
                gc.enable()

    def _loop(self, until: float | None) -> None:
        """The barrier rounds.  A round costs no frame of its own: heads
        are read inline, a lane with an event before the barrier is
        drained by ``_run_plain`` (the one loop that calls event
        callbacks) and injection runs only while
        :attr:`exchange_pending` is set."""
        lookahead = self.lookahead
        lanes = self._lanes
        glob = self._global
        glob_heap = glob._heap
        windows = self._perf_windows
        wall = self._perf_lane_wall
        clock = _time.perf_counter
        inf = math.inf
        nextafter = math.nextafter
        horizon = inf if until is None else until
        heads = [inf] * len(lanes)
        last = self._barrier_time
        while True:
            if self.exchange_pending:
                self.exchange_pending = False
                self._inject()
            # Live heads; cancelled ones are discarded and accounted
            # here, as ``Simulator.next_time`` does.
            next_lane = inf
            for slot, lane in enumerate(lanes):
                heap = lane._heap
                while heap and heap[0][2] is None:
                    heappop(heap)
                    lane._cancelled -= 1
                t = heap[0][0] if heap else inf
                heads[slot] = t
                if t < next_lane:
                    next_lane = t
            while glob_heap and glob_heap[0][2] is None:
                heappop(glob_heap)
                glob._cancelled -= 1
            next_global = glob_heap[0][0] if glob_heap else inf
            barrier = next_lane + lookahead
            if next_global < barrier:
                barrier = next_global
            if horizon < barrier:
                barrier = horizon
            if barrier == inf:
                break  # drained with no horizon
            if barrier > last:
                self.windows_run += 1
                if windows is not None:
                    windows.inc()
                    # Sim-time span per window: value accumulates the
                    # total span, count the number of windows.
                    self._perf_span.add(barrier - last)
                # "time < barrier" is "time <= the float just below it".
                end = nextafter(barrier, -inf)
                for lane, t in zip(lanes, heads):
                    if wall is not None:
                        started = clock()
                    # Nothing enters a lane's heap mid-window, so the
                    # head read above still holds (a facade cancel may
                    # have marked it: the drain then runs nothing).
                    if t < barrier:
                        self.active_lane = self.current = lane
                        lane._run_plain(end)
                    lane.now = barrier
                    if wall is not None:
                        wall.record(clock() - started)
                self.active_lane = None
                self.current = glob
                last = self._barrier_time = barrier
            # Global (control) events at exactly the barrier instant.
            if next_global <= barrier and not self._stopped:
                self.active_lane = glob  # ``current`` already is
                glob._run_plain(barrier)
                self.active_lane = None
            if glob.now < barrier:
                glob.now = barrier
            if self._stopped:
                break
            if barrier >= horizon:
                # Lane events scheduled exactly at the horizon still
                # execute — matching the classic kernel's inclusive
                # run(until) — after the barrier's control work.
                if self.exchange_pending:
                    self.exchange_pending = False
                    self._inject()
                for lane in lanes:
                    self.active_lane = self.current = lane
                    lane._run_plain(until)
                    if lane.now < until:
                        lane.now = until
                break

    def _inject(self) -> None:
        """Barrier injection: deferred cross-lane schedules, then hooks.

        Deferral entries from every lane merge in canonical
        ``(time, source-lane, creation-order)`` order before receiving
        their injection-time sequence numbers, so heap tie ordering
        does not depend on how many lanes there are.
        """
        horizon = self._barrier_time
        pending: list[tuple[float, int, int, LaneSimulator, list]] = []
        for lane in self._all:
            deferred = lane._deferred
            if deferred:
                lane._deferred = []
                for idx, (target, entry) in enumerate(deferred):
                    pending.append((entry[0], lane.slot, idx, target, entry))
        if pending:
            pending.sort()  # the (time, lane, order) prefix is unique
            for time, _, _, target, entry in pending:
                if entry[2] is None:
                    continue
                if time < horizon:
                    raise SimulationError(
                        f"cross-shard schedule at t={time} lands inside the "
                        f"lookahead window (barrier {horizon}); cross-shard "
                        f"delays must be >= the lookahead "
                        f"({self.lookahead})"
                    )
                target.adopt_event(entry)
        for hook in self._barrier_hooks:
            hook(horizon)
