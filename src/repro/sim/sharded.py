"""Space-partitioned parallel kernel: conservative time-window shards.

The classic :class:`~repro.sim.kernel.Simulator` drains one event heap.
This module runs *S* lane simulators side by side — one per world shard
— under a conservative synchronization protocol:

* **Lookahead** ``L`` is the minimum one-way latency between nodes in
  different shards (``LatencyModel.minimum()`` over the network's
  non-loopback profiles).  No shard can receive a cross-shard effect
  earlier than ``L`` after it was sent.
* **Windows.** Each round picks an adaptive barrier
  ``B = min(min_lane_event + L, next_global_event, until)`` and every
  lane independently drains its events *strictly before* ``B``.  Any
  send during the window happens at ``t >= min_lane_event``, so its
  cross-shard arrival is ``>= min_lane_event + L >= B`` — never inside
  the window another lane is executing.  The barrier grid depends only
  on event *times*, never on the lane count, which is the cornerstone
  of the shard-count invariance proof in docs/ARCHITECTURE.md.
* **Barriers.** At each barrier all lanes sit at exactly ``B``.
  Cross-lane schedules deferred during the window are injected in
  canonical ``(time, priority, source-lane, creation-order)`` order,
  barrier hooks run (the sharded network flushes its outboxes in
  ``(time, seq, shard)`` order and applies node removals), and then the
  **global lane** — control logic with no node of its own: workload
  generation, sampling — executes its events at exactly ``B``.  Events
  a lane scheduled *at* ``B`` run in the next window, consistently at
  every shard count (the barrier-exact edge case in the tests).

Determinism contract: with the same seed, every simulation output is
byte-identical whatever ``shards`` and whatever executor — the sharded
engine at ``shards=1`` is the reference, and the tests compare it
against ``shards=2/4`` on full scenario runs.

Three executors drive the lane windows.  ``serial`` and ``thread``
share one address space.  ``process`` forks one worker per lane
(SPMD replication): every worker carries a full copy of the object
graph, *executes* only its own lane plus a replica of the global
(control) lane, and exchanges three things with the master per window
— cross-lane message outboxes, changed-state deltas of the values
global code reads, and end-of-run gathers — through registered **lane
hooks** (see :meth:`ShardedSimulator.register_lane_hooks`).  Because
the global lane's execution is replicated bit-for-bit in every worker
(same fork image, same injected messages in the same canonical order),
no shared memory is needed and results stay byte-identical to the
serial executor.

The module also provides :func:`run_sharded_workload`: the same
conservative protocol for *detached* shard workloads (pure
message-passing between per-shard builders) under a ``spawn`` process
executor — the lighter-weight path when the workload has no shared
control plane at all.
"""

from __future__ import annotations

import os
import pickle
import threading
import time as _time
import traceback as _traceback
from typing import TYPE_CHECKING, Any, Callable

from repro.sim.events import DEFAULT_PRIORITY, NO_ARG, Event
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.process import PeriodicTask

if TYPE_CHECKING:  # pragma: no cover
    from repro.perf import PerfRegistry

__all__ = [
    "GLOBAL_LANE",
    "LaneSimulator",
    "ShardContext",
    "ShardWorkerError",
    "ShardedSimulator",
    "run_sharded_workload",
]

#: Lane index of the global (control) lane in engine bookkeeping.
GLOBAL_LANE = "global"

#: Executors the engine supports.  ``process`` forks one worker per
#: lane (SPMD global-lane replication; needs registered lane hooks to
#: ship cross-lane state — the sharded network registers itself).
ENGINE_EXECUTORS = ("serial", "thread", "process")


class ShardWorkerError(RuntimeError):
    """A lane worker failed under the process executor.

    Carries the lane index and the worker-side traceback text, so a
    crash one process away reads like a local one (mirrors
    :class:`repro.harness.parallel.GridTaskError`).
    """

    def __init__(self, lane: int, worker_traceback: str) -> None:
        self.lane = lane
        self.worker_traceback = worker_traceback
        super().__init__(
            f"shard lane {lane} worker failed\n"
            f"--- worker traceback ---\n{worker_traceback}"
        )


class LaneSimulator(Simulator):
    """One shard's event heap, aware of the engine's active-lane rule.

    Scheduling into a lane from *outside* it (another lane mid-window,
    or the global lane at a barrier) is deferred: the caller gets a
    real, cancellable :class:`Event` immediately, but the event only
    enters this lane's heap at the next barrier, in canonical order.
    Relative times (:meth:`after`, :meth:`every`) are resolved against
    the *calling* context's clock, so a cross-lane ``after(d)`` means
    the same instant at every shard count.
    """

    def __init__(self, engine: "ShardedSimulator", index) -> None:
        super().__init__()
        self._engine = engine
        self.index = index
        #: Cross-lane schedules created while *this* lane (or the
        #: global lane) was executing: ``(target_lane, event)`` in
        #: creation order.  Only the owning thread appends.
        self._deferred: list[tuple["LaneSimulator", Event]] = []

    # -- context-aware scheduling --------------------------------------
    def _context_now(self) -> float:
        active = self._engine._active()
        return active._now if active is not None else self._now

    def at(
        self,
        time: float,
        callback: Callable[..., Any],
        priority: int = DEFAULT_PRIORITY,
        label: str = "",
        arg: Any = NO_ARG,
    ) -> Event:
        active = self._engine._active()
        if active is None or active is self:
            return Simulator.at(self, time, callback, priority, label, arg)
        if time < active._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before now={active._now}"
            )
        event = Event(time, priority, -1, callback, arg, label)
        active._deferred.append((self, event))
        return event

    def after(
        self,
        delay: float,
        callback: Callable[..., Any],
        priority: int = DEFAULT_PRIORITY,
        label: str = "",
        arg: Any = NO_ARG,
    ) -> Event:
        active = self._engine._active()
        if active is None or active is self:
            return Simulator.after(self, delay, callback, priority, label, arg)
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.at(active._now + delay, callback, priority, label, arg)

    def every(
        self,
        interval: float,
        callback: Callable[[], Any],
        start: float | None = None,
        label: str = "",
    ) -> PeriodicTask:
        if interval <= 0:
            raise SimulationError(f"non-positive interval: {interval}")
        first = self._context_now() + interval if start is None else start
        return PeriodicTask(self, interval, callback, first, label)


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
        executor: str = "serial",
        perf: "PerfRegistry | None" = None,
        start_time: float = 0.0,
    ) -> None:
        if shards < 1:
            raise SimulationError(f"shards must be >= 1, got {shards}")
        if executor not in ENGINE_EXECUTORS:
            raise SimulationError(
                f"unknown shard executor {executor!r}; engine executors: "
                f"{ENGINE_EXECUTORS}"
            )
        self.shard_count = shards
        self.lookahead = lookahead
        self._lanes = [LaneSimulator(self, i) for i in range(shards)]
        self._global = LaneSimulator(self, GLOBAL_LANE)
        self._all = [*self._lanes, self._global]
        for lane in self._all:
            lane._now = float(start_time)
        self._barrier_time = float(start_time)
        self._tls = threading.local()
        self._running = False
        self._stopped = False
        self._barrier_hooks: list[Callable[[float], None]] = []
        #: Providers of cross-process lane state (outboxes, deltas,
        #: gathers); see :meth:`register_lane_hooks`.
        self.lane_hooks: list[Any] = []
        #: Lane indices whose heaps are live in *this* process.  None
        #: means all of them (serial/thread); under the process
        #: executor the master owns none and each worker owns one.
        #: The global lane is live everywhere.
        self._live_lane_indices: frozenset | None = None
        self.windows_run = 0
        self._perf = perf
        if perf is not None:
            self._perf_windows = perf.counter("shard.windows")
            self._perf_wait = perf.timer("shard.barrier_wait")
            self._perf_span = perf.counter("shard.window_span")
            self._perf_lane_wall = perf.timer("shard.lane_wall")
            self._perf_ipc = perf.counter("shard.ipc_bytes")
        else:
            self._perf_windows = None
            self._perf_wait = None
            self._perf_span = None
            self._perf_lane_wall = None
            self._perf_ipc = None
        if executor == "process":
            self._executor: _SerialLanes | _ThreadLanes | _ProcessLanes = (
                _ProcessLanes(self)
            )
        elif executor == "thread":
            self._executor = _ThreadLanes(self)
        else:
            self._executor = _SerialLanes(self)

    # ------------------------------------------------------------------
    # Facade: the classic Simulator surface
    # ------------------------------------------------------------------
    def _active(self) -> LaneSimulator | None:
        return getattr(self._tls, "active", None)

    def _set_active(self, lane: LaneSimulator | None) -> None:
        self._tls.active = lane

    def _context_sim(self) -> LaneSimulator:
        active = self._active()
        return active if active is not None else self._global

    @property
    def now(self) -> float:
        return self._context_sim()._now

    @property
    def events_processed(self) -> int:
        return sum(lane.events_processed for lane in self._all)

    @property
    def pending_events(self) -> int:
        return sum(lane.pending_events for lane in self._all)

    @property
    def perf(self) -> "PerfRegistry | None":
        return self._perf

    def lane(self, index: int) -> LaneSimulator:
        """The lane simulator for shard *index*."""
        return self._lanes[index]

    @property
    def global_lane(self) -> LaneSimulator:
        """The control lane (workload generation, samplers)."""
        return self._global

    def add_barrier_hook(self, hook: Callable[[float], None]) -> None:
        """Run *hook(barrier_time)* at every barrier, before the global
        lane executes (the sharded network's outbox flush)."""
        self._barrier_hooks.append(hook)

    def register_lane_hooks(self, hook: Any) -> None:
        """Register a provider of per-lane state for the process executor.

        A lane hook ships a lane's externally visible effects between
        the forked workers and the master.  Six methods, all invoked
        with a lane *slot* (``0..shards-1``):

        * ``take_outbox(slot)`` → picklable bundle of the lane's
          pending cross-lane traffic, removed locally (or None);
        * ``stage(bundle)`` — queue a shipped bundle for the next
          barrier, on every replica;
        * ``collect(slot)`` → changed-state delta of the values global
          code reads (or None);
        * ``apply(pairs, skip_slot)`` — install merged
          ``(slot, delta)`` pairs, skipping the replica's own live
          lane (``skip_slot=None`` applies everything);
        * ``gather(slot)`` → the lane's full end-of-run read-out;
        * ``overlay(slot, payload)`` — replace the master's copy of
          that lane's state with a gathered payload.

        Hooks must be registered *before* the first :meth:`run` — the
        process executor forks on first run and the hook list must be
        identical in every replica.  Serial and thread executors ignore
        the hooks entirely.
        """
        self.lane_hooks.append(hook)

    def _lane_live(self, lane: "LaneSimulator") -> bool:
        """Whether *lane*'s heap is executed by this process.

        Under the process executor the master skips pushes into lane
        heaps it never drains (and each worker skips its siblings'),
        so replicated injection does not leak memory into heaps that
        exist only as fork artifacts.
        """
        live = self._live_lane_indices
        return live is None or lane is self._global or lane.index in live

    def at(self, time, callback, priority=DEFAULT_PRIORITY, label="", arg=NO_ARG):
        return self._context_sim().at(time, callback, priority, label, arg)

    def after(self, delay, callback, priority=DEFAULT_PRIORITY, label="", arg=NO_ARG):
        return self._context_sim().after(delay, callback, priority, label, arg)

    def every(self, interval, callback, start=None, label=""):
        return self._context_sim().every(
            interval, callback, start=start, label=label
        )

    def cancel(self, event: Event) -> None:
        # The owning heap is unknown from here; lazy cancellation means
        # marking the record is enough (pop and injection both skip it).
        event.cancel()

    def stop(self) -> None:
        self._stopped = True
        for lane in self._all:
            lane.stop()

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
        try:
            self._executor.start()
            self._loop(until)
            self._executor.collect()
        finally:
            self._executor.shutdown()
            self._set_active(None)
            self._running = False

    def _loop(self, until: float | None) -> None:
        lookahead = self.lookahead
        glob = self._global
        executor = self._executor
        while not self._stopped:
            peeks = executor.begin_round()
            next_lane = None
            for t in peeks:
                if t is not None and (next_lane is None or t < next_lane):
                    next_lane = t
            next_global = glob._queue.peek_time()
            candidates = []
            if next_lane is not None:
                candidates.append(next_lane + lookahead)
            if next_global is not None:
                candidates.append(next_global)
            if until is not None:
                candidates.append(until)
            if not candidates:
                break  # drained with no horizon
            barrier = min(candidates)
            if until is not None and barrier > until:
                barrier = until
            if barrier > self._barrier_time:
                self.windows_run += 1
                if self._perf_windows is not None:
                    self._perf_windows.inc()
                if self._perf_span is not None:
                    # Sim-time span per window: value accumulates the
                    # total span, count the number of windows.
                    self._perf_span.add(barrier - self._barrier_time)
                executor.run_window(barrier)
                self._barrier_time = barrier
            if self._stopped:
                break
            # Global (control) events at exactly the barrier instant.
            # The process executor first replays every lane's deltas
            # (here and in every worker's replica, identically).
            executor.before_global(barrier)
            self._set_active(glob)
            glob.run_window(barrier, inclusive=True)
            self._set_active(None)
            if until is not None and barrier >= until:
                # Lane events scheduled exactly at the horizon still
                # execute — matching the classic kernel's inclusive
                # run(until) — after the barrier's control work.
                executor.finish(until)
                break

    def _inject(self) -> None:
        """Barrier injection: deferred cross-lane schedules, then hooks.

        Deferral entries from every lane merge in canonical
        ``(time, priority, source-lane, creation-order)`` order before
        receiving their injection-time sequence numbers, so heap tie
        ordering is independent of executor scheduling.
        """
        horizon = self._barrier_time
        pending: list[tuple[float, int, int, int, LaneSimulator, Event]] = []
        for src_order, lane in enumerate(self._all):
            deferred = lane._deferred
            if deferred:
                lane._deferred = []
                for idx, (target, event) in enumerate(deferred):
                    pending.append(
                        (event.time, event.priority, src_order, idx, target, event)
                    )
        if pending:
            pending.sort(key=lambda entry: entry[:4])
            for time, _, _, _, target, event in pending:
                if event.cancelled:
                    continue
                if time < horizon:
                    raise SimulationError(
                        f"cross-shard schedule at t={time} lands inside the "
                        f"lookahead window (barrier {horizon}); cross-shard "
                        f"delays must be >= the lookahead "
                        f"({self.lookahead})"
                    )
                if self._lane_live(target):
                    target._queue.push_existing(event)
        for hook in self._barrier_hooks:
            hook(horizon)


class _SerialLanes:
    """Run every lane's window on the calling thread, in lane order."""

    def __init__(self, engine: ShardedSimulator) -> None:
        self._engine = engine

    def start(self) -> None:
        pass

    def shutdown(self) -> None:
        pass

    def begin_round(self) -> list[float | None]:
        engine = self._engine
        engine._inject()
        return [lane._queue.peek_time() for lane in engine._lanes]

    def run_window(self, barrier: float) -> None:
        engine = self._engine
        wall = engine._perf_lane_wall
        clock = _time.perf_counter
        for lane in engine._lanes:
            engine._set_active(lane)
            if wall is not None:
                started = clock()
                lane.run_window(barrier)
                wall.record(clock() - started)
            else:
                lane.run_window(barrier)
        engine._set_active(None)

    def before_global(self, barrier: float) -> None:
        pass

    def finish(self, until: float) -> None:
        engine = self._engine
        engine._inject()
        for lane in engine._lanes:
            engine._set_active(lane)
            lane.run_window(until, inclusive=True)
        engine._set_active(None)

    def collect(self) -> None:
        pass


class _ThreadLanes:
    """One persistent worker thread per lane, synced by reusable barriers.

    Under CPython's GIL the lanes time-share one core, so this executor
    buys no wall-clock speedup today — it exists to prove the protocol
    is executor-independent (the determinism tests run it) and to be
    ready for free-threaded builds.  Each worker pins its thread-local
    active lane once; ``shard.barrier_wait`` records, per worker and
    window, how long it idled at the done-barrier for its siblings.
    """

    def __init__(self, engine: ShardedSimulator) -> None:
        self._engine = engine
        parties = engine.shard_count + 1
        self._start_gate = threading.Barrier(parties)
        self._done_gate = threading.Barrier(parties)
        self._threads: list[threading.Thread] = []
        self._barrier = 0.0
        self._closing = False
        self._errors: list[BaseException] = []

    def start(self) -> None:
        for lane in self._engine._lanes:
            thread = threading.Thread(
                target=self._work, args=(lane,), daemon=True,
                name=f"shard-{lane.index}",
            )
            thread.start()
            self._threads.append(thread)

    def _work(self, lane: LaneSimulator) -> None:
        engine = self._engine
        engine._set_active(lane)
        wait_timer = engine._perf_wait
        wall_timer = engine._perf_lane_wall
        clock = _time.perf_counter
        while True:
            try:
                self._start_gate.wait()
            except threading.BrokenBarrierError:
                return
            if self._closing:
                return
            started = clock()
            try:
                lane.run_window(self._barrier)
            except BaseException as error:  # surfaced by run_window()
                self._errors.append(error)
            arrived = clock()
            if wall_timer is not None:
                # Benign data race (like shard.barrier_wait): wall
                # timers are diagnostics, never part of the gated
                # deterministic output.
                wall_timer.record(arrived - started)
            try:
                self._done_gate.wait()
            except threading.BrokenBarrierError:
                return
            if wait_timer is not None:
                wait_timer.record(clock() - arrived)

    def begin_round(self) -> list[float | None]:
        engine = self._engine
        engine._inject()
        return [lane._queue.peek_time() for lane in engine._lanes]

    def run_window(self, barrier: float) -> None:
        self._barrier = barrier
        self._start_gate.wait()
        self._done_gate.wait()
        if self._errors:
            error = self._errors[0]
            self._errors = []
            raise error

    def before_global(self, barrier: float) -> None:
        pass

    def finish(self, until: float) -> None:
        # The final inclusive drains run on the master thread: they are
        # a one-shot tail, not worth a barrier round-trip.
        engine = self._engine
        engine._inject()
        for lane in engine._lanes:
            engine._set_active(lane)
            lane.run_window(until, inclusive=True)
        engine._set_active(None)

    def collect(self) -> None:
        pass

    def shutdown(self) -> None:
        self._closing = True
        self._start_gate.abort()
        self._done_gate.abort()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads = []


def _pipe_send(conn, payload: Any, counter=None) -> None:
    """Pickle *payload* once and ship the bytes (counted when asked)."""
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if counter is not None:
        counter.add(len(data))
    conn.send_bytes(data)


def _pipe_recv(conn, counter=None) -> Any:
    data = conn.recv_bytes()
    if counter is not None:
        counter.add(len(data))
    return pickle.loads(data)


def _stage_bundles(engine: ShardedSimulator, transfers: list) -> None:
    """Hand shipped per-hook bundle lists to their hooks for staging."""
    for hook, bundles in zip(engine.lane_hooks, transfers):
        for bundle in bundles:
            hook.stage(bundle)


#: Counters bumped only by the master's orchestration loop, never by
#: replicated global-lane or lane code.  Workers hold their fork-time
#: values forever, so shipping them would make the contribution-
#: subtraction merge in :meth:`_ProcessLanes._merge_perf` subtract the
#: master's bumps once per worker.
_ORCHESTRATOR_COUNTERS = frozenset(
    ("shard.windows", "shard.window_span", "shard.ipc_bytes")
)


def _lane_worker_main(engine: ShardedSimulator, index: int, conn) -> None:
    """Forked lane worker: execute lane *index* live, replicate global.

    The worker inherits the master's whole object graph at fork time
    and then follows the master's command stream:

    * ``sync`` — stage shipped bundles, run barrier injection, report
      the lane's next event time (the master's barrier math uses only
      these worker-reported peeks);
    * ``window`` — drain the lane strictly before the barrier, return
      its outbox bundles, state deltas and wall time;
    * ``global`` — apply the merged deltas (skipping the own, live
      lane) and run the global-lane replica; no reply, the master runs
      its own replica concurrently;
    * ``final`` — the end-of-run inclusive drain (same reply shape as
      ``window``);
    * ``apply`` / ``gather`` / ``close`` — final delta application,
      end-of-run state read-out, teardown.

    Any exception is wrapped as an ``("error", traceback)`` reply; the
    master raises it as :class:`ShardWorkerError`.
    """
    # Worker-side hashing must match the master's (string hashing only
    # affects dict iteration order, but that order is observable via
    # defaultdict building in gathered payloads).
    os.environ.setdefault("PYTHONHASHSEED", "0")
    lane = engine._lanes[index]
    glob = engine._global
    engine._live_lane_indices = frozenset((index,))
    hooks = engine.lane_hooks
    clock = _time.perf_counter
    try:
        while True:
            command = _pipe_recv(conn)
            op = command[0]
            if op == "sync":
                _stage_bundles(engine, command[1])
                engine._inject()
                _pipe_send(conn, ("peek", lane._queue.peek_time()))
            elif op == "window" or op == "final":
                barrier = command[1]
                if op == "final":
                    _stage_bundles(engine, command[2])
                    engine._inject()
                started = clock()
                engine._set_active(lane)
                lane.run_window(barrier, inclusive=op == "final")
                engine._set_active(None)
                wall = clock() - started
                violation = None
                if lane._deferred:
                    target, event = lane._deferred[0]
                    lane._deferred = []
                    violation = (
                        f"lane {index} scheduled {event.label or 'an event'}"
                        f" onto lane {target.index!r} directly; under the "
                        f"process executor cross-lane effects must travel "
                        f"as network messages"
                    )
                engine._barrier_time = barrier
                bundles = [hook.take_outbox(index) for hook in hooks]
                deltas = [hook.collect(index) for hook in hooks]
                _pipe_send(conn, ("win", bundles, deltas, wall, violation))
            elif op == "global":
                _, barrier, pairs_per_hook = command
                for hook, pairs in zip(hooks, pairs_per_hook):
                    hook.apply(pairs, index)
                engine._set_active(glob)
                glob.run_window(barrier, inclusive=True)
                engine._set_active(None)
            elif op == "apply":
                for hook, pairs in zip(hooks, command[1]):
                    hook.apply(pairs, index)
                _pipe_send(conn, ("ok",))
            elif op == "gather":
                payloads = [hook.gather(index) for hook in hooks]
                counters = {}
                if engine._perf is not None:
                    counters = {
                        name: (c.count, c.value)
                        for name, c in engine._perf.counters.items()
                        if name not in _ORCHESTRATOR_COUNTERS
                    }
                _pipe_send(
                    conn,
                    ("data", payloads, lane.events_processed, counters),
                )
            elif op == "close":
                conn.close()
                return
    except BaseException:
        try:
            _pipe_send(conn, ("error", _traceback.format_exc()))
        except Exception:
            pass


class _ProcessLanes:
    """One forked worker per lane: SPMD replication of the global lane.

    Fork (not spawn) is load-bearing: the workers must carry the exact
    pre-run object graph — closures, RNG states, interned strings,
    hash seed — so that their global-lane replicas execute
    bit-identically to the master's.  Workers persist across repeated
    ``run()`` calls (their lane state *is* the simulation state);
    :meth:`shutdown` therefore only tears down after a failure, and
    healthy workers are closed when the engine is garbage-collected
    (they are daemons, so they can never outlive the master).
    """

    def __init__(self, engine: ShardedSimulator) -> None:
        self._engine = engine
        self._connections: list = []
        self._processes: list = []
        self._started = False
        self._failed = False
        #: Per-hook bundle lists from the last window, awaiting the
        #: next round's ``sync``.
        self._pending: list | None = None
        #: Per-lane delta lists from the last window (consumed by
        #: :meth:`before_global`).
        self._deltas: list | None = None
        #: name -> (count, value) portion of each master perf counter
        #: contributed by past worker merges (see :meth:`_merge_perf`).
        self._perf_extra: dict[str, tuple[int, float]] = {}

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        if self._started:
            if self._failed:
                raise SimulationError(
                    "the process shard executor cannot restart after a "
                    "worker failure; build a fresh engine"
                )
            return
        from multiprocessing import get_context

        try:
            context = get_context("fork")
        except ValueError as error:  # pragma: no cover - non-POSIX
            raise SimulationError(
                "the process shard executor needs the 'fork' start "
                "method (POSIX only): workers must inherit the exact "
                "pre-run object graph"
            ) from error
        engine = self._engine
        # The master never drains lane heaps from here on.
        engine._live_lane_indices = frozenset()
        for lane in engine._lanes:
            parent, child = context.Pipe()
            process = context.Process(
                target=_lane_worker_main,
                args=(engine, lane.index, child),
                daemon=True,
                name=f"shard-worker-{lane.index}",
            )
            process.start()
            child.close()
            self._connections.append(parent)
            self._processes.append(process)
        self._started = True

    def shutdown(self) -> None:
        # Workers hold live lane state between runs; only a failure
        # warrants tearing them down mid-session.
        if self._failed:
            self._close(kill=True)

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self._close(kill=self._failed)
        except Exception:
            pass

    def _close(self, kill: bool) -> None:
        connections, self._connections = self._connections, []
        processes, self._processes = self._processes, []
        for conn in connections:
            if not kill:
                try:
                    _pipe_send(conn, ("close",))
                except Exception:
                    pass
            try:
                conn.close()
            except Exception:
                pass
        for process in processes:
            if kill and process.is_alive():
                process.terminate()
            process.join(timeout=5.0)

    # -- transport -----------------------------------------------------
    def _send(self, index: int, payload: Any) -> None:
        try:
            _pipe_send(
                self._connections[index], payload, self._engine._perf_ipc
            )
        except (BrokenPipeError, OSError):
            self._dead(index)

    def _recv(self, index: int) -> Any:
        try:
            reply = _pipe_recv(
                self._connections[index], self._engine._perf_ipc
            )
        except (EOFError, OSError):
            self._dead(index)
        if reply[0] == "error":
            self._failed = True
            raise ShardWorkerError(index, reply[1])
        return reply

    def _dead(self, index: int) -> None:
        self._failed = True
        process = self._processes[index]
        process.join(timeout=1.0)
        raise ShardWorkerError(
            index,
            f"lane worker died without a traceback "
            f"(exit code {process.exitcode})",
        )

    # -- protocol rounds -----------------------------------------------
    def begin_round(self) -> list[float | None]:
        engine = self._engine
        transfers = self._pending
        if transfers is None:
            transfers = [[] for _ in engine.lane_hooks]
        self._pending = None
        count = len(self._connections)
        for index in range(count):
            self._send(index, ("sync", transfers))
        # The master replays the same staging + injection so its
        # global-lane replica sees the identical message stream.
        _stage_bundles(engine, transfers)
        engine._inject()
        return [self._recv(index)[1] for index in range(count)]

    def run_window(self, barrier: float) -> None:
        engine = self._engine
        count = len(self._connections)
        for index in range(count):
            self._send(index, ("window", barrier))
        self._pending, self._deltas = self._collect_windows(count)

    def _collect_windows(self, count: int) -> tuple[list, list]:
        engine = self._engine
        pending: list = [[] for _ in engine.lane_hooks]
        deltas_by_lane: list = []
        wall_timer = engine._perf_lane_wall
        for index in range(count):
            _, bundles, deltas, wall, violation = self._recv(index)
            if violation is not None:
                self._failed = True
                raise SimulationError(violation)
            if wall_timer is not None:
                wall_timer.record(wall)
            for position, bundle in enumerate(bundles):
                if bundle is not None:
                    pending[position].append(bundle)
            deltas_by_lane.append(deltas)
        return pending, deltas_by_lane

    def before_global(self, barrier: float) -> None:
        engine = self._engine
        deltas_by_lane = self._deltas
        self._deltas = None
        pairs_per_hook: list = []
        for position in range(len(engine.lane_hooks)):
            pairs = []
            if deltas_by_lane is not None:
                for lane_index, deltas in enumerate(deltas_by_lane):
                    pairs.append((lane_index, deltas[position]))
            pairs_per_hook.append(pairs)
        for index in range(len(self._connections)):
            self._send(index, ("global", barrier, pairs_per_hook))
        for hook, pairs in zip(engine.lane_hooks, pairs_per_hook):
            hook.apply(pairs, None)

    def finish(self, until: float) -> None:
        engine = self._engine
        transfers = self._pending
        if transfers is None:
            transfers = [[] for _ in engine.lane_hooks]
        self._pending = None
        count = len(self._connections)
        for index in range(count):
            self._send(index, ("final", until, transfers))
        _stage_bundles(engine, transfers)
        engine._inject()
        # Outbox bundles from the final inclusive drain are discarded —
        # matching the serial executor, where messages sent at the
        # horizon stay in the outbox past the end of the run.  The
        # deltas still matter: global code (result assembly, a repeated
        # run) reads state the final drain changed.
        _, deltas_by_lane = self._collect_windows(count)
        pairs_per_hook = [
            [
                (lane_index, deltas[position])
                for lane_index, deltas in enumerate(deltas_by_lane)
            ]
            for position in range(len(engine.lane_hooks))
        ]
        for index in range(count):
            self._send(index, ("apply", pairs_per_hook))
        for hook, pairs in zip(engine.lane_hooks, pairs_per_hook):
            hook.apply(pairs, None)
        for index in range(count):
            self._recv(index)

    def collect(self) -> None:
        if not self._started or self._failed:
            return
        engine = self._engine
        count = len(self._connections)
        for index in range(count):
            self._send(index, ("gather",))
        dumps = []
        for index in range(count):
            _, payloads, lane_events, counters = self._recv(index)
            for hook, payload in zip(engine.lane_hooks, payloads):
                if payload is not None:
                    hook.overlay(index, payload)
            engine._lanes[index]._event_count = lane_events
            dumps.append(counters)
        self._merge_perf(dumps)

    def _merge_perf(self, dumps: list[dict]) -> None:
        """Fold worker perf counters into the master registry.

        Every worker's counter value is (shared pre-fork state) +
        (replicated global bumps, identical to the master's) + (its own
        lane's bumps).  ``own = master - extra_prev`` recovers the
        master-side portion, so ``worker - own`` isolates each lane's
        contribution — a scheme that survives repeated runs/gathers
        because ``extra_prev`` tracks exactly what past merges added.
        Counters only: worker-side timers are either untouched or
        replicas of the master's.
        """
        perf = self._engine._perf
        if perf is None:
            return
        extra = self._perf_extra
        names: set[str] = set()
        for dump in dumps:
            names.update(dump)
        new_extra = dict(extra)
        for name in names:
            counter = perf.counter(name)
            prev_count, prev_value = extra.get(name, (0, 0.0))
            own_count = counter.count - prev_count
            own_value = counter.value - prev_value
            added_count = 0
            added_value = 0.0
            for dump in dumps:
                if name in dump:
                    worker_count, worker_value = dump[name]
                    added_count += worker_count - own_count
                    added_value += worker_value - own_value
            counter.count = own_count + added_count
            counter.value = own_value + added_value
            new_extra[name] = (added_count, added_value)
        self._perf_extra = new_extra


# ----------------------------------------------------------------------
# Detached shard workloads (the spawn process executor's domain)
# ----------------------------------------------------------------------
class ShardContext:
    """What a detached shard builder gets to work with.

    The builder installs events on ``ctx.sim`` (a plain
    :class:`Simulator`), exchanges data with other shards *only*
    through :meth:`send` / :meth:`on_receive`, and registers the
    shard's result via :meth:`on_finish`.  Because a shard touches
    nothing outside its context, the whole shard can live in its own
    spawned process.
    """

    def __init__(self, sim: Simulator, lane: int, shards: int, seed: int) -> None:
        self.sim = sim
        self.lane = lane
        self.shards = shards
        self.seed = seed
        self._outbound: list[tuple[float, int, int, Any]] = []
        self._seq = 0
        self._receive: Callable[[Any], None] | None = None
        self._finish: Callable[[], Any] | None = None

    def send(self, dst_lane: int, delay: float, payload: Any) -> None:
        """Ship *payload* to *dst_lane*, arriving after *delay* seconds.

        *delay* must be at least the workload's lookahead; the master
        asserts this at every exchange.
        """
        self._outbound.append(
            (self.sim.now + delay, self._seq, dst_lane, payload)
        )
        self._seq += 1

    def on_receive(self, handler: Callable[[Any], None]) -> None:
        """Handler invoked (in simulation time) for inbound payloads."""
        self._receive = handler

    def on_finish(self, result_fn: Callable[[], Any]) -> None:
        """Called once after the run; its return value is the shard's
        result (must be picklable under the process executor)."""
        self._finish = result_fn


class _DetachedShard:
    """One detached shard: simulator + mailbox, executor-agnostic."""

    def __init__(
        self, builder: Callable[[ShardContext], None],
        lane: int, shards: int, seed: int,
    ) -> None:
        self.sim = Simulator()
        self.ctx = ShardContext(self.sim, lane, shards, seed)
        builder(self.ctx)

    def next_time(self) -> float | None:
        return self.sim._queue.peek_time()

    def step(
        self,
        barrier: float,
        inbound: list[tuple[float, Any]],
        inclusive: bool = False,
    ) -> tuple[float | None, list[tuple[float, int, int, Any]]]:
        handler = self.ctx._receive
        for arrival, payload in inbound:
            if handler is None:
                raise SimulationError(
                    f"shard {self.ctx.lane} received a payload but "
                    f"registered no on_receive handler"
                )
            self.sim.at(arrival, handler, arg=payload)
        self.sim.run_window(barrier, inclusive=inclusive)
        outbound = self.ctx._outbound
        self.ctx._outbound = []
        return self.next_time(), outbound

    def finish(self) -> Any:
        return self.ctx._finish() if self.ctx._finish is not None else None


def _detached_worker_main(conn, builder, lane, shards, seed) -> None:
    """Process-executor worker loop: one detached shard per process."""
    shard = _DetachedShard(builder, lane, shards, seed)
    conn.send(shard.next_time())
    while True:
        command = conn.recv()
        if command[0] == "step":
            _, barrier, inbound, inclusive = command
            conn.send(shard.step(barrier, inbound, inclusive))
        elif command[0] == "finish":
            conn.send(shard.finish())
            conn.close()
            return


class _LocalShardPool:
    """Serial/thread transport over in-process detached shards."""

    def __init__(self, builder, shards, seed, threaded: bool) -> None:
        self._shards = [
            _DetachedShard(builder, lane, shards, seed)
            for lane in range(shards)
        ]
        self._pool = None
        if threaded and shards > 1:
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(max_workers=shards)

    def next_times(self) -> list[float | None]:
        return [shard.next_time() for shard in self._shards]

    def step_all(self, barrier, inbound_per_lane, inclusive):
        if self._pool is None:
            return [
                shard.step(barrier, inbound_per_lane[lane], inclusive)
                for lane, shard in enumerate(self._shards)
            ]
        futures = [
            self._pool.submit(shard.step, barrier, inbound_per_lane[lane], inclusive)
            for lane, shard in enumerate(self._shards)
        ]
        return [future.result() for future in futures]

    def finish_all(self):
        results = [shard.finish() for shard in self._shards]
        if self._pool is not None:
            self._pool.shutdown()
        return results


class _ProcessShardPool:
    """Spawn transport: each detached shard in its own interpreter."""

    def __init__(self, builder, shards, seed) -> None:
        from multiprocessing import get_context

        context = get_context("spawn")
        self._connections = []
        self._processes = []
        self._first_times: list[float | None] = []
        for lane in range(shards):
            parent, child = context.Pipe()
            process = context.Process(
                target=_detached_worker_main,
                args=(child, builder, lane, shards, seed),
                daemon=True,
            )
            process.start()
            child.close()
            self._connections.append(parent)
            self._processes.append(process)
        self._first_times = [conn.recv() for conn in self._connections]

    def next_times(self) -> list[float | None]:
        return list(self._first_times)

    def step_all(self, barrier, inbound_per_lane, inclusive):
        for lane, conn in enumerate(self._connections):
            conn.send(("step", barrier, inbound_per_lane[lane], inclusive))
        replies = [conn.recv() for conn in self._connections]
        self._first_times = [reply[0] for reply in replies]
        return replies

    def finish_all(self):
        for conn in self._connections:
            conn.send(("finish",))
        results = [conn.recv() for conn in self._connections]
        for conn in self._connections:
            conn.close()
        for process in self._processes:
            process.join(timeout=10.0)
        return results


def run_sharded_workload(
    builder: Callable[[ShardContext], None],
    shards: int,
    until: float,
    lookahead: float,
    executor: str = "serial",
    seed: int = 0,
) -> list[Any]:
    """Run a detached sharded workload and return per-shard results.

    *builder* (a module-level callable when ``executor="process"`` —
    it is shipped by pickle) receives a :class:`ShardContext` and wires
    one shard.  The master then drives the same conservative protocol
    the engine uses: windows bounded by ``min(next event) + lookahead``,
    cross-shard payloads exchanged at barriers in canonical
    ``(time, seq, shard)`` order.  Results are identical across the
    ``serial``, ``thread`` and ``process`` executors.
    """
    if shards < 1:
        raise SimulationError(f"shards must be >= 1, got {shards}")
    if lookahead <= 0:
        raise SimulationError(f"lookahead must be positive: {lookahead}")
    if executor == "process":
        pool: _LocalShardPool | _ProcessShardPool = _ProcessShardPool(
            builder, shards, seed
        )
    elif executor in ("serial", "thread"):
        pool = _LocalShardPool(builder, shards, seed, executor == "thread")
    else:
        raise SimulationError(
            f"unknown workload executor {executor!r}; "
            f"expected serial, thread or process"
        )
    barrier = 0.0
    inbound_per_lane: list[list[tuple[float, Any]]] = [[] for _ in range(shards)]
    while True:
        # The conservative horizon covers shard heaps *and* payloads
        # awaiting delivery — an undelivered arrival is a future event.
        pending = [t for t in pool.next_times() if t is not None]
        for lane_inbound in inbound_per_lane:
            pending.extend(arrival for arrival, _ in lane_inbound)
        if not pending:
            barrier = until
            inclusive = True
        else:
            barrier = min(min(pending) + lookahead, until)
            inclusive = barrier >= until
        replies = pool.step_all(barrier, inbound_per_lane, inclusive)
        inbound_per_lane = [[] for _ in range(shards)]
        transfers: list[tuple[float, int, int, int, Any]] = []
        for src_lane, reply in enumerate(replies):
            for arrival, seq, dst_lane, payload in reply[1]:
                transfers.append((arrival, seq, src_lane, dst_lane, payload))
        # Canonical (time, seq, shard) exchange order.
        transfers.sort(key=lambda entry: entry[:3])
        for arrival, _seq, _src, dst_lane, payload in transfers:
            if arrival < barrier:
                raise SimulationError(
                    f"cross-shard payload arriving at t={arrival} inside "
                    f"the lookahead window (barrier {barrier})"
                )
            inbound_per_lane[dst_lane].append((arrival, payload))
        if inclusive and not any(inbound_per_lane):
            break
        if inclusive and barrier >= until:
            # Inbound at exactly the horizon: one more inclusive step.
            continue
    return pool.finish_all()
