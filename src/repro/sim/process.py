"""Helper layered over the kernel: the periodic task."""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, TYPE_CHECKING

from repro.sim.events import NO_ARG

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.kernel import Simulator


class PeriodicTask:
    """A repeating callback created by :meth:`Simulator.every`.

    The task reschedules itself after each firing — it pushes the heap
    entry of its next occurrence itself (the interval is positive by
    construction; see :mod:`repro.sim.events`) — keeping that entry
    only to cancel it: :meth:`stop` does that and prevents any further
    ones.  The callback may call ``stop()`` on its own handle to
    self-terminate; the entry that is firing has already left the heap,
    so that cancel is a no-op.
    """

    __slots__ = ("_sim", "_interval", "_callback", "_stopped", "_pending")

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        callback: Callable[[], Any],
        first_time: float,
    ) -> None:
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._stopped = False
        self._pending = sim.at(first_time, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            sim = self._sim
            self._pending = entry = [
                sim.now + self._interval, next(sim._counter), self._fire, NO_ARG
            ]
            heappush(sim._heap, entry)

    def stop(self) -> None:
        """Stop the task (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        self._sim.cancel(self._pending)
