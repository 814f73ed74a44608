"""Helper layered over the kernel: the periodic task."""

from __future__ import annotations

from typing import Any, Callable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.kernel import Simulator


class PeriodicTask:
    """A repeating callback created by :meth:`Simulator.every`.

    The task reschedules itself after each firing, keeping the heap
    entry of its next occurrence only to cancel it: :meth:`stop` does
    that and prevents any further ones.  The callback may call
    ``stop()`` on its own handle to self-terminate; the entry that is
    firing has already left the heap, so that cancel is a no-op.
    """

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
            self._pending = self._sim.after(self._interval, self._fire)

    def stop(self) -> None:
        """Stop the task (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        self._sim.cancel(self._pending)
