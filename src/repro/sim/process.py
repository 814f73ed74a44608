"""Helper layered over the kernel: the periodic task."""

from __future__ import annotations

from typing import Any, Callable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.kernel import Simulator


class PeriodicTask:
    """A repeating callback created by :meth:`Simulator.every`.

    The task reschedules itself after each firing; calling :meth:`stop`
    cancels the pending occurrence and prevents any further ones.  The
    callback may call ``stop()`` on its own handle to self-terminate.
    """

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        callback: Callable[[], Any],
        first_time: float,
        label: str = "",
    ) -> None:
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._label = label
        self._stopped = False
        self._fire_count = 0
        self._pending = sim.at(first_time, self._fire, label=label)

    @property
    def interval(self) -> float:
        """Seconds between consecutive firings."""
        return self._interval

    @property
    def fire_count(self) -> int:
        """Number of times the callback has run."""
        return self._fire_count

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` has been called."""
        return self._stopped

    def _fire(self) -> None:
        if self._stopped:
            return
        self._fire_count += 1
        self._callback()
        if not self._stopped:
            self._pending = self._sim.after(
                self._interval, self._fire, label=self._label
            )

    def stop(self) -> None:
        """Stop the task (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        self._sim.cancel(self._pending)

    def reschedule(self, interval: float) -> None:
        """Change the firing interval, effective from the next firing."""
        if interval <= 0:
            raise ValueError(f"non-positive interval: {interval}")
        self._interval = interval
