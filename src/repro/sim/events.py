"""The event record of the discrete-event simulation kernel.

:class:`~repro.sim.kernel.Simulator` keeps its events in a binary heap
ordered by ``(time, priority, sequence)``.  The sequence number makes
ordering total and deterministic: two events scheduled for the same
instant always fire in the order they were scheduled, regardless of
callback identity.

Hot-path layout
---------------
Heap entries are plain ``(time, priority, seq, event)`` tuples, *not*
the :class:`Event` records themselves.  ``heapq`` then resolves every
sift comparison on native float/int tuple elements — the sequence
number is unique, so the trailing ``Event`` is never compared — where
the previous rich-comparison dataclass paid a Python ``__lt__`` call
per comparison (the single largest line in the pre-optimization
profile, ~13% of a scenario run).  The ordering key is unchanged, so
pop order — and therefore every simulation output — is bit-identical.

Events optionally carry one argument (``arg``) that the kernel passes
to the callback.  Schedulers with a per-event payload (the network's
delivery path) use it to avoid allocating a closure per message.
"""

from __future__ import annotations

from typing import Any, Callable

#: Default priority for events.  Lower values fire first at equal times.
DEFAULT_PRIORITY = 0

#: Sentinel: "this event's callback takes no argument".
NO_ARG = object()


class Event:
    """A single scheduled callback.

    The kernel invokes ``callback()`` — or ``callback(arg)`` when an
    argument was attached at scheduling time.  Cancellation is lazy:
    :meth:`cancel` marks the record and the kernel discards it when it
    reaches the head of the heap.  ``cancelled`` reads "will not fire
    (again)": the pop that fires an event sets it too, so a late
    :meth:`Simulator.cancel` — a periodic task stopping itself from
    inside its own callback — is a no-op and not a second decrement of
    the pending count.
    """

    __slots__ = ("time", "priority", "seq", "callback", "arg", "cancelled", "label")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., Any],
        arg: Any = NO_ARG,
        label: str = "",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.arg = arg
        self.cancelled = False
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled/fired" if self.cancelled else ""
        return (
            f"Event(t={self.time}, prio={self.priority}, seq={self.seq}, "
            f"label={self.label!r}{state})"
        )

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped."""
        self.cancelled = True
