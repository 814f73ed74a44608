"""Event queue for the discrete-event simulation kernel.

The queue is a binary heap ordered by ``(time, priority, sequence)``.
The sequence number makes ordering total and deterministic: two events
scheduled for the same instant always fire in the order they were
scheduled, regardless of callback identity.

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

import heapq
import itertools
from typing import Any, Callable

#: Default priority for events.  Lower values fire first at equal times.
DEFAULT_PRIORITY = 0

#: Sentinel: "this event's callback takes no argument".
NO_ARG = object()


class Event:
    """A single scheduled callback.

    The kernel invokes ``callback()`` — or ``callback(arg)`` when an
    argument was attached at scheduling time.  Cancellation is lazy:
    :meth:`cancel` marks the record and the queue discards it on pop.
    ``cancelled`` reads "will not fire (again)": the pop that fires an
    event sets it too.
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


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    The live count is derived: heap entries minus the cancelled ones
    still waiting to be discarded.  Pushing and popping a live event
    therefore touch no counter, which is what lets the kernel schedule
    onto ``_heap`` and drain it in its own frames (see
    :class:`~repro.sim.kernel.Simulator`).

    Popping marks the event ``cancelled``: a fired event can no longer
    be cancelled, so a late :meth:`Simulator.cancel` — a periodic task
    stopping itself from inside its own callback — is a no-op instead
    of a second decrement.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        #: Cancelled events still in the heap (deletion is lazy).
        self._cancelled = 0

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled

    def __bool__(self) -> bool:
        return len(self._heap) > self._cancelled

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        priority: int = DEFAULT_PRIORITY,
        label: str = "",
        arg: Any = NO_ARG,
    ) -> Event:
        """Schedule *callback* at *time* and return the (cancellable) event.

        When *arg* is given the kernel calls ``callback(arg)`` instead
        of ``callback()``.
        """
        seq = next(self._counter)
        event = Event(time, priority, seq, callback, arg, label)
        heapq.heappush(self._heap, (time, priority, seq, event))
        return event

    def pop(self) -> Event:
        """Pop and return the earliest non-cancelled event.

        Raises :class:`IndexError` when the queue holds no live events.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if event.cancelled:
                self._cancelled -= 1
                continue
            event.cancelled = True
            return event
        raise IndexError("pop from empty EventQueue")

    def pop_before(self, limit: float | None) -> Event | None:
        """Pop the earliest live event at time <= *limit* (None = any).

        Returns ``None`` — leaving the queue untouched — when the queue
        is empty or the earliest live event lies beyond *limit*.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[3]
            if event.cancelled:
                self.discard_head()
                continue
            if limit is not None and entry[0] > limit:
                return None
            heapq.heappop(heap)
            event.cancelled = True
            return event
        return None

    def discard_head(self) -> None:
        """Drop the heap's first entry, which the caller saw cancelled."""
        heapq.heappop(self._heap)
        self._cancelled -= 1

    def push_existing(self, event: Event) -> Event:
        """Insert an :class:`Event` created elsewhere, assigning a
        fresh local sequence number.

        Cross-shard schedules are created in the *source* shard's
        window (so the caller gets a cancellable handle immediately)
        but only enter the *target* shard's heap at the next barrier;
        the sequence number is assigned here, at injection, so tie
        ordering inside a heap always reflects injection order.
        """
        event.seq = next(self._counter)
        heapq.heappush(
            self._heap, (event.time, event.priority, event.seq, event)
        )
        return event

    def peek_time(self) -> float | None:
        """Return the time of the earliest live event, or ``None`` if empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            self.discard_head()
        if not heap:
            return None
        return heap[0][0]

    def note_cancel(self) -> None:
        """Account for an externally cancelled event (keeps ``len`` honest)."""
        if self._cancelled < len(self._heap):
            self._cancelled += 1

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
        self._cancelled = 0
