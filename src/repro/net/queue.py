"""Finite-service-rate receive queues.

Figure 2b of the paper plots the *receive queue length* of each server
while a hotspot drives its arrival rate past its service rate.  This
module models exactly that: each node owns a FIFO drained at a fixed
packet service rate; while arrivals outpace service, the queue grows,
and it drains once Matrix sheds load off the node.  Messages of a
node's priority kinds (control-plane directives) go to the head.

The network schedules an arrival as a call of the destination's
:meth:`ReceiveQueue.deliver` itself: the heap entry's callback is the
queue.  At a finite rate the message in service stays at the head of
the queue until its service period ends, so it counts in ``length``.
A service period is started in the method that finds the queue needs
one — :meth:`ReceiveQueue.deliver` for an idle queue,
:meth:`ReceiveQueue._finish_one` for a backlog — which pushes its heap
entry itself (the entry contract in :mod:`repro.sim.events`): no
scheduling call, no helper frame.

A queue refuses an arrival once its host crashed (:meth:`halt`: the
message counts as delivered and dies with the host) or its node left
the network (:meth:`detach`: the network hands the message to whichever
node holds the name now, or counts it undeliverable).  Both are one
flag on the per-message path.  What arrived is derived from the
counters the queue keeps anyway (:attr:`ReceiveQueue.arrivals`), so an
arrival costs no count of its own.

A serviced message goes straight to its entry in the node's handler
table; the node's ``handle_message`` takes a kind the table lacks.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappush
from typing import Callable, TYPE_CHECKING

from repro.net.message import Message
from repro.sim.events import NO_ARG

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Network
    from repro.sim.kernel import Simulator


class ReceiveQueue:
    """A FIFO message queue with a fixed service rate.

    The FIFO is a deque allocated the first time a message has to wait:
    every arrival at a finite rate or a capacity of 0, and a delivery
    made while an in-place queue is inside its handler.  An in-place
    queue that never backlogged holds ``None`` there.

    Parameters
    ----------
    sim:
        The simulation kernel.
    handler:
        Called with each serviced message (i.e. after its queueing +
        processing delay) that *handlers* does not take.
    handlers:
        The node's ``kind -> handler`` table, held (not copied): a
        serviced message of a kind in it is handed to its entry
        directly.
    service_rate:
        Messages serviced per second.  ``float('inf')`` makes servicing
        immediate (used for nodes whose processing cost is negligible).
    capacity:
        Maximum queued messages; arrivals beyond it are dropped and
        counted (the failure mode of the static-partitioning baseline).
    priority_kinds:
        Messages of these kinds jump to the head of the queue.
        Servers use it for control-plane directives (map-range
        updates, evacuation orders) so that reconfiguration is not
        starved behind a saturated data queue — the software analogue
        of a prioritised control channel.
    """

    __slots__ = (
        "_sim", "_handler", "_handlers", "_capacity",
        "_priority_kinds", "_immediate", "_service_delay", "_in_place",
        "_queue", "_busy", "_halted", "_detached_from", "_refusing",
        "_discarded", "serviced_count", "dropped_count", "busy_time",
        "_peak_length",
    )

    def __init__(
        self,
        sim: "Simulator",
        handler: Callable[[Message], None],
        handlers: dict[str, Callable[[Message], None]],
        service_rate: float = float("inf"),
        capacity: int | None = None,
        priority_kinds: frozenset[str] | None = None,
    ) -> None:
        self._sim = sim
        self._handler = handler
        self._handlers = handlers
        self._capacity = capacity
        self.set_service_rate(service_rate)
        self._priority_kinds = priority_kinds
        self._queue: deque[Message] | None = None
        self._busy = False
        self._halted = False
        #: The network that detached this queue (``None`` while attached).
        self._detached_from: "Network | None" = None
        #: Halted or detached: :meth:`deliver` refuses every arrival.
        self._refusing = False
        #: Arrivals that died with a halted host: queued ones, then new.
        self._discarded = 0
        self.serviced_count = 0
        self.dropped_count = 0
        self.busy_time = 0.0
        self._peak_length = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        """Messages in the queue, the one in service included.

        At a finite rate a message is popped when its service period
        ends, so a lone arrival reads ``1`` until then.  An immediate
        (infinite-rate) queue services in place and reads ``0``
        outside its handler.
        """
        queue = self._queue
        return 0 if queue is None else len(queue)

    @property
    def arrivals(self) -> int:
        """Messages this queue accepted: serviced, dropped at the cap,
        still queued, or lost to :meth:`halt`.  Constant once the queue
        is detached (a backlog being serviced moves from queued to
        serviced)."""
        return (
            self.serviced_count
            + self.dropped_count
            + self.length
            + self._discarded
        )

    @property
    def peak_length(self) -> int:
        """Maximum :attr:`length` seen so far (``1`` once anything was
        serviced in place)."""
        return self._peak_length

    def set_service_rate(self, rate: float) -> None:
        """Change the drain rate (takes effect from the next message).

        The per-message path reads what is derived here, never the rate
        itself: whether service is immediate, the delay per message, and
        whether an idle queue may service an arrival in place.
        """
        if rate <= 0:
            raise ValueError(f"service rate must be positive: {rate}")
        self._immediate = rate == math.inf
        self._service_delay = 1.0 / rate
        self._in_place = self._immediate and (
            self._capacity is None or self._capacity > 0
        )

    # ------------------------------------------------------------------
    # Operation
    # ------------------------------------------------------------------
    def halt(self) -> None:
        """Crash semantics: drop everything queued, service nothing more.

        Messages sitting in a dead host's queue die with the host; an
        already-scheduled service completion finds the queue halted and
        does nothing.  Used by chaos-layer crash injection only.
        """
        self._halted = True
        self._refusing = True
        queue = self._queue
        if queue:
            self._discarded += len(queue)
            queue.clear()
        self._busy = False

    def detach(self, network: "Network") -> None:
        """The node left *network*: refuse every later arrival.

        What is queued is still serviced (a removed node drains its
        backlog, as it always did); an arrival — in flight when the
        node was removed — goes back to *network*, which hands it to
        the node holding the name now or counts it undeliverable.
        """
        self._detached_from = network
        self._refusing = True

    def _refuse(self, message: Message) -> None:
        network = self._detached_from
        if network is not None:
            network._arrive_detached(message, self._sim)
        else:  # halted: delivered, and lost with the host
            self._discarded += 1

    def deliver(self, message: Message) -> None:
        """A message arrives from the network (the arrival event's
        callback)."""
        if self._refusing:
            self._refuse(message)
            return
        queue = self._queue
        if self._in_place and not self._busy and not queue:
            # Fast path: an idle infinite-rate queue services in place —
            # no deque round-trip, no extra call frames.  Counters are
            # updated exactly as the general path would have: the
            # message transiently "occupied" the queue (peak >= 1) and
            # was serviced immediately.  Anything the handler delivered
            # re-entrantly is drained afterwards: the queue is re-read,
            # since such a delivery may be what allocated it.
            if self._peak_length == 0:
                self._peak_length = 1
            self._busy = True
            self.serviced_count += 1
            self._handlers.get(message.kind, self._handler)(message)
            if not self._queue:
                self._busy = False
                return
        else:
            if queue is None:
                queue = self._queue = deque()
            kinds = self._priority_kinds
            if kinds is not None and message.kind in kinds:
                queue.appendleft(message)
            elif self._capacity is not None and len(queue) >= self._capacity:
                self.dropped_count += 1
                return
            else:
                queue.append(message)
            if len(queue) > self._peak_length:
                self._peak_length = len(queue)
            if self._busy:
                return
            self._busy = True
        # Start servicing the head of the (now non-empty) queue.
        if self._immediate:
            self._finish_one()
        else:
            delay = self._service_delay
            self.busy_time += delay
            sim = self._sim
            heappush(
                sim._heap,
                [sim.now + delay, next(sim._counter), self._finish_one, NO_ARG],
            )

    def _finish_one(self) -> None:
        """Service the head of the queue.

        At a finite rate that is one message, then the next service
        period.  An immediate queue drains its whole backlog here,
        iteratively — re-entrant deliveries made by a handler, or a
        queue switched to an infinite rate mid-backlog.
        """
        queue = self._queue
        handlers = self._handlers
        while queue and not self._halted:
            message = queue.popleft()
            self.serviced_count += 1
            handlers.get(message.kind, self._handler)(message)
            if queue and not self._immediate:
                # The next service period, scheduled after whatever the
                # handler scheduled.
                delay = self._service_delay
                self.busy_time += delay
                sim = self._sim
                heappush(
                    sim._heap,
                    [sim.now + delay, next(sim._counter), self._finish_one, NO_ARG],
                )
                return
        self._busy = False
