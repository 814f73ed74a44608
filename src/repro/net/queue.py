"""Finite-service-rate receive queues.

Figure 2b of the paper plots the *receive queue length* of each server
while a hotspot drives its arrival rate past its service rate.  This
module models exactly that: each node owns a FIFO drained at a fixed
packet service rate; while arrivals outpace service, the queue grows,
and it drains once Matrix sheds load off the node.  Messages of a
node's priority kinds (control-plane directives) go to the head.

At a finite rate the message in service stays at the head of the
queue until its service period ends, so it counts in ``length``.  A
service period is started in the method that finds the queue needs
one — :meth:`ReceiveQueue.deliver` for an idle queue,
:meth:`ReceiveQueue._finish_one` for a backlog — with one ``after``
and no helper frame.

A serviced message goes straight to its ``@handles`` method when the
node's table has its kind and the node has no stage.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, TYPE_CHECKING

from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class ReceiveQueue:
    """A FIFO message queue with a fixed service rate.

    Parameters
    ----------
    sim:
        The simulation kernel.
    handler:
        Called with each message once it has been *serviced* (i.e. after
        its queueing + processing delay).
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
    handlers, stages:
        The node's handler table and live stage list: while *stages* is
        empty, a kind in *handlers* bypasses *handler*.
    """

    def __init__(
        self,
        sim: "Simulator",
        handler: Callable[[Message], None],
        service_rate: float = float("inf"),
        capacity: int | None = None,
        priority_kinds: frozenset[str] | None = None,
        handlers: dict[str, Callable[[Message], None]] | None = None,
        stages: list | None = None,
    ) -> None:
        self._sim = sim
        self._handler = handler
        self._handlers = handlers
        self._stages = stages
        self._capacity = capacity
        self.set_service_rate(service_rate)
        self._priority_kinds = priority_kinds
        self._queue: deque[Message] = deque()
        self._busy = False
        self._halted = False
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
        return len(self._queue)

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
        self._queue.clear()
        self._busy = False

    def deliver(self, message: Message) -> None:
        """A message arrives from the network."""
        if self._halted:
            return
        queue = self._queue
        if self._in_place and not self._busy and not queue:
            # Fast path: an idle infinite-rate queue services in place —
            # no deque round-trip, no extra call frames.  Counters are
            # updated exactly as the general path would have: the
            # message transiently "occupied" the queue (peak >= 1) and
            # was serviced immediately.  Anything the handler delivered
            # re-entrantly is drained afterwards.
            if self._peak_length == 0:
                self._peak_length = 1
            self._busy = True
            self.serviced_count += 1
            handlers = self._handlers
            if handlers is None or self._stages:
                self._handler(message)
            else:
                handlers.get(message.kind, self._handler)(message)
            if not queue:
                self._busy = False
                return
        else:
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
            self._sim.after(delay, self._finish_one)

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
            if handlers is None or self._stages:
                self._handler(message)
            else:
                handlers.get(message.kind, self._handler)(message)
            if queue and not self._immediate:
                # The next service period, scheduled after whatever the
                # handler scheduled.
                delay = self._service_delay
                self.busy_time += delay
                self._sim.after(delay, self._finish_one)
                return
        self._busy = False
