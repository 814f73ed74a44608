"""The event entry of the discrete-event simulation kernel.

:class:`~repro.sim.kernel.Simulator` keeps its events in a binary heap
of ``[time, seq, callback, arg]`` lists, and the entry a schedule
pushes is also the handle it returns: there is no separate event
record.

* ``(time, seq)`` is the ordering key.  The sequence number is unique
  within a heap, so ordering is total and deterministic — two events
  scheduled for the same instant fire in the order they were
  scheduled — and ``heapq`` resolves every sift comparison on the
  native float/int pair, never reaching the callback.
* ``callback`` is ``None`` once the entry will not fire (again): a
  cancel writes it, and so does the loop when it fires the entry, so a
  late cancel — a periodic task stopping itself from inside its own
  callback — is a no-op and not a second decrement of the pending
  count.  Deletion is lazy: a cancelled entry stays in the heap until
  it reaches the head.
* ``arg`` is passed to the callback unless it is :data:`NO_ARG`.
  Schedulers with a per-event payload (the network's delivery path)
  use it instead of binding a closure per message.

A schedule is therefore one list and one ``heappush``, made in the
scheduling method's own frame.

The heap and the counter are part of this contract, not private to the
kernel: a simulator's ``_heap`` is the list the entries live in and its
``_counter`` (an ``itertools.count``) hands out the sequence numbers.
The three per-packet schedulers — :meth:`Network.transmit
<repro.net.network.Network.transmit>` for an arrival,
:meth:`ReceiveQueue.deliver <repro.net.queue.ReceiveQueue.deliver>` /
``_finish_one`` for a service period and ``PeriodicTask._fire`` for the
next tick — build the entry and push it onto the executing simulator's
heap themselves, exactly as ``Simulator.after`` would::

    heappush(sim._heap, [sim.now + delay, next(sim._counter), callback, arg])

so a packet pays no scheduling frame.  On a shard lane the pusher is
always the lane that is executing, where ``LaneSimulator.after`` makes
the same push (no cross-lane deferral).  A pusher takes the next sequence
number at the moment ``after`` would have, and either has a delay that
is non-negative by construction (a service period, a tick interval) or
checks it and raises :class:`~repro.sim.kernel.SimulationError` as
``after`` does (an arrival: a user latency model may draw a negative
value).  Nothing else pushes directly; every other schedule goes
through ``at`` / ``after``.
"""

from __future__ import annotations

#: Sentinel: "this event's callback takes no argument".
NO_ARG = object()
