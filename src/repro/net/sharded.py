"""Shard-aware network fabric for the space-partitioned kernel.

:class:`ShardedNetwork` is a :class:`~repro.net.network.Network` whose
nodes are homed on the lanes of a
:class:`~repro.sim.sharded.ShardedSimulator`, using each node's
``shard_anchor`` (spawn position / partition centre) against a static
:class:`~repro.geometry.sharding.ShardMap`.  Anchor-less nodes (the
Matrix Coordinator) live on the engine's global lane, which only runs
at window barriers.

What changes relative to the classic fabric:

* **Delivery routing.**  A message whose destination shares the
  sender's lane is scheduled directly on that lane.  A cross-border
  message goes to the sending lane's *outbox* and is injected at the
  next window barrier in canonical ``(time, seq, shard)`` order — so
  heap contents, and therefore results, are identical at any shard
  count.
* **Latency randomness.**  The classic fabric draws all latency jitter
  from one shared stream, whose draw order would depend on how the
  lanes' windows interleave.  Here every *source node* gets its own
  derived stream (``latency:<node>``): a node's sends are totally
  ordered within its lane, so its draws are reproducible by
  construction.
* **Node removal.**  Decommissions take effect at the next barrier,
  identically at every shard count, instead of mid-window where other
  lanes' visibility of the removal would depend on execution order.

``transmit`` and its accounting are the base class's; this class
supplies the per-source stream (:meth:`_latency_rng`) and the
destination's lane (:meth:`_lane_of`), both kept on the routes, and the
hand-off for a lane crossing (:meth:`_hand_off`).  A same-lane send is
the plain network's ``after``.  Sums do not depend on the order lanes
add to them, and the stats digest is canonical.

The lookahead the engine needs is :meth:`minimum_cross_latency`: the
smallest ``LatencyModel.minimum()`` over every profile that can apply
between nodes in *different* shards.  Co-located pairs (loopback, far
below the lookahead) are pinned to one lane by construction —
:meth:`set_colocated` enforces it.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.geometry.sharding import ShardMap
from repro.net.message import Message
from repro.net.network import LinkProfile, Network
from repro.net.node import Node
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.rng import RngRegistry
from repro.sim.sharded import ShardedSimulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.perf import PerfRegistry

__all__ = ["ShardedNetwork"]


class ShardedNetwork(Network):
    """A network fabric whose nodes live on shard lanes."""

    def __init__(
        self,
        engine: ShardedSimulator,
        shard_map: ShardMap,
        rng_registry: RngRegistry,
        default_profile: LinkProfile | None = None,
        perf: "PerfRegistry | None" = None,
    ) -> None:
        super().__init__(engine, default_profile=default_profile, perf=perf)
        self._engine = engine
        self._map = shard_map
        self._rng_registry = rng_registry
        #: Node name -> lane slot (``shard_count`` is the global lane).
        self._node_lane: dict[str, int] = {}
        slots = shard_map.shard_count + 1
        self._outboxes: list[list] = [[] for _ in range(slots)]
        self._outbox_seq = [0] * slots
        self._pending_removals: list[str] = []
        #: Messages that crossed a shard boundary (through an outbox).
        self.cross_border_count = 0
        self._perf_cross = (
            perf.counter("shard.cross_border") if perf is not None else None
        )
        engine.add_barrier_hook(self._on_barrier)

    # ------------------------------------------------------------------
    # Lane plumbing
    # ------------------------------------------------------------------
    @property
    def shard_map(self) -> ShardMap:
        """The static world tiling nodes are homed against."""
        return self._map

    def sim_for(self, node: Node) -> Simulator:
        anchor = getattr(node, "shard_anchor", None)
        if anchor is None:
            slot = self._map.shard_count  # the global lane
        else:
            slot = self._map.lane_for_point(anchor)
        previous = self._node_lane.get(node.name, slot)
        self._node_lane[node.name] = slot
        if previous != slot:
            self._routes.clear()  # re-homed: routes name the old lane
        return self._engine.lane(slot)

    def set_colocated(self, a: str, b: str) -> None:
        lane_a = self._node_lane.get(a)
        lane_b = self._node_lane.get(b)
        if lane_a != lane_b:
            raise SimulationError(
                f"co-located nodes {a!r} (lane {lane_a}) and {b!r} (lane "
                f"{lane_b}) must share a shard: their loopback latency is "
                f"below the cross-shard lookahead"
            )
        super().set_colocated(a, b)

    def minimum_cross_latency(self) -> float:
        """Lower bound on one-way latency between different-shard nodes.

        The minimum over every registered profile's
        :meth:`LatencyModel.minimum` — except loopback, which only ever
        applies to co-located (same-lane, enforced above) pairs.  This
        is the engine's conservative lookahead.
        """
        candidates = [self._default.latency.minimum()]
        candidates.extend(
            profile.latency.minimum()
            for _, _, profile in self._prefix_profiles
        )
        return min(candidates)

    # ------------------------------------------------------------------
    # Transmission (hooks of the base class's transmit)
    # ------------------------------------------------------------------
    def _latency_rng(self, src: str) -> random.Random:
        """*src*'s own stream (the registry memoises it by name)."""
        return self._rng_registry.stream(f"latency:{src}")

    def _lane_of(self, dst: str) -> Simulator | None:
        """*dst*'s lane, or ``None`` for a name not registered yet."""
        slot = self._node_lane.get(dst)
        return None if slot is None else self._engine.lane(slot)

    def _hand_off(self, sim: Simulator, delay: float, message: Message) -> None:
        """Schedule a delivery whose route does not name the sending lane
        *sim*: through its outbox, or on *sim* when a route built before
        the destination was registered hid that they share it."""
        src_slot = sim.slot
        dst_slot = self._node_lane[message.dst]
        if dst_slot == src_slot:
            sim.after(delay, self._deliver, message)
        else:
            seq = self._outbox_seq[src_slot]
            self._outbox_seq[src_slot] = seq + 1
            self._outboxes[src_slot].append(
                (sim.now + delay, seq, dst_slot, message)
            )
            self._engine.exchange_pending = True
            self.cross_border_count += 1
            if self._perf_cross is not None:
                self._perf_cross.add(message.size_bytes)

    # ------------------------------------------------------------------
    # Barrier work
    # ------------------------------------------------------------------
    def remove_node(self, name: str) -> None:
        """Queue deregistration; it takes effect at the next barrier.

        Mid-window removal would make another lane's send see the node
        present or absent depending on which lane's window ran first;
        barrier alignment makes the visibility change a fixed point of
        the (shard-count-invariant) barrier grid.
        """
        self._pending_removals.append(name)
        self._engine.exchange_pending = True

    def _on_barrier(self, horizon: float) -> None:
        if not self._pending_removals and not any(self._outboxes):
            return
        transfers: list[tuple[float, int, int, int, Message]] = []
        for slot, outbox in enumerate(self._outboxes):
            if outbox:
                self._outboxes[slot] = []
                for arrival, seq, dst_slot, message in outbox:
                    transfers.append((arrival, seq, slot, dst_slot, message))
        transfers.sort()  # canonical: the (time, seq, shard) prefix is unique
        lanes = self._engine._all
        for arrival, _seq, _src, dst_slot, message in transfers:
            if arrival < horizon:
                raise SimulationError(
                    f"cross-border message {message.kind!r} arriving at "
                    f"t={arrival} inside the lookahead window (barrier "
                    f"{horizon}); is a profile's minimum() overstated?"
                )
            # Between windows no lane is active: a plain push.
            Simulator.at(lanes[dst_slot], arrival, self._deliver, message)
        for name in self._pending_removals:
            self._nodes.pop(name, None)
        self._pending_removals = []
