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
  heap contents, and therefore results, are identical at any worker
  count and under any executor.
* **Latency randomness.**  The classic fabric draws all latency jitter
  from one shared stream, whose draw order would depend on executor
  interleaving.  Here every *source node* gets its own derived stream
  (``latency:<node>``): a node's sends are totally ordered within its
  lane, so its draws are reproducible by construction.
* **Traffic accounting.**  Stats and delivery counters are kept per
  lane (each lane only ever touches its own slot — no locks) and merged
  on read; :meth:`TrafficStats.merge_from` is exact, so the merged view
  equals a single-kernel run's.
* **Node removal.**  Decommissions take effect at the next barrier,
  identically at every shard count, instead of mid-window where other
  lanes' visibility of the removal would depend on execution order.

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
from repro.net.stats import TrafficStats
from repro.sim.events import DEFAULT_PRIORITY
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.rng import RngRegistry
from repro.sim.sharded import GLOBAL_LANE, LaneSimulator, ShardedSimulator

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
        # Per-lane slots (index ``shard_count`` is the global lane) are
        # built first: the base initializer assigns ``stats`` and the
        # delivery counters, which this class exposes as merged-on-read
        # properties over these slots.
        slots = shard_map.shard_count + 1
        self._global_slot = shard_map.shard_count
        self._lane_stats = [TrafficStats() for _ in range(slots)]
        self._lane_delivered = [0] * slots
        self._lane_undeliverable = [0] * slots
        self._lane_cross = [[0, 0] for _ in range(slots)]  # msgs, bytes
        self._lane_sent = [[0, 0] for _ in range(slots)]
        self._lane_received = [[0, 0] for _ in range(slots)]
        self._engine = engine
        self._map = shard_map
        self._rng_registry = rng_registry
        self._latency_rngs: dict[str, random.Random] = {}
        self._node_lane: dict[str, int] = {}
        self._outboxes: list[list] = [[] for _ in range(slots)]
        self._outbox_seq = [0] * slots
        #: Outbox bundles shipped from other processes, merged with the
        #: local drains at the next barrier (process executor only).
        self._staged: list[tuple[int, list]] = []
        self._pending_removals: list[list[str]] = [[] for _ in range(slots)]
        super().__init__(engine, default_profile=default_profile, perf=perf)
        # The base class's per-message perf hooks assume one thread of
        # execution; the sharded fabric accumulates per lane instead and
        # folds the totals into the registry in :meth:`flush_perf`.
        self._perf_sent = None
        self._perf_delivered = None
        self._perf_profile_miss = None
        engine.add_barrier_hook(self._on_barrier)
        engine.register_lane_hooks(self)

    # ------------------------------------------------------------------
    # Lane plumbing
    # ------------------------------------------------------------------
    @property
    def shard_map(self) -> ShardMap:
        """The static world tiling nodes are homed against."""
        return self._map

    def _slot_of(self, sim: LaneSimulator) -> int:
        index = sim.index
        return self._global_slot if index == GLOBAL_LANE else index

    def _active_slot(self) -> int:
        return self._slot_of(self._engine._context_sim())

    def _lane_sim(self, slot: int) -> LaneSimulator:
        if slot == self._global_slot:
            return self._engine.global_lane
        return self._engine.lane(slot)

    def sim_for(self, node: Node) -> Simulator:
        anchor = getattr(node, "shard_anchor", None)
        if anchor is None:
            slot = self._global_slot
        else:
            slot = self._map.lane_for_point(anchor)
        self._node_lane[node.name] = slot
        return self._lane_sim(slot)

    def lane_of(self, name: str) -> int | None:
        """The lane slot node *name* was homed on (None if never added)."""
        return self._node_lane.get(name)

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
            for profile in self._pair_profiles.values()
        )
        candidates.extend(
            profile.latency.minimum()
            for _, _, profile in self._prefix_profiles
        )
        return min(candidates)

    # ------------------------------------------------------------------
    # Merged-on-read accounting
    # ------------------------------------------------------------------
    @property
    def stats(self) -> TrafficStats:
        merged = TrafficStats()
        for lane_stats in self._lane_stats:
            merged.merge_from(lane_stats)
        return merged

    @stats.setter
    def stats(self, value: TrafficStats) -> None:
        # The base initializer assigns a fresh TrafficStats; per-lane
        # slots already exist, so the assignment has nothing to do.
        pass

    @property
    def delivered_count(self) -> int:
        return sum(self._lane_delivered)

    @delivered_count.setter
    def delivered_count(self, value: int) -> None:
        pass  # base-initializer zero assignment; slots are the truth

    @property
    def undeliverable_count(self) -> int:
        return sum(self._lane_undeliverable)

    @undeliverable_count.setter
    def undeliverable_count(self, value: int) -> None:
        pass  # base-initializer zero assignment; slots are the truth

    @property
    def cross_border_count(self) -> int:
        """Messages that crossed a shard boundary (through an outbox)."""
        return sum(entry[0] for entry in self._lane_cross)

    def flush_perf(self) -> None:
        """Fold the per-lane accumulators into the perf registry.

        Called once, after the run, by the sharded experiment: counters
        touched from several lanes mid-run would race under the thread
        executor, so the per-message path only bumps lane-local ints.
        """
        if self.perf is None:
            return
        totals = {
            "net.messages_sent": self._lane_sent,
            "net.messages_delivered": self._lane_received,
            "shard.cross_border": self._lane_cross,
        }
        for name, lanes in totals.items():
            messages = sum(entry[0] for entry in lanes)
            size = sum(entry[1] for entry in lanes)
            if messages:
                self.perf.counter(name).add(size, n=messages)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(self, message: Message) -> None:
        sim = self._engine._context_sim()
        src_slot = self._slot_of(sim)
        message.sent_at = sim._now
        self._lane_stats[src_slot].record(message)
        if self._taps:
            # Taps may fire from any lane (thread executor included);
            # observers needing a canonical order sort on their own
            # buffered events (the trace recorder does).
            for tap in self._taps:
                tap(message)
        sent = self._lane_sent[src_slot]
        sent[0] += 1
        sent[1] += message.size_bytes
        if message.dst not in self._nodes:
            self._lane_undeliverable[src_slot] += 1
            return
        profile = self._profile_cache.get((message.src, message.dst))
        if profile is None:
            profile = self.profile_for(message.src, message.dst)
        rng = self._latency_rngs.get(message.src)
        if rng is None:
            rng = self._latency_rng(message.src)
        delay = profile.latency.sample(rng) + message.size_bytes / profile.bandwidth
        arrival = sim._now + delay
        dst_slot = self._node_lane[message.dst]
        if dst_slot == src_slot:
            sim.at(arrival, self._deliver, DEFAULT_PRIORITY, "", message)
        else:
            seq = self._outbox_seq[src_slot]
            self._outbox_seq[src_slot] = seq + 1
            self._outboxes[src_slot].append((arrival, seq, dst_slot, message))
            cross = self._lane_cross[src_slot]
            cross[0] += 1
            cross[1] += message.size_bytes

    def _latency_rng(self, src: str) -> random.Random:
        """First send from *src*: derive and memoize its latency stream."""
        rng = self._latency_rngs[src] = self._rng_registry.stream(f"latency:{src}")
        return rng

    def _deliver(self, message: Message) -> None:
        slot = self._active_slot()
        node = self._nodes.get(message.dst)
        if node is None:
            self._lane_undeliverable[slot] += 1
            return  # destination decommissioned while in flight
        self._lane_delivered[slot] += 1
        received = self._lane_received[slot]
        received[0] += 1
        received[1] += message.size_bytes
        node._inbox.deliver(message)

    # ------------------------------------------------------------------
    # Barrier work
    # ------------------------------------------------------------------
    def remove_node(self, name: str) -> None:
        """Queue deregistration; it takes effect at the next barrier.

        Mid-window removal would make another lane's concurrent send see
        the node present or absent depending on executor interleaving;
        barrier alignment makes the visibility change a fixed point of
        the (shard-count-invariant) barrier grid.
        """
        self._pending_removals[self._active_slot()].append(name)

    def _on_barrier(self, horizon: float) -> None:
        transfers: list[tuple[float, int, int, int, Message]] = []
        staged = self._staged
        if staged:
            self._staged = []
            for slot, entries in staged:
                for arrival, seq, dst_slot, message in entries:
                    transfers.append((arrival, seq, slot, dst_slot, message))
        for slot, outbox in enumerate(self._outboxes):
            if outbox:
                self._outboxes[slot] = []
                for arrival, seq, dst_slot, message in outbox:
                    transfers.append((arrival, seq, slot, dst_slot, message))
        if transfers:
            # Canonical (time, seq, shard) injection order — staged and
            # locally drained entries form the same multiset in every
            # replica, so the merged order is identical everywhere.
            transfers.sort(key=lambda entry: entry[:3])
            for arrival, _seq, _src, dst_slot, message in transfers:
                if arrival < horizon:
                    raise SimulationError(
                        f"cross-border message {message.kind!r} arriving at "
                        f"t={arrival} inside the lookahead window (barrier "
                        f"{horizon}); is a profile's minimum() overstated?"
                    )
                sim = self._lane_sim(dst_slot)
                if self._engine._lane_live(sim):
                    sim.at(arrival, self._deliver, DEFAULT_PRIORITY, "", message)
        for slot, pending in enumerate(self._pending_removals):
            if pending:
                self._pending_removals[slot] = []
                for name in pending:
                    self._nodes.pop(name, None)

    # ------------------------------------------------------------------
    # Lane hook (process executor): ship outboxes, gather lane slots
    # ------------------------------------------------------------------
    def take_outbox(self, slot: int) -> tuple[int, list] | None:
        """Remove and return lane *slot*'s pending cross-lane traffic.

        Only lane-produced outboxes ever ship: the global slot's outbox
        is filled by replicated global execution, identically in every
        process, and drains locally.
        """
        outbox = self._outboxes[slot]
        if not outbox:
            return None
        self._outboxes[slot] = []
        return (slot, outbox)

    def stage(self, bundle: tuple[int, list] | None) -> None:
        if bundle is not None:
            self._staged.append(bundle)

    def collect(self, slot: int) -> None:
        return None  # traffic needs no per-window deltas, only gathers

    def apply(self, pairs, skip_slot) -> None:
        pass

    def gather(self, slot: int) -> tuple:
        """Lane *slot*'s accounting slots, for the master to overlay."""
        return (
            self._lane_stats[slot],
            self._lane_delivered[slot],
            self._lane_undeliverable[slot],
            list(self._lane_cross[slot]),
            list(self._lane_sent[slot]),
            list(self._lane_received[slot]),
        )

    def overlay(self, slot: int, payload: tuple) -> None:
        (
            self._lane_stats[slot],
            self._lane_delivered[slot],
            self._lane_undeliverable[slot],
            self._lane_cross[slot],
            self._lane_sent[slot],
            self._lane_received[slot],
        ) = payload
