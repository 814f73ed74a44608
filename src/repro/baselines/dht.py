"""DHT-based routing lookup — the alternative §3.2.4 rejects.

"Matrix could use alternate lookup methods (such as DHTs), but that
would result in increased latency (e.g., DHT schemes usually need
O(log(N)) lookups for N Matrix servers)."

Two layers live here:

* the closed-form cost model (:func:`dht_lookup_cost`,
  :func:`chord_expected_hops`) the ablation bench plots, and
* :class:`DhtExperiment` — the same architecture as a *real*
  event-driven system: a fixed grid of game servers, identical to the
  static baseline, except that resolving which zone router must receive
  a spatially-tagged packet costs a Chord-style overlay lookup —
  ``ceil(log2 N)``-bounded hop chains walked as actual ``dht.hop``
  messages over the simulated LAN, with the packet buffered at the
  requester until ``dht.result`` lands.  Hop counts are drawn from the
  experiment's own :mod:`repro.sim.rng` stream, so runs are
  deterministic and PYTHONHASHSEED-independent like the rest of the
  sim; the measured mean is asserted against ``½·log2 N`` in tests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.baselines.backend import ArchitectureBackend
from repro.baselines.static import StaticZoneRouter
from repro.core.config import PerfConfig
from repro.core.messages import SpatialPacket
from repro.games.base import GameServer
from repro.games.profile import GameProfile
from repro.geometry import Rect, RegionIndex, Vec2
from repro.net.message import Message
from repro.net.node import handles


# ----------------------------------------------------------------------
# Closed-form model
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class LookupCost:
    """Expected per-packet routing lookup cost."""

    servers: int
    expected_hops: float
    expected_latency: float


def chord_expected_hops(servers: int) -> float:
    """Expected Chord lookup path length: ½·log2(N)."""
    if servers < 1:
        raise ValueError("need at least one server")
    if servers == 1:
        return 0.0
    return math.log2(servers) / 2.0


def dht_lookup_cost(
    servers: int, hop_latency: float = 0.35e-3
) -> LookupCost:
    """Expected DHT lookup cost at *servers* nodes (LAN hop latency)."""
    hops = chord_expected_hops(servers)
    return LookupCost(
        servers=servers,
        expected_hops=hops,
        expected_latency=hops * hop_latency,
    )


def sample_chord_hops(servers: int, rng: random.Random) -> int:
    """Sample one lookup's hop count.

    Each hop halves the remaining identifier distance; the sampled hop
    count is binomial around the ½·log2 N expectation, truncated at
    ``ceil(log2 N)``.  Pass a :class:`~repro.sim.rng.RngRegistry`
    stream (not the global ``random`` module) so backend runs stay
    deterministic and PYTHONHASHSEED-independent.
    """
    if servers <= 1:
        return 0
    max_hops = int(math.ceil(math.log2(servers)))
    return sum(1 for _ in range(max_hops) if rng.random() < 0.5)


def sample_dht_lookup(
    servers: int, rng: random.Random, hop_latency: float = 0.35e-3
) -> float:
    """Sample one lookup latency: sampled hop count × hop RTT."""
    return sample_chord_hops(servers, rng) * hop_latency


# ----------------------------------------------------------------------
# Event-driven system
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class LookupHop:
    """One in-flight overlay lookup step."""

    lookup_id: int
    origin: str
    target_zone: str
    remaining: int


@dataclass(frozen=True, slots=True)
class LookupResult:
    """The overlay's answer: which router serves *target_zone*."""

    lookup_id: int
    router: str


class DhtZoneRouter(StaticZoneRouter):
    """The middleware tier of one DHT-routed zone.

    A :class:`~repro.baselines.static.StaticZoneRouter` — fixed tile,
    overlap forwarding, finite service rate, no adaptation — except
    that mapping an owner zone to the router serving it is not a local
    table hit: every remote owner costs a Chord-style lookup walked hop
    by hop around the overlay ring, with the game packet buffered here
    until the answer returns.  Only the owner-resolution step differs;
    announce/forward/load duties are inherited so the two baselines
    cannot drift apart.
    """

    def __init__(
        self,
        name: str,
        game_server: str,
        partition: Rect,
        table: RegionIndex,
        router_of: dict[str, str],
        directory: dict[str, Rect],
        radius: float,
        ring: list[str],
        sample_hops,
    ) -> None:
        super().__init__(
            name, game_server, partition, table, router_of, directory, radius
        )
        self._ring = ring
        self._ring_index = ring.index(name)
        self._sample_hops = sample_hops
        self._lookup_seq = 0
        #: lookup id -> (packet, size_bytes, started_at, hops).
        self._pending: dict[int, tuple[SpatialPacket, int, float, int]] = {}
        self.lookups = 0
        self.hop_counts: list[int] = []
        self.lookup_latencies: list[float] = []

    @handles("game.spatial")
    def _on_spatial_via_overlay(self, message: Message) -> None:
        packet: SpatialPacket = message.payload
        consistency = self._table.lookup_or_none(packet.origin)
        if consistency is None:
            return  # roaming client mid-handoff; its new zone handles it
        # Sorted for cross-process determinism (see SpatialRouter).
        for owner in sorted(consistency):
            router = self._router_of.get(owner)
            if router is None:
                continue
            if router == self.name:
                # A node resolves its own zone locally — no overlay walk.
                self._forward(router, packet, message.size_bytes)
            else:
                self._lookup_then_forward(owner, packet, message.size_bytes)

    def _forward(
        self, router: str, packet: SpatialPacket, size_bytes: int
    ) -> None:
        self.send(router, "matrix.forward", packet, size_bytes=size_bytes)
        self.forwarded_packets += 1

    def _lookup_then_forward(
        self, owner: str, packet: SpatialPacket, size_bytes: int
    ) -> None:
        hops = self._sample_hops()
        self.lookups += 1
        if hops == 0:
            # The requester's finger table already points at the owner.
            self.hop_counts.append(0)
            self.lookup_latencies.append(0.0)
            self._forward(self._router_of[owner], packet, size_bytes)
            return
        self._lookup_seq += 1
        lookup_id = self._lookup_seq
        self._pending[lookup_id] = (packet, size_bytes, self.sim.now, hops)
        successor = self._ring[(self._ring_index + 1) % len(self._ring)]
        self.send(
            successor,
            "dht.hop",
            LookupHop(
                lookup_id=lookup_id,
                origin=self.name,
                target_zone=owner,
                remaining=hops - 1,
            ),
            size_bytes=48,
        )

    @handles("dht.hop")
    def _on_hop(self, message: Message) -> None:
        hop: LookupHop = message.payload
        if hop.remaining > 0:
            successor = self._ring[(self._ring_index + 1) % len(self._ring)]
            self.send(
                successor,
                "dht.hop",
                LookupHop(
                    lookup_id=hop.lookup_id,
                    origin=hop.origin,
                    target_zone=hop.target_zone,
                    remaining=hop.remaining - 1,
                ),
                size_bytes=48,
            )
            return
        # This node "knows" the owner: answer the requester directly.
        self.send(
            hop.origin,
            "dht.result",
            LookupResult(
                lookup_id=hop.lookup_id,
                router=self._router_of[hop.target_zone],
            ),
            size_bytes=48,
        )

    @handles("dht.result")
    def _on_result(self, message: Message) -> None:
        result: LookupResult = message.payload
        pending = self._pending.pop(result.lookup_id, None)
        if pending is None:
            return
        packet, size_bytes, started, hops = pending
        self.hop_counts.append(hops)
        self.lookup_latencies.append(self.sim.now - started)
        self._forward(result.router, packet, size_bytes)


class DhtExperiment(ArchitectureBackend):
    """A static grid whose routing lookup rides a Chord-style overlay.

    * **ownership** — fixed tiles, exactly like the static baseline.
    * **routing** — overlap-region forwarding, but each remote owner
      resolution costs an O(log N) overlay walk (``dht.hop`` chain)
      before the packet can be forwarded.
    * **consistency traffic** — the lookup chains themselves, plus the
      same overlap forwards the static baseline pays.
    """

    name = "dht"
    fault_kinds = ("matrix.forward", "dht.hop", "dht.result")

    def __init__(
        self,
        profile: GameProfile,
        seed: int = 0,
        columns: int = 4,
        rows: int = 2,
        queue_capacity: int | None = 20000,
        perf: PerfConfig | None = None,
    ) -> None:
        self._columns = columns
        self._rows = rows
        self._queue_capacity = queue_capacity
        super().__init__(profile, seed=seed, perf=perf)

    def build(self) -> None:
        from repro.baselines.static import StaticDeployment  # shared wiring

        servers = self._columns * self._rows
        ring = [f"dht-ms.{i + 1}" for i in range(servers)]
        #: Named stream: lookup sampling is deterministic per seed and
        #: independent of every other component's draws.
        lookup_rng = self.rng.stream("dht.lookup")

        def make_router(**kwargs) -> DhtZoneRouter:
            return DhtZoneRouter(
                ring=ring,
                sample_hops=lambda: sample_chord_hops(servers, lookup_rng),
                **kwargs,
            )

        self.deployment = StaticDeployment(
            self.sim,
            self.network,
            self.profile,
            columns=self._columns,
            rows=self._rows,
            queue_capacity=self._queue_capacity,
            router_prefix="dht-ms.",
            router_factory=make_router,
        )

    def locate(self, point: Vec2) -> str:
        """Ownership: the fixed tile containing *point*."""
        return self.deployment.locate_game_server(point)

    @property
    def game_servers(self) -> dict[str, GameServer]:
        return self.deployment.game_servers

    @property
    def routers(self) -> dict[str, "DhtZoneRouter"]:
        """The DHT zone routers, keyed by node name."""
        return self.deployment.routers

    def fault_nodes(self) -> list:
        """Hop chains and forwards travel router-to-router."""
        return list(self.deployment.routers.values())

    def consistency_metrics(self) -> dict[str, float]:
        """Measured overlay costs vs the closed-form expectation."""
        from repro.analysis.stats import percentile

        hop_counts: list[int] = []
        latencies: list[float] = []
        lookups = 0
        for router in self.routers.values():
            hop_counts.extend(router.hop_counts)
            latencies.extend(router.lookup_latencies)
            lookups += router.lookups
        stats = self.network.stats
        dht_messages = stats.kind_messages("dht.")
        dht_bytes = stats.kind_bytes("dht.")
        servers = len(self.game_servers)
        return {
            "servers": float(servers),
            "lookups": float(lookups),
            "mean_hops": (
                sum(hop_counts) / len(hop_counts) if hop_counts else 0.0
            ),
            "expected_hops": chord_expected_hops(servers),
            "mean_lookup_latency": (
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
            "p99_lookup_latency": (
                percentile(latencies, 99) if latencies else 0.0
            ),
            "dht_messages": float(dht_messages),
            "dht_bytes": float(dht_bytes),
        }
