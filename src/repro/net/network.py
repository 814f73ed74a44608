"""The simulated network connecting all hosts.

Transmission model: a message from A to B experiences

* serialisation delay ``size / bandwidth`` on the sending link, and
* one-way propagation latency drawn from the pair's latency model,

after which it is delivered into B's finite-rate receive queue (see
:mod:`repro.net.queue`).  Link profiles are resolved per source/dest
pair, with name-prefix rules so whole host classes (e.g. ``client.*``)
can share a WAN profile without enumerating pairs.

A pair is resolved once; a packet costs one tuple lookup: the first
send of an ordered pair builds its :class:`Route`, which
:meth:`Network.transmit` reads everything off, and any profile rule
change drops every route.  A route's latency draw is shared by every
route with the same model and stream.  The sharded network shares this
transmit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.net.latency import ConstantLatency, LatencyModel, lan, loopback, wan
from repro.net.message import Message
from repro.net.node import Node
from repro.net.stats import Counter, TrafficStats
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.perf import PerfRegistry


@dataclass(slots=True)
class LinkProfile:
    """Latency + bandwidth for one class of paths."""

    latency: LatencyModel
    bandwidth: float  # bytes per second

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive: {self.bandwidth}")


def lan_profile(bandwidth: float = 125e6) -> LinkProfile:
    """Gbit-class LAN (125 MB/s)."""
    return LinkProfile(latency=lan(), bandwidth=bandwidth)


def wan_profile(bandwidth: float = 1.25e6) -> LinkProfile:
    """Consumer broadband of the paper's era (~10 Mbit/s)."""
    return LinkProfile(latency=wan(), bandwidth=bandwidth)


def loopback_profile() -> LinkProfile:
    """Same-host IPC: effectively infinite bandwidth, ~50 µs latency."""
    return LinkProfile(latency=loopback(), bandwidth=12.5e9)


#: Shared immutable loopback profile for co-located pairs.  The profile
#: is constant-latency and stateless, so one instance can serve every
#: pair; building a fresh model per packet showed up in profiles.
_LOOPBACK = loopback_profile()


class Route:
    """One ordered pair's fixed latency (or ``None``), latency draw
    (``None`` on a constant link), bandwidth, ``by_pair`` counter and the
    simulator its destination lives on (``None`` when not known yet)."""

    __slots__ = ("fixed", "draw", "bandwidth", "counter", "lane")

    def __init__(self, profile: LinkProfile, counter: Counter, draw, lane) -> None:
        self.fixed = profile.latency.fixed
        self.draw = draw
        self.bandwidth = profile.bandwidth
        self.counter = counter
        self.lane = lane


class Network:
    """Registry of nodes plus the transmission fabric between them."""

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random | None = None,
        default_profile: LinkProfile | None = None,
        perf: "PerfRegistry | None" = None,
    ) -> None:
        self.sim = sim
        self._rng = rng if rng is not None else random.Random(0)
        self._nodes: dict[str, Node] = {}
        self._default = default_profile or LinkProfile(
            latency=ConstantLatency(1e-3), bandwidth=125e6
        )
        self._prefix_profiles: list[tuple[str, str, LinkProfile]] = []
        self._colocated: dict[str, str] = {}
        self._routes: dict[tuple[str, str], Route] = {}
        #: One draw per (latency model, stream), shared by every route
        #: on it: survives the route memo, and no closure per pair.
        self._draws: dict[tuple[LatencyModel, random.Random], Callable] = {}
        #: Never rebound: routes hold its ``by_pair`` counters.
        self.stats = TrafficStats()
        #: Send-side observers: each tap is called with every message
        #: right after it is accounted (``sent_at`` already stamped).
        #: The trace recorder subscribes here; the hot path pays one
        #: falsy check when no tap is installed.
        self._taps: list = []
        self.delivered_count = 0
        #: Messages addressed to a node that was gone at send time or
        #: vanished in flight (decommission races, chaos crashes).
        self.undeliverable_count = 0
        self.perf = perf
        self._perf_profile_miss = (
            perf.counter("net.profile_cache_misses")
            if perf is not None
            else None
        )

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def sim_for(self, node: Node) -> Simulator:
        """The simulation handle *node* should schedule against.

        The classic network has a single kernel, so every node shares
        it.  The sharded network overrides this to hand each node its
        shard's lane simulator; :meth:`Node.attach` caches the result.
        """
        return self.sim

    def add_node(self, node: Node) -> Node:
        """Register *node*; names must be unique."""
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name: {node.name}")
        self._nodes[node.name] = node
        node.attach(self)
        return node

    def remove_node(self, name: str) -> None:
        """Deregister a node (messages in flight to it are dropped)."""
        self._nodes.pop(name, None)

    def has_node(self, name: str) -> bool:
        """True when *name* is currently registered."""
        return name in self._nodes

    def set_prefix_profile(
        self, src_prefix: str, dst_prefix: str, profile: LinkProfile
    ) -> None:
        """Profile for any pair whose names start with the given prefixes.

        Rules are checked in registration order; first match wins.
        """
        self._prefix_profiles.append((src_prefix, dst_prefix, profile))
        self._routes.clear()

    def set_colocated(self, a: str, b: str) -> None:
        """Mark two nodes as sharing a host (loopback path both ways).

        The paper co-locates each game server with its Matrix server "to
        minimize the network latency"; this is how that is expressed.
        """
        self._colocated[a] = b
        self._colocated[b] = a
        self._routes.clear()

    def profile_for(self, src: str, dst: str) -> LinkProfile:
        """``src → dst``'s profile: colocation, prefixes, default."""
        if self._colocated.get(src) == dst:
            return _LOOPBACK
        for src_prefix, dst_prefix, profile in self._prefix_profiles:
            if src.startswith(src_prefix) and dst.startswith(dst_prefix):
                return profile
        return self._default

    def _route(self, src: str, dst: str) -> Route:
        """First send of ``src → dst`` since the rules last changed."""
        if self._perf_profile_miss is not None:
            self._perf_profile_miss.inc()
        key = (src, dst)
        profile = self.profile_for(src, dst)
        latency = profile.latency
        draw = None
        if latency.fixed is None:
            rng = self._latency_rng(src)
            draw = self._draws.get((latency, rng))
            if draw is None:
                draw = self._draws[latency, rng] = latency.sampler(rng)
        route = Route(profile, self.stats.by_pair[key], draw, self._lane_of(dst))
        self._routes[key] = route
        return route

    def _latency_rng(self, src: str) -> random.Random:
        """The stream *src*'s latency jitter is drawn from."""
        return self._rng

    def _lane_of(self, dst: str) -> Simulator | None:
        """The simulator *dst* lives on: the one there is."""
        return self.sim

    # ------------------------------------------------------------------
    # Stats taps
    # ------------------------------------------------------------------
    def add_tap(self, tap) -> None:
        """Subscribe *tap* to every sent message (``tap(message)``).

        Taps observe the send-side stream exactly as the traffic stats
        do — after ``sent_at`` is stamped, before delivery scheduling —
        so a tap sees dropped/undeliverable messages too.  Used by
        :class:`repro.trace.recorder.TraceRecorder`.
        """
        self._taps.append(tap)

    def remove_tap(self, tap) -> None:
        """Unsubscribe a previously added tap (idempotent)."""
        if tap in self._taps:
            self._taps.remove(tap)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(self, message: Message) -> None:
        """Send *message*; it is dropped if the destination is unknown.

        Unknown destinations happen legitimately during reclamation
        races (a peer may route to a server an instant after it was
        returned to the pool); the Matrix protocol tolerates the loss
        because the reclaiming parent re-announces the merged range.
        The order of the steps below is the determinism contract.
        """
        sim = self.sim.current
        message.sent_at = sim.now
        src, dst, size = message.src, message.dst, message.size_bytes
        entry = self.stats.by_kind[message.kind]
        entry.messages += 1
        entry.bytes += size
        route = self._routes.get((src, dst))
        if route is None:
            route = self._route(src, dst)
        entry = route.counter
        entry.messages += 1
        entry.bytes += size
        if self._taps:
            # Lane order on the sharded network: the trace recorder
            # sorts what it buffers.
            for tap in self._taps:
                tap(message)
        if dst not in self._nodes:
            self.undeliverable_count += 1
            return
        delay = route.fixed
        if delay is None:
            delay = route.draw()
        delay += size / route.bandwidth
        # The message rides the heap entry (``arg``): no closure.  On the
        # plain network the destination's lane is always the sender's.
        if route.lane is sim:
            sim.after(delay, self._deliver, message)
        else:
            self._hand_off(sim, delay, message)

    def _hand_off(self, sim: Simulator, delay: float, message: Message) -> None:
        """Schedule a delivery whose route does not name the sending
        simulator *sim* — a lane crossing, which the sharded network
        overrides.  Here it is reached only with a sharded engine as
        ``self.sim``, whose lanes defer a crossing ``after`` themselves."""
        sim.after(delay, self._deliver, message)

    def _deliver(self, message: Message) -> None:
        node = self._nodes.get(message.dst)
        if node is None:
            self.undeliverable_count += 1
            return  # destination decommissioned while in flight
        self.delivered_count += 1
        node._inbox.deliver(message)
