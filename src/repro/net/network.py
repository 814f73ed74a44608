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
:meth:`Network.transmit` reads everything off.  A fan-out is one
message: :meth:`Network.multicast` takes it with its destination list
and does, per destination, what ``transmit`` does for a send, so every
arrival of the fan-out carries the same :class:`Message`.  An arrival's
destination is its queue, never the message's ``dst`` (``None`` on a
fan-out): taps are called with it, and a detached queue hands back the
name it was removed under.  A new prefix rule drops
every route; a colocation drops only the routes that name one of its
two nodes, the only pairs whose profile it can change.  A route's
latency draw is shared by every route with the same model and stream.
The sharded network shares this transmit.

A packet crosses the kernel without a network frame on the far side:
``transmit`` pushes the heap entry itself, and its callback is the
route's *arrival* — the destination's bound ``ReceiveQueue.deliver``,
bound once per node and shared by every route to it.  A node's
removal detaches its queue and drops its routes, so an arrival in
flight to a removed node meets a queue that hands it back
(:meth:`Network._arrive_detached`): the lookup by name happens on that
rare branch only.
"""

from __future__ import annotations

import random
from heapq import heappush
from typing import TYPE_CHECKING, Callable, Collection

from repro.net.latency import ConstantLatency, LatencyModel, lan, loopback, wan
from repro.net.message import Message
from repro.net.node import Node
from repro.net.stats import Counter, TrafficStats
from repro.sim.kernel import SimulationError, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.perf import PerfRegistry


class LinkProfile:
    """Latency + bandwidth for one class of paths."""

    __slots__ = ("latency", "bandwidth")

    def __init__(self, latency: LatencyModel, bandwidth: float) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive: {bandwidth}")
        self.latency = latency
        self.bandwidth = bandwidth  # bytes per second


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
    (``None`` on a constant link), bandwidth, ``by_pair`` counter, the
    simulator its destination lives on and the destination's arrival
    callable (both ``None`` while the destination is not registered)."""

    __slots__ = ("fixed", "draw", "bandwidth", "counter", "lane", "arrive")

    def __init__(
        self, profile: LinkProfile, counter: Counter, draw, lane, arrive
    ) -> None:
        self.fixed = profile.latency.fixed
        self.draw = draw
        self.bandwidth = profile.bandwidth
        self.counter = counter
        self.lane = lane
        self.arrive = arrive


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
        #: Send-side observers: each tap is called as ``tap(message,
        #: dst)`` once per destination, right after it is accounted.
        #: The trace recorder subscribes here; the hot path pays one
        #: falsy check when no tap is installed.
        self._taps: list = []
        #: Arrivals at the queues of nodes removed so far.
        self._retired_arrivals = 0
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
        """Deregister a node.

        Its queue is detached — a message in flight to it goes to the
        node that holds the name when it arrives, if any, and is
        undeliverable otherwise — every route naming it is dropped, so
        no route keeps the dead queue alive, and so is its colocation.
        Removals are rare (reclaims, crashes), so the scan is cheap.
        """
        node = self._nodes.pop(name, None)
        if node is None:
            return
        queue = node._inbox
        queue.detach(self, name)
        self._retired_arrivals += queue.arrivals
        self._uncolocate(name)
        self._drop_routes(name)

    def has_node(self, name: str) -> bool:
        """True when *name* is currently registered."""
        return name in self._nodes

    @property
    def delivered_count(self) -> int:
        """Messages that reached a registered node's receive queue.

        Derived from the queues (:attr:`ReceiveQueue.arrivals`), not
        counted per packet.
        """
        return self._retired_arrivals + sum(
            node._inbox.arrivals for node in self._nodes.values()
        )

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
        A node shares a host with one other at most: a former partner
        of *a* or *b* loses its loopback.
        """
        self._uncolocate(a)
        self._uncolocate(b)
        self._colocated[a] = b
        self._colocated[b] = a
        # Only a pair leaving a or b can switch profile: a former partner
        # of either still names a or b.
        self._drop_routes(a, b)

    def _uncolocate(self, name: str) -> None:
        """Forget *name*'s colocation, both ways."""
        partner = self._colocated.pop(name, None)
        if partner is not None and self._colocated.get(partner) == name:
            del self._colocated[partner]

    def _drop_routes(self, *names: str) -> None:
        """Forget every route from or to one of *names*."""
        routes = self._routes
        for key in [
            key for key in routes if key[0] in names or key[1] in names
        ]:
            del routes[key]

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
        node = self._nodes.get(dst)
        route = Route(
            profile,
            self.stats.by_pair[key],
            draw,
            self._lane_of(dst),
            None if node is None else node._arrive,
        )
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
        """Subscribe *tap* to every sent message: ``tap(message, dst)``.

        Taps observe the send-side stream exactly as the traffic stats
        do — after accounting, before delivery scheduling — so a tap
        sees dropped/undeliverable messages too.  A fan-out calls each
        tap once per destination, with the one message it sends to all
        of them; *dst* is the destination (a fan-out's ``message.dst``
        is ``None``).  The clock at the call is the send time.  Used by
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
                tap(message, dst)
        arrive = route.arrive
        if arrive is None:
            node = self._nodes.get(dst)
            if node is None:
                self.undeliverable_count += 1
                return
            # Registered after the route was built.
            arrive = route.arrive = node._arrive
            route.lane = self._lane_of(dst)
        delay = route.fixed
        if delay is None:
            delay = route.draw()
        delay += size / route.bandwidth
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        # The arrival is the destination queue's ``deliver``, the message
        # rides the heap entry (``arg``), and the entry is pushed here:
        # the entry contract of repro.sim.events.  On the plain network
        # the destination's lane is always the sender's.
        if route.lane is sim:
            heappush(
                sim._heap, [sim.now + delay, next(sim._counter), arrive, message]
            )
        else:
            self._hand_off(sim, delay, route, message)

    def multicast(self, message: Message, dsts: Collection[str]) -> None:
        """Send *message* to each of *dsts* in order (its ``dst`` is
        ``None``): :meth:`Node.multicast`'s one network call.

        ``by_kind`` is accounted once, for all of them; then each
        destination gets exactly :meth:`transmit`'s steps, in its order:
        the pair's counter, the taps, the undeliverable check, one
        latency draw and the arrival push (or hand-off), which takes the
        next sequence number.  Every arrival carries *message*.  This is
        the second copy of those steps: one loop that also served
        ``send`` (over ``(message.dst,)``) ran 3.0 % more bytecodes on
        ``crowd-static``, whose traffic is single sends.
        ``tests/net/test_send_path.py`` holds the two copies equal.
        """
        sim = self.sim.current
        now, heap, seq = sim.now, sim._heap, sim._counter
        src, size = message.src, message.size_bytes
        count = len(dsts)
        entry = self.stats.by_kind[message.kind]
        entry.messages += count
        entry.bytes += count * size
        routes = self._routes
        taps = self._taps
        for dst in dsts:
            route = routes.get((src, dst))
            if route is None:
                route = self._route(src, dst)
            entry = route.counter
            entry.messages += 1
            entry.bytes += size
            if taps:
                for tap in taps:
                    tap(message, dst)
            arrive = route.arrive
            if arrive is None:
                node = self._nodes.get(dst)
                if node is None:
                    self.undeliverable_count += 1
                    continue
                arrive = route.arrive = node._arrive
                route.lane = self._lane_of(dst)
            delay = route.fixed
            if delay is None:
                delay = route.draw()
            delay += size / route.bandwidth
            if delay < 0:
                raise SimulationError(f"negative delay: {delay}")
            if route.lane is sim:
                heappush(heap, [now + delay, next(seq), arrive, message])
            else:
                self._hand_off(sim, delay, route, message)

    def _hand_off(
        self, sim: Simulator, delay: float, route: Route, message: Message
    ) -> None:
        """Schedule an arrival whose route does not name the sending
        simulator *sim*: a lane crossing, which only the sharded network
        has."""
        raise SimulationError(
            "a plain Network runs on one Simulator; shard lanes need the "
            "sharded network"
        )

    def _arrive_detached(
        self, message: Message, name: str, sim: Simulator
    ) -> None:
        """An arrival the queue of the node removed as *name* refused
        (it fired on *sim*): the node holding the name now gets it, or
        it is undeliverable — the destination was decommissioned in
        flight."""
        node = self._nodes.get(name)
        if node is None:
            self.undeliverable_count += 1
        elif node.sim is not sim:
            raise SimulationError(
                f"a message in flight to {name!r} arrived after "
                f"the name was re-added on another lane"
            )
        else:
            node._arrive(message)
