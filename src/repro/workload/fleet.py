"""Client fleet management: spawning, waves, departures, churn.

The fleet is the workload generator of every experiment: it creates
:class:`~repro.games.base.GameClient` nodes, joins them to whichever
game server owns their position (via a pluggable locator, so the same
fleet drives Matrix *and* every baseline), and schedules the
arrival/departure waves that make up a scenario.

The fleet is mobility-agnostic: it never names a concrete mobility
class.  Every spawn resolves a :class:`~repro.workload.mobility.
MobilitySpec` through the mobility registry, so new movement models
plug in without touching this module (see
:mod:`repro.workload.scenarios` for the declarative layer on top).
"""

from __future__ import annotations

import random
from typing import Callable

from repro.games.base import GameClient
from repro.games.profile import GameProfile
from repro.geometry import Vec2
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.workload.mobility import MobilityEnv, MobilitySpec

#: Maps a world position to the name of the game server that owns it.
Locator = Callable[[Vec2], str]


class ClientFleet:
    """Creates and drives the client population of one experiment."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        profile: GameProfile,
        locator: Locator,
        rng: random.Random,
    ) -> None:
        self._sim = sim
        self._network = network
        self._profile = profile
        self._locator = locator
        self._rng = rng
        #: Clients spawned so far; the last one is ``client.<spawned>``.
        self.spawned = 0
        #: When set, every client watches for snapshot silence and
        #: rejoins via the locator (chaos runs; see enable_rejoin).
        self._rejoin = False
        self.clients: list[GameClient] = []
        #: Named groups (e.g. "hotspot-1") for targeted departures.
        self.groups: dict[str, list[GameClient]] = {}
        #: Clients promised to each group (scheduled waves + churn
        #: arrivals so far); lets a drain know when it is truly done.
        self._scheduled: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------
    def enable_rejoin(self) -> None:
        """Arm dead-server detection on every present and future client.

        A client whose snapshots stop for
        :data:`~repro.games.base.REJOIN_TIMEOUT` seconds relocates
        through the fleet's locator and rejoins.  Armed by the chaos
        driver; plain runs never pay for the check.
        """
        self._rejoin = True
        for client in self.clients:
            client.enable_rejoin()

    def _new_client(self, mobility, position: Vec2) -> GameClient:
        self.spawned += 1
        client = GameClient(
            name=f"client.{self.spawned}",
            profile=self._profile,
            mobility=mobility,
            rng=random.Random(self._rng.getrandbits(64)),
            relocate=self._locator,
            position=position,
        )
        if self._rejoin:
            client.enable_rejoin()
        self._network.add_node(client)
        self.clients.append(client)
        client.join(self._locator(position), position)
        return client

    def _on_owner(self, client: GameClient, action: Callable[[], None]) -> None:
        """Run *action* in the context that owns *client*'s state.

        On the classic single-kernel substrate the client's sim *is*
        the fleet's sim and the action runs inline.  On the sharded
        substrate the client lives on a lane while fleet schedules run
        on the global lane; mutating the client directly from there
        would touch foreign-lane state mid-protocol.  Scheduling the
        action at the current time on the client's own lane makes it an
        ordinary lane event, executed exactly once, by the owner.
        """
        owner = client.sim
        if owner is self._sim:
            action()
        else:
            owner.at(self._sim.now, action)

    def _random_position(self) -> Vec2:
        world = self._profile.world
        return Vec2(
            self._rng.uniform(world.xmin, world.xmax - 1e-6),
            self._rng.uniform(world.ymin, world.ymax - 1e-6),
        )

    def _hotspot_position(self, center: Vec2, spread: float) -> Vec2:
        world = self._profile.world
        eps = 1e-6
        return Vec2(
            self._rng.gauss(center.x, spread),
            self._rng.gauss(center.y, spread),
        ).clamped(world.xmin, world.ymin, world.xmax - eps, world.ymax - eps)

    def _mobility_env(
        self, center: Vec2 | None = None, spread: float | None = None
    ) -> MobilityEnv:
        return MobilityEnv(
            world=self._profile.world,
            speed=self._profile.move_speed,
            rng=self._rng,
            center=center,
            spread=spread,
        )

    def spawn_group(
        self,
        count: int,
        at: float = 0.0,
        group: str = "background",
        mobility: MobilitySpec | None = None,
        center: Vec2 | None = None,
        spread: float | None = None,
        over: float = 0.0,
    ) -> None:
        """Schedule *count* players with any registered mobility model.

        Placement is uniform over the world unless *center* is given, in
        which case positions are Gaussian around it with sigma *spread*.
        With ``over == 0`` the whole group joins in one event at *at*;
        otherwise arrivals are spread evenly over *over* seconds (a
        burst, not a single instant, matching the paper's "600 clients
        joining").

        Group-shared mobility state (e.g. a flock's anchor) is created
        once here, per-client state at each arrival, with all randomness
        drawn from the fleet stream in a deterministic order.
        """
        if center is not None and spread is None:
            raise ValueError("center placement needs a spread")
        spec = mobility if mobility is not None else MobilitySpec()
        builder = spec.builder(self._mobility_env(center, spread))
        self._scheduled[group] = self._scheduled.get(group, 0) + count

        def spawn_one() -> None:
            members = self.groups.setdefault(group, [])
            # Draw order is part of the determinism contract: mobility
            # stream first, then placement, then the client's stream.
            mobility = builder()
            position = (
                self._hotspot_position(center, spread)
                if center is not None
                else self._random_position()
            )
            members.append(self._new_client(mobility, position))

        if over <= 0.0:
            def spawn_all() -> None:
                for _ in range(count):
                    spawn_one()

            self._sim.at(at, spawn_all)
        else:
            for i in range(count):
                offset = (i / max(count - 1, 1)) * over
                self._sim.at(at + offset, spawn_one)

    def spawn_churn(
        self,
        rate: float,
        start: float,
        stop: float,
        group: str = "churn",
        session: float = 30.0,
        mobility: MobilitySpec | None = None,
    ) -> None:
        """Continuous churn: one arrival every ``1/rate`` s in
        ``[start, stop)``; each arrival stays for an exponentially
        distributed session (mean *session* seconds) and then leaves.
        """
        if rate <= 0:
            raise ValueError(f"churn rate must be positive: {rate}")
        if session <= 0:
            raise ValueError(f"mean session must be positive: {session}")
        spec = mobility if mobility is not None else MobilitySpec()
        builder = spec.builder(self._mobility_env())
        interval = 1.0 / rate

        def arrive() -> None:
            if self._sim.now >= stop:
                return
            members = self.groups.setdefault(group, [])
            self._scheduled[group] = self._scheduled.get(group, 0) + 1
            client = self._new_client(builder(), self._random_position())
            members.append(client)
            lifetime = self._rng.expovariate(1.0 / session)

            def depart() -> None:
                # Not ``active``: a session may end before its welcome
                # arrives, and the late welcome is then answered with a
                # bye.  Re-checked on the owning lane: the client may
                # have left through another path in the same window.
                self._on_owner(
                    client,
                    lambda: None if client.departed else client.leave(),
                )

            self._sim.after(lifetime, depart)
            self._sim.after(interval, arrive)

        self._sim.at(start, arrive)

    # ------------------------------------------------------------------
    # Departures and migration
    # ------------------------------------------------------------------
    def depart_group(
        self,
        group: str,
        batch_size: int,
        start: float,
        interval: float,
    ) -> None:
        """Drain *group* in batches of *batch_size* every *interval* s.

        Matches Fig 2's "200 clients disappearing at fixed intervals".
        Each batch chains the next one until every client *promised* to
        the group (scheduled waves and churn arrivals alike) has been
        departed, so long-interval drains run to completion (no fixed
        batch cap), members still arriving — even whole waves landing
        after a batch emptied the group — are caught by later batches,
        and no dead events linger once the drain is done.  Members that
        leave on their own (e.g. churn sessions) keep the chain alive
        with no-op batches until the run ends.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive: {batch_size}")
        departed: set[str] = set()

        def leave_batch() -> None:
            members = self.groups.get(group, [])
            active = [client for client in members if client.active]
            for client in active[:batch_size]:
                self._on_owner(
                    client,
                    lambda c=client: c.leave() if c.active else None,
                )
                departed.add(client.name)
            # `departed` only decides when the chain may stop.  A member
            # still waiting for its welcome is not active yet, so a later
            # batch takes it; a client that has left never is again.
            if len(departed) < self._scheduled.get(group, 0):
                self._sim.after(interval, leave_batch)

        self._sim.at(start, leave_batch)

    def move_group_hotspot(self, group: str, center: Vec2, at: float) -> None:
        """Retarget a group's mobility toward a new centre at *at*.

        Goes through the public :meth:`~repro.games.base.GameClient.
        retarget` protocol; members whose model does not support
        retargeting are left alone.
        """

        def retarget() -> None:
            for client in self.groups.get(group, []):
                self._on_owner(
                    client, lambda c=client: c.retarget(center)
                )

        self._sim.at(at, retarget)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def active_clients(self) -> list[GameClient]:
        """Clients currently in the game."""
        return [client for client in self.clients if client.active]

    def all_action_latencies(self) -> list[float]:
        """Response latencies pooled across every client."""
        latencies: list[float] = []
        for client in self.clients:
            latencies.extend(client.action_latencies)
        return latencies

    def all_switch_latencies(self) -> list[float]:
        """Server-switch latencies pooled across every client."""
        latencies: list[float] = []
        for client in self.clients:
            latencies.extend(client.switch_latencies)
        return latencies
