"""Client mobility models and the mobility registry.

Each client owns one mobility instance (they are stateful).  The
hotspot experiments combine :class:`RandomWaypoint` background players
with :class:`HotspotMobility` players who loiter around the hotspot —
the "town hall during a town meeting" of §4.1.  The remaining models
open workloads the paper never ran: flocks that roam in formation,
commuters looping a fixed circuit, portal-hopping teleporters, and
pursuers chasing a quarry.

Models are pluggable through a registry: a
:class:`~repro.workload.fleet.ClientFleet` never names a concrete
class, it resolves a :class:`MobilitySpec` (``kind`` + parameters)
through :func:`mobility_builder`.  Registering a new model is one
decorated factory::

    @register_mobility("orbit")
    def _orbit(env: MobilityEnv, *, radius: float = 50.0):
        return lambda: OrbitMobility(env.world, radius, env.speed,
                                     env.child_rng())

Models may additionally implement ``retarget(target: Vec2)`` to accept
mid-run goal changes (see :meth:`repro.games.base.GameClient.retarget`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import hypot
from typing import Callable, Mapping

from repro.games.base import MobilityModel
from repro.geometry import Rect, Vec2

_EPS = 1e-6  # positions stay this far inside the world's max edges


def _clamp_into(world: Rect, p: Vec2) -> Vec2:
    """Keep positions strictly inside the half-open world bounds."""
    return p.clamped(
        world.xmin, world.ymin, world.xmax - _EPS, world.ymax - _EPS
    )


def _walk_toward(
    world: Rect, position: Vec2, goal: Vec2, travel: float
) -> Vec2 | None:
    """One constant-speed step toward *goal*, clamped into *world*;
    ``None`` once *travel* reaches the goal (arriving is the caller's
    business).  Every model steps through here once per update, so it
    is scalar arithmetic with one allocation: the unit vector toward
    *goal* times *travel*, added to *position* and clamped."""
    x = position.x
    y = position.y
    dx = goal.x - x
    dy = goal.y - y
    distance = hypot(dx, dy)
    if travel >= distance:
        return None
    x += dx / distance * travel
    y += dy / distance * travel
    return Vec2(
        min(max(x, world.xmin), world.xmax - _EPS),
        min(max(y, world.ymin), world.ymax - _EPS),
    )


class Stationary:
    """No movement; useful in unit tests and microbenchmarks."""

    def step(self, position: Vec2, dt: float) -> Vec2:
        return position


class RandomWaypoint:
    """The classic random-waypoint model.

    Pick a uniform random destination, walk to it at constant speed,
    optionally pause, repeat.
    """

    def __init__(
        self,
        world: Rect,
        speed: float,
        rng: random.Random,
        pause: float = 0.0,
    ) -> None:
        if speed < 0:
            raise ValueError(f"negative speed: {speed}")
        self._world = world
        self._speed = speed
        self._rng = rng
        self._pause = pause
        self._target: Vec2 | None = None
        self._pause_left = 0.0

    def _pick_target(self) -> Vec2:
        return Vec2(
            self._rng.uniform(self._world.xmin, self._world.xmax),
            self._rng.uniform(self._world.ymin, self._world.ymax),
        )

    def retarget(self, target: Vec2) -> None:
        """Abandon the current waypoint and head for *target*."""
        self._target = _clamp_into(self._world, target)
        self._pause_left = 0.0

    def step(self, position: Vec2, dt: float) -> Vec2:
        if self._pause_left > 0.0:
            self._pause_left = max(0.0, self._pause_left - dt)
            return position
        if self._target is None:
            self._target = self._pick_target()
        moved = _walk_toward(
            self._world, position, self._target, self._speed * dt
        )
        if moved is None:
            moved = _clamp_into(self._world, self._target)
            self._target = None
            self._pause_left = self._pause
        return moved


class HotspotMobility:
    """Loiter around a hotspot centre.

    The client walks toward a jittered point near the centre; once
    within the spread it mills about by re-sampling loiter points.
    This keeps the hotspot population concentrated (unlike random
    waypoint, which would diffuse it) while still generating movement
    traffic.
    """

    def __init__(
        self,
        world: Rect,
        center: Vec2,
        spread: float,
        speed: float,
        rng: random.Random,
    ) -> None:
        if spread <= 0:
            raise ValueError(f"spread must be positive: {spread}")
        self._world = world
        #: The hotspot centre this client gravitates to.
        self.center = center
        self._spread = spread
        self._speed = speed
        self._rng = rng
        self._target: Vec2 | None = None

    def retarget(self, center: Vec2) -> None:
        """Move the hotspot (second-hotspot phase of Fig 2)."""
        self.center = center
        self._target = None

    def _pick_loiter_point(self) -> Vec2:
        return _clamp_into(
            self._world,
            Vec2(
                self._rng.gauss(self.center.x, self._spread),
                self._rng.gauss(self.center.y, self._spread),
            ),
        )

    def step(self, position: Vec2, dt: float) -> Vec2:
        if self._target is None:
            self._target = self._pick_loiter_point()
        moved = _walk_toward(
            self._world, position, self._target, self._speed * dt
        )
        if moved is None:
            # Loiter points are clamped when picked.
            moved = self._target
            self._target = None
        return moved


#: Seconds of flock-anchor walk per step.
FLOCK_QUANTUM = 0.25


class Flock:
    """Shared state of one flock: a roaming formation anchor.

    The anchor performs a random-waypoint walk; every member steers
    toward a personal slot relative to it.  Members advance the anchor
    lazily to the furthest simulation time any of them has reached, in
    fixed quanta, so the walk is independent of how many members exist.
    """

    def __init__(
        self,
        world: Rect,
        speed: float,
        rng: random.Random,
        start: Vec2 | None = None,
    ) -> None:
        self._world = world
        self._walk = RandomWaypoint(world, speed, rng)
        self.anchor = (
            _clamp_into(world, start)
            if start is not None
            else Vec2(
                rng.uniform(world.xmin, world.xmax - 1e-6),
                rng.uniform(world.ymin, world.ymax - 1e-6),
            )
        )
        self._time = 0.0

    def anchor_at(self, time: float) -> Vec2:
        """Anchor position, advanced (monotonically) up to *time*."""
        while self._time + FLOCK_QUANTUM <= time:
            self.anchor = self._walk.step(self.anchor, FLOCK_QUANTUM)
            self._time += FLOCK_QUANTUM
        return self.anchor

    def retarget(self, target: Vec2) -> None:
        """Send the whole flock toward *target*."""
        self._walk.retarget(target)


class FlockMobility:
    """One member of a :class:`Flock`: group movement with local jitter.

    The member chases ``anchor + offset`` where the offset is a fixed
    per-member formation slot; because every member's speed exceeds the
    anchor's, stragglers catch up and the flock stays coherent while
    still producing per-client movement traffic.
    """

    def __init__(
        self,
        flock: Flock,
        world: Rect,
        speed: float,
        rng: random.Random,
        spacing: float = 12.0,
    ) -> None:
        if spacing < 0:
            raise ValueError(f"negative spacing: {spacing}")
        #: The shared flock whose anchor this member tracks.
        self.flock = flock
        self._world = world
        self._speed = speed
        self._offset = Vec2(rng.gauss(0.0, spacing), rng.gauss(0.0, spacing))
        self._time = 0.0

    def step(self, position: Vec2, dt: float) -> Vec2:
        self._time += dt
        goal = _clamp_into(
            self._world, self.flock.anchor_at(self._time) + self._offset
        )
        return (
            _walk_toward(self._world, position, goal, self._speed * dt) or goal
        )

    def retarget(self, target: Vec2) -> None:
        """Retarget the shared flock (affects every member)."""
        self.flock.retarget(target)


class CommuterMobility:
    """A fixed daily circuit: home → work → … → home, with pauses.

    The client loops forever over a small set of waystations drawn at
    construction time.  Populations of commuters concentrate on their
    stops and produce predictable cross-partition traffic streams —
    the opposite of random waypoint's uniform diffusion.
    """

    def __init__(
        self,
        world: Rect,
        speed: float,
        rng: random.Random,
        stops: int = 3,
        pause: float = 4.0,
    ) -> None:
        if stops < 2:
            raise ValueError(f"a circuit needs at least 2 stops: {stops}")
        if pause < 0:
            raise ValueError(f"negative pause: {pause}")
        self._world = world
        self._speed = speed
        self._pause = pause
        #: The circuit's waystations, in visiting order.
        self.stops = [
            Vec2(
                rng.uniform(world.xmin, world.xmax - 1e-6),
                rng.uniform(world.ymin, world.ymax - 1e-6),
            )
            for _ in range(stops)
        ]
        self._leg = 0
        self._pause_left = 0.0

    def step(self, position: Vec2, dt: float) -> Vec2:
        if self._pause_left > 0.0:
            self._pause_left = max(0.0, self._pause_left - dt)
            return position
        goal = self.stops[self._leg]
        stop = _clamp_into(self._world, goal)
        arrived = (
            _walk_toward(self._world, position, goal, self._speed * dt) or stop
        )
        if arrived == stop:
            self._leg = (self._leg + 1) % len(self.stops)
            self._pause_left = self._pause
        return arrived

    def retarget(self, target: Vec2) -> None:
        """Translate the whole circuit so its centroid lands on *target*."""
        n = len(self.stops)
        shift = Vec2(
            target.x - sum(p.x for p in self.stops) / n,
            target.y - sum(p.y for p in self.stops) / n,
        )
        self.stops = [
            _clamp_into(self._world, p + shift) for p in self.stops
        ]


class TeleportMobility:
    """Random waypoint with portals: arrivals sometimes teleport.

    On reaching a waypoint the client steps through a portal with
    probability *portal_chance* and reappears at a uniformly random
    exit.  Teleports defeat every locality assumption at once — the
    client's next update comes from a server that never saw it coming —
    so this model stress-tests the switch/handoff path.
    """

    def __init__(
        self,
        world: Rect,
        speed: float,
        rng: random.Random,
        portal_chance: float = 0.25,
    ) -> None:
        if not 0.0 <= portal_chance <= 1.0:
            raise ValueError(f"portal_chance out of [0, 1]: {portal_chance}")
        self._world = world
        self._speed = speed
        self._rng = rng
        self._portal_chance = portal_chance
        self._target: Vec2 | None = None

    def _random_point(self) -> Vec2:
        return Vec2(
            self._rng.uniform(self._world.xmin, self._world.xmax - 1e-6),
            self._rng.uniform(self._world.ymin, self._world.ymax - 1e-6),
        )

    def step(self, position: Vec2, dt: float) -> Vec2:
        if self._target is None:
            self._target = _clamp_into(self._world, self._random_point())
        arrived = (
            _walk_toward(self._world, position, self._target, self._speed * dt)
            or self._target
        )
        if arrived == self._target:
            self._target = None
            if self._rng.random() < self._portal_chance:
                return self._random_point()  # through the portal
        return arrived


class PursuitMobility:
    """Chase a roaming quarry (escort missions, player-hunting mobs).

    The quarry is a virtual entity doing its own random-waypoint walk
    at a fraction of the pursuer's speed; the pursuer homes on the
    quarry's current position every step, so it closes in and then
    shadows the quarry around the map.
    """

    def __init__(
        self,
        world: Rect,
        speed: float,
        rng: random.Random,
        quarry_speed_fraction: float = 0.7,
    ) -> None:
        if not 0.0 <= quarry_speed_fraction <= 1.0:
            raise ValueError(
                "quarry must not outrun the pursuer: "
                f"{quarry_speed_fraction}"
            )
        self._world = world
        self._speed = speed
        self._quarry_walk = RandomWaypoint(
            world, speed * quarry_speed_fraction, rng
        )
        #: Where the chased entity currently is.
        self.quarry = Vec2(
            rng.uniform(world.xmin, world.xmax - 1e-6),
            rng.uniform(world.ymin, world.ymax - 1e-6),
        )

    def step(self, position: Vec2, dt: float) -> Vec2:
        self.quarry = self._quarry_walk.step(self.quarry, dt)
        return _walk_toward(
            self._world, position, self.quarry, self._speed * dt
        ) or _clamp_into(self._world, self.quarry)

    def retarget(self, target: Vec2) -> None:
        """Relocate the quarry (and thus drag the pursuer) to *target*."""
        self.quarry = _clamp_into(self._world, target)
        self._quarry_walk.retarget(target)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MobilityEnv:
    """What a mobility factory may depend on when building models.

    ``rng`` is the fleet's stream; factories must derive per-model
    streams via :meth:`child_rng` (never share ``rng`` itself between
    models) so each client's movement is independently seeded in a
    reproducible order.  ``center``/``spread`` carry the spawning
    group's placement (when it has one) so group-shared state — a
    flock's anchor, say — can start where the wave actually lands.
    """

    world: Rect
    speed: float
    rng: random.Random
    center: Vec2 | None = None
    spread: float | None = None

    def child_rng(self) -> random.Random:
        """A fresh RNG seeded from the fleet stream."""
        return random.Random(self.rng.getrandbits(64))


#: Zero-arg callable producing one model per call (one per client).
MobilityBuilder = Callable[[], MobilityModel]

#: name -> factory(env, **params) -> per-client builder.
_MOBILITY_REGISTRY: dict[str, Callable[..., MobilityBuilder]] = {}


def register_mobility(name: str) -> Callable:
    """Register a mobility factory under *name* (decorator).

    The factory is called once per spawned group with a
    :class:`MobilityEnv` plus the spec's keyword parameters, and returns
    a zero-arg builder invoked once per client — group-shared state
    (e.g. a :class:`Flock`) is created in the factory, per-client state
    in the builder.
    """
    if not name:
        raise ValueError("mobility name must be non-empty")

    def decorate(factory: Callable[..., MobilityBuilder]):
        if name in _MOBILITY_REGISTRY:
            raise ValueError(f"mobility model already registered: {name!r}")
        _MOBILITY_REGISTRY[name] = factory
        return factory

    return decorate


def list_mobility_models() -> list[str]:
    """Registered mobility model names, sorted."""
    return sorted(_MOBILITY_REGISTRY)


def mobility_builder(
    name: str, env: MobilityEnv, **params
) -> MobilityBuilder:
    """Resolve *name* and build the per-client model builder."""
    try:
        factory = _MOBILITY_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown mobility model {name!r}; "
            f"known: {list_mobility_models()}"
        ) from None
    return factory(env, **params)


@dataclass(frozen=True)
class MobilitySpec:
    """Declarative mobility choice: a registry name plus parameters."""

    kind: str = "random_waypoint"
    params: Mapping[str, object] = field(default_factory=dict)

    def builder(self, env: MobilityEnv) -> MobilityBuilder:
        """Resolve this spec against the registry."""
        return mobility_builder(self.kind, env, **dict(self.params))


@register_mobility("stationary")
def _build_stationary(env: MobilityEnv) -> MobilityBuilder:
    return Stationary


@register_mobility("random_waypoint")
def _build_random_waypoint(
    env: MobilityEnv, *, pause: float = 0.0
) -> MobilityBuilder:
    return lambda: RandomWaypoint(
        env.world, env.speed, env.child_rng(), pause=pause
    )


@register_mobility("hotspot")
def _build_hotspot(
    env: MobilityEnv,
    *,
    center: Vec2 | None = None,
    spread: float | None = None,
) -> MobilityBuilder:
    # Explicit parameters win; a wave spawned with Gaussian placement
    # may omit them, and the loiter centre defaults to wherever the
    # group actually landed (its placement centre and spread).
    if center is None:
        center = env.center
    if spread is None:
        spread = env.spread
    if center is None or spread is None:
        raise ValueError(
            "hotspot mobility needs a centre: pass center/spread "
            "params or spawn the group with a placement centre"
        )
    resolved_center, resolved_spread = center, spread
    return lambda: HotspotMobility(
        env.world, resolved_center, resolved_spread, env.speed, env.child_rng()
    )


@register_mobility("flock")
def _build_flock(
    env: MobilityEnv,
    *,
    anchor_speed_fraction: float = 0.6,
    spacing: float = 12.0,
) -> MobilityBuilder:
    # The anchor starts at the group's placement centre (when the wave
    # has one): a flock spawned "at the north gate" coheres there
    # instead of beelining toward a random point across the map.
    flock = Flock(
        env.world,
        env.speed * anchor_speed_fraction,
        env.child_rng(),
        start=env.center,
    )
    return lambda: FlockMobility(
        flock, env.world, env.speed, env.child_rng(), spacing=spacing
    )


@register_mobility("commuter")
def _build_commuter(
    env: MobilityEnv, *, stops: int = 3, pause: float = 4.0
) -> MobilityBuilder:
    return lambda: CommuterMobility(
        env.world, env.speed, env.child_rng(), stops=stops, pause=pause
    )


@register_mobility("teleport")
def _build_teleport(
    env: MobilityEnv, *, portal_chance: float = 0.25
) -> MobilityBuilder:
    return lambda: TeleportMobility(
        env.world, env.speed, env.child_rng(), portal_chance=portal_chance
    )


@register_mobility("pursuit")
def _build_pursuit(
    env: MobilityEnv, *, quarry_speed_fraction: float = 0.7
) -> MobilityBuilder:
    return lambda: PursuitMobility(
        env.world,
        env.speed,
        env.child_rng(),
        quarry_speed_fraction=quarry_speed_fraction,
    )
