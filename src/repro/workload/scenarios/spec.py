"""The declarative scenario specification.

A :class:`Scenario` is *data the middleware runs*: a named sequence of
workload phases (arrival waves, hotspot waves, batched departures,
hotspot migrations, continuous churn) plus the run duration and the
game it targets.  Phases are :class:`~repro.value.Value` records,
which nothing assigns to; installing a scenario walks them in order
and translates each into the matching
:class:`~repro.workload.fleet.ClientFleet` call, so the same spec
drives Matrix and every baseline through the fleet's ``Locator``.

Positions are expressed as :class:`MapPoint` world fractions rather
than absolute coordinates, so one scenario runs unchanged on BzFlag's
800x800 arena and Daimonin's 1600x1600 world.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.games.profile import GameProfile
from repro.geometry import Rect, Vec2
from repro.value import Value, replace
from repro.workload.fleet import ClientFleet
from repro.workload.mobility import MobilitySpec


class MapPoint(Value):
    """A world-relative position: fractions of width and height."""

    __slots__ = ("u", "v")

    def __init__(self, u: float, v: float) -> None:
        self.u = u
        self.v = v

    def resolve(self, world: Rect) -> Vec2:
        """The absolute position inside *world*."""
        return Vec2(
            world.xmin + world.width * self.u,
            world.ymin + world.height * self.v,
        )


def _scale_count(count: int, factor: float) -> int:
    return max(1, int(count * factor))


@runtime_checkable
class Phase(Protocol):
    """One workload phase of a scenario."""

    def install(self, fleet: ClientFleet, profile: GameProfile) -> None:
        """Register this phase's events on *fleet*."""

    def scaled(self, factor: float) -> "Phase":
        """A population-scaled copy (timing is never scaled)."""


class ArrivalWave(Value):
    """*count* players joining at *at* with any registered mobility.

    Placement is uniform unless *center* is given (Gaussian with sigma
    ``visibility_radius * spread_fraction``).  ``over > 0`` spreads the
    arrivals into a burst instead of a single instant.
    """

    __slots__ = (
        "count", "at", "group", "mobility", "over", "center",
        "spread_fraction",
    )

    def __init__(
        self,
        count: int,
        at: float = 0.0,
        group: str = "background",
        mobility: MobilitySpec | None = None,
        over: float = 0.0,
        center: MapPoint | None = None,
        spread_fraction: float = 0.9,
    ) -> None:
        self.count = count
        self.at = at
        self.group = group
        self.mobility = mobility
        self.over = over
        self.center = center
        self.spread_fraction = spread_fraction

    def install(self, fleet: ClientFleet, profile: GameProfile) -> None:
        center = spread = None
        if self.center is not None:
            center = self.center.resolve(profile.world)
            spread = profile.visibility_radius * self.spread_fraction
        fleet.spawn_group(
            self.count,
            at=self.at,
            group=self.group,
            mobility=self.mobility,
            center=center,
            spread=spread,
            over=self.over,
        )

    def scaled(self, factor: float) -> "ArrivalWave":
        return replace(self, count=_scale_count(self.count, factor))


class HotspotWave(Value):
    """A hotspot pile-up: *count* loiterers converging on *center*."""

    __slots__ = ("count", "center", "at", "group", "over", "spread_fraction")

    def __init__(
        self,
        count: int,
        center: MapPoint,
        at: float,
        group: str,
        over: float = 2.0,
        spread_fraction: float = 0.9,
    ) -> None:
        self.count = count
        self.center = center
        self.at = at
        self.group = group
        self.over = over
        self.spread_fraction = spread_fraction

    def install(self, fleet: ClientFleet, profile: GameProfile) -> None:
        center = self.center.resolve(profile.world)
        spread = profile.visibility_radius * self.spread_fraction
        fleet.spawn_group(
            self.count,
            at=self.at,
            group=self.group,
            mobility=MobilitySpec(
                "hotspot", {"center": center, "spread": spread}
            ),
            center=center,
            spread=spread,
            over=self.over,
        )

    def scaled(self, factor: float) -> "HotspotWave":
        return replace(self, count=_scale_count(self.count, factor))


class Departure(Value):
    """Drain *group* in batches of *batch* every *interval* seconds."""

    __slots__ = ("group", "batch", "start", "interval")

    def __init__(
        self, group: str, batch: int, start: float, interval: float
    ) -> None:
        self.group = group
        self.batch = batch
        self.start = start
        self.interval = interval

    def install(self, fleet: ClientFleet, profile: GameProfile) -> None:
        fleet.depart_group(
            self.group,
            batch_size=self.batch,
            start=self.start,
            interval=self.interval,
        )

    def scaled(self, factor: float) -> "Departure":
        return replace(self, batch=_scale_count(self.batch, factor))


class Migration(Value):
    """Retarget *group* toward a new centre at *at* (moving hotspot)."""

    __slots__ = ("group", "center", "at")

    def __init__(self, group: str, center: MapPoint, at: float) -> None:
        self.group = group
        self.center = center
        self.at = at

    def install(self, fleet: ClientFleet, profile: GameProfile) -> None:
        fleet.move_group_hotspot(
            self.group, self.center.resolve(profile.world), at=self.at
        )

    def scaled(self, factor: float) -> "Migration":
        return self


class Churn(Value):
    """Continuous turnover: *rate* arrivals/s in ``[start, stop)``,
    each staying for an exponential session of mean *session* s."""

    __slots__ = ("rate", "start", "stop", "group", "session", "mobility")

    def __init__(
        self,
        rate: float,
        start: float,
        stop: float,
        group: str = "churn",
        session: float = 30.0,
        mobility: MobilitySpec | None = None,
    ) -> None:
        self.rate = rate
        self.start = start
        self.stop = stop
        self.group = group
        self.session = session
        self.mobility = mobility

    def install(self, fleet: ClientFleet, profile: GameProfile) -> None:
        fleet.spawn_churn(
            self.rate,
            start=self.start,
            stop=self.stop,
            group=self.group,
            session=self.session,
            mobility=self.mobility,
        )

    def scaled(self, factor: float) -> "Churn":
        return replace(self, rate=self.rate * factor)


class FaultPhase(Value):
    """Base of the chaos phases: faults a scenario injects, not load.

    Fault phases satisfy the :class:`Phase` protocol so they slot into
    ``Scenario.phases`` next to workload phases, but installing one on
    a fleet is a no-op — they describe *infrastructure* events, and the
    chaos driver (:mod:`repro.chaos`) schedules them against whichever
    backend runs the scenario.  A backend without chaos support simply
    runs the workload phases unfaulted.
    """

    __slots__ = ()

    def install(self, fleet: ClientFleet, profile: GameProfile) -> None:
        """Workload side: nothing to register."""

    def scaled(self, factor: float) -> "FaultPhase":
        """Faults describe infrastructure, not population: unscaled."""
        return self


class ServerCrash(FaultPhase):
    """Kill one live Matrix+game server pair abruptly at *at*.

    ``victim`` picks the casualty at injection time: ``"youngest"``
    (most recently spawned), ``"oldest"``, ``"busiest"`` (most
    clients), or ``"splitting"`` (one with a split in flight, falling
    back to the youngest).  The crash is skipped — and recorded as
    skipped — when fewer than two live servers remain.
    """

    __slots__ = ("at", "victim")

    def __init__(self, at: float, victim: str = "youngest") -> None:
        if victim not in ("youngest", "oldest", "busiest", "splitting"):
            raise ValueError(f"unknown victim rule: {victim!r}")
        self.at = at
        self.victim = victim


class CoordinatorCrash(FaultPhase):
    """Crash the primary MC at *at*.

    On the matrix backend the runner notices this phase and deploys a
    replicated MC, so the standby detects the silence and promotes
    itself (§3.2.4's "well understood replication techniques").
    """

    __slots__ = ("at",)

    def __init__(self, at: float) -> None:
        self.at = at


class LinkDegrade(FaultPhase):
    """Degrade the backend's consistency links for a window.

    From *at* for *duration* seconds, outbound messages of the faulted
    kinds are dropped/duplicated with the given probabilities on every
    server-class node (the backend declares which kinds carry its
    consistency traffic when ``kinds`` is None).
    """

    __slots__ = ("at", "duration", "drop_rate", "duplicate_rate", "kinds")

    def __init__(
        self,
        at: float,
        duration: float = float("inf"),
        drop_rate: float = 0.05,
        duplicate_rate: float = 0.0,
        kinds: tuple[str, ...] | None = None,
    ) -> None:
        if duration <= 0:
            raise ValueError(f"duration must be positive: {duration}")
        for rate in (drop_rate, duplicate_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"fault rate out of [0, 1]: {rate}")
        self.at = at
        self.duration = duration
        self.drop_rate = drop_rate
        self.duplicate_rate = duplicate_rate
        self.kinds = kinds


class Recovery(FaultPhase):
    """End every active link degradation at *at* (rates back to zero)."""

    __slots__ = ("at",)

    def __init__(self, at: float) -> None:
        self.at = at


class Scenario(Value):
    """A complete declarative workload: phases + duration + game.

    Scenarios are inert data — running one is the job of
    :func:`repro.harness.runner.run_scenario`, which pairs the spec
    with a backend (Matrix or a baseline) through the fleet's
    ``Locator`` abstraction.
    """

    __slots__ = ("name", "description", "phases", "duration", "game", "grid")

    def __init__(
        self,
        name: str,
        description: str,
        phases: tuple[Phase, ...],
        duration: float,
        game: str = "bzflag",
        grid: tuple[int, int] | None = None,
    ) -> None:
        if not name:
            raise ValueError("scenario name must be non-empty")
        if duration <= 0:
            raise ValueError(f"duration must be positive: {duration}")
        self.name = name
        self.description = description
        self.phases = phases
        self.duration = duration
        self.game = game
        #: Bootstrap a fixed server grid instead of a single root server
        #: (used by microbenchmark scenarios that need a known topology).
        self.grid = grid

    def install(self, fleet: ClientFleet, profile: GameProfile) -> None:
        """Register every phase on *fleet*, in declaration order."""
        for phase in self.phases:
            phase.install(fleet, profile)

    def fault_phases(self) -> tuple[FaultPhase, ...]:
        """The chaos phases (empty for a plain workload scenario)."""
        return tuple(
            phase for phase in self.phases if isinstance(phase, FaultPhase)
        )

    @property
    def has_faults(self) -> bool:
        """True when this scenario injects faults (chaos scenario)."""
        return any(isinstance(phase, FaultPhase) for phase in self.phases)

    def scaled(self, factor: float) -> "Scenario":
        """A population-scaled copy (phase timing is preserved)."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive: {factor}")
        return replace(
            self, phases=tuple(phase.scaled(factor) for phase in self.phases)
        )

    def preview(self, duration: float) -> "Scenario":
        """A copy truncated to *duration* (for smoke runs and tests)."""
        return replace(self, duration=min(self.duration, duration))
