"""The declarative scenario specification.

A :class:`Scenario` is *data the middleware runs*: a named sequence of
workload phases (arrival waves, hotspot waves, batched departures,
hotspot migrations, continuous churn) plus the run duration and the
game it targets.  Phases are plain frozen dataclasses; installing a
scenario walks them in order and translates each into the matching
:class:`~repro.workload.fleet.ClientFleet` call, so the same spec
drives Matrix and every baseline through the fleet's ``Locator``.

Positions are expressed as :class:`MapPoint` world fractions rather
than absolute coordinates, so one scenario runs unchanged on BzFlag's
800x800 arena and Daimonin's 1600x1600 world.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.games.profile import GameProfile
from repro.geometry import Rect, Vec2
from repro.workload.fleet import ClientFleet
from repro.workload.mobility import MobilitySpec


@dataclass(frozen=True)
class MapPoint:
    """A world-relative position: fractions of width and height."""

    u: float
    v: float

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


@dataclass(frozen=True)
class ArrivalWave:
    """*count* players joining at *at* with any registered mobility.

    Placement is uniform unless *center* is given (Gaussian with sigma
    ``visibility_radius * spread_fraction``).  ``over > 0`` spreads the
    arrivals into a burst instead of a single instant.
    """

    count: int
    at: float = 0.0
    group: str = "background"
    mobility: MobilitySpec | None = None
    over: float = 0.0
    center: MapPoint | None = None
    spread_fraction: float = 0.9

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
        return dataclasses.replace(
            self, count=_scale_count(self.count, factor)
        )


@dataclass(frozen=True)
class HotspotWave:
    """A hotspot pile-up: *count* loiterers converging on *center*."""

    count: int
    center: MapPoint
    at: float
    group: str
    over: float = 2.0
    spread_fraction: float = 0.9

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
        return dataclasses.replace(
            self, count=_scale_count(self.count, factor)
        )


@dataclass(frozen=True)
class Departure:
    """Drain *group* in batches of *batch* every *interval* seconds."""

    group: str
    batch: int
    start: float
    interval: float

    def install(self, fleet: ClientFleet, profile: GameProfile) -> None:
        fleet.depart_group(
            self.group,
            batch_size=self.batch,
            start=self.start,
            interval=self.interval,
        )

    def scaled(self, factor: float) -> "Departure":
        return dataclasses.replace(
            self, batch=_scale_count(self.batch, factor)
        )


@dataclass(frozen=True)
class Migration:
    """Retarget *group* toward a new centre at *at* (moving hotspot)."""

    group: str
    center: MapPoint
    at: float

    def install(self, fleet: ClientFleet, profile: GameProfile) -> None:
        fleet.move_group_hotspot(
            self.group, self.center.resolve(profile.world), at=self.at
        )

    def scaled(self, factor: float) -> "Migration":
        return self


@dataclass(frozen=True)
class Churn:
    """Continuous turnover: *rate* arrivals/s in ``[start, stop)``,
    each staying for an exponential session of mean *session* s."""

    rate: float
    start: float
    stop: float
    group: str = "churn"
    session: float = 30.0
    mobility: MobilitySpec | None = None

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
        return dataclasses.replace(self, rate=self.rate * factor)


class FaultPhase:
    """Base of the chaos phases: faults a scenario injects, not load.

    Fault phases satisfy the :class:`Phase` protocol so they slot into
    ``Scenario.phases`` next to workload phases, but installing one on
    a fleet is a no-op — they describe *infrastructure* events, and the
    chaos driver (:mod:`repro.chaos`) schedules them against whichever
    backend runs the scenario.  A backend without chaos support simply
    runs the workload phases unfaulted.
    """

    def install(self, fleet: ClientFleet, profile: GameProfile) -> None:
        """Workload side: nothing to register."""

    def scaled(self, factor: float) -> "FaultPhase":
        """Faults describe infrastructure, not population: unscaled."""
        return self


@dataclass(frozen=True)
class ServerCrash(FaultPhase):
    """Kill one live Matrix+game server pair abruptly at *at*.

    ``victim`` picks the casualty at injection time: ``"youngest"``
    (most recently spawned), ``"oldest"``, ``"busiest"`` (most
    clients), or ``"splitting"`` (one with a split in flight, falling
    back to the youngest).  The crash is skipped — and recorded as
    skipped — when fewer than two live servers remain.
    """

    at: float
    victim: str = "youngest"

    def __post_init__(self) -> None:
        if self.victim not in ("youngest", "oldest", "busiest", "splitting"):
            raise ValueError(f"unknown victim rule: {self.victim!r}")


@dataclass(frozen=True)
class CoordinatorCrash(FaultPhase):
    """Crash the primary MC at *at*.

    On the matrix backend the runner notices this phase and deploys a
    replicated MC, so the standby detects the silence and promotes
    itself (§3.2.4's "well understood replication techniques").
    """

    at: float


@dataclass(frozen=True)
class LinkDegrade(FaultPhase):
    """Degrade the backend's consistency links for a window.

    From *at* for *duration* seconds, outbound messages of the faulted
    kinds are dropped/duplicated with the given probabilities on every
    server-class node (the backend declares which kinds carry its
    consistency traffic when ``kinds`` is None).
    """

    at: float
    duration: float = float("inf")
    drop_rate: float = 0.05
    duplicate_rate: float = 0.0
    kinds: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"duration must be positive: {self.duration}")
        for rate in (self.drop_rate, self.duplicate_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"fault rate out of [0, 1]: {rate}")


@dataclass(frozen=True)
class Recovery(FaultPhase):
    """End every active link degradation at *at* (rates back to zero)."""

    at: float


@dataclass(frozen=True)
class Scenario:
    """A complete declarative workload: phases + duration + game.

    Scenarios are inert data — running one is the job of
    :func:`repro.harness.runner.run_scenario`, which pairs the spec
    with a backend (Matrix or a baseline) through the fleet's
    ``Locator`` abstraction.
    """

    name: str
    description: str
    phases: tuple[Phase, ...]
    duration: float
    game: str = "bzflag"
    #: Bootstrap a fixed server grid instead of a single root server
    #: (used by microbenchmark scenarios that need a known topology).
    grid: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive: {self.duration}")

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
        return dataclasses.replace(
            self, phases=tuple(phase.scaled(factor) for phase in self.phases)
        )

    def preview(self, duration: float) -> "Scenario":
        """A copy truncated to *duration* (for smoke runs and tests)."""
        return dataclasses.replace(
            self, duration=min(self.duration, duration)
        )

    def summary(self) -> str:
        """One line: population shape at a glance."""
        kinds = ", ".join(
            type(phase).__name__ for phase in self.phases
        )
        return (
            f"{self.name}: {self.game}, {self.duration:.0f}s, "
            f"phases=[{kinds}]"
        )
