"""Game workload profiles.

The paper validates Matrix with three real games — BzFlag (arena tank
shooter), Quake 2 (fast FPS) and Daimonin (MMORPG).  Matrix never
interprets game logic, so from the middleware's perspective each game
is fully characterised by its *workload profile*: world size, radius of
visibility, packet rates and sizes, movement speed, and the server's
packet-processing capacity.

Rate scaling: the real games tick at 10–30 Hz.  Running a 250-second
Fig 2 timeline at those rates in a discrete-event simulator is
needlessly slow, so every profile scales rates down ~5x while keeping
all *ratios* intact — in particular, each server's service rate is set
so that processing capacity is reached right around the paper's
300-client overload threshold, which is what makes the Fig 2b queue
dynamics land at the same client counts as the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry import Rect


@dataclass(slots=True)
class GameProfile:
    """Everything the substrate needs to emulate one game's workload."""

    name: str
    world: Rect
    visibility_radius: float
    #: Client position-update rate (packets/second per client).
    update_hz: float = 2.0
    #: Server snapshot rate (state updates/second per client).
    snapshot_hz: float = 1.0
    #: Actions (shots, spells, interactions) per second per client.
    action_rate: float = 0.2
    #: Fraction of actions aimed at a far-away point (non-proximal).
    remote_action_fraction: float = 0.0
    #: Client movement speed (world units/second).
    move_speed: float = 25.0
    #: Packets/second one game server can process.  Set so that the
    #: 300-client overload threshold sits at ~60% of capacity: the rest
    #: is headroom for overlap-forward traffic from neighbours, which a
    #: hotspot concentrates (the asymptotic analysis in §4.2 is exactly
    #: about this term).
    server_service_rate: float = 1250.0
    #: Wire sizes (bytes).
    update_bytes: int = 64
    action_bytes: int = 96
    snapshot_base_bytes: int = 48
    snapshot_per_entity_bytes: int = 24
    hello_bytes: int = 128
    #: Snapshots stop itemising entities beyond this count.
    max_visible_entities: int = 64
    #: Remote-entity ghosts expire after this many update periods.
    ghost_lifetime_updates: float = 3.0

    def __post_init__(self) -> None:
        if self.update_hz <= 0 or self.snapshot_hz <= 0:
            raise ValueError("rates must be positive")
        if self.visibility_radius <= 0:
            raise ValueError("visibility radius must be positive")
        if not 0.0 <= self.remote_action_fraction <= 1.0:
            raise ValueError("remote_action_fraction must be in [0, 1]")

    @property
    def ghost_lifetime(self) -> float:
        """Seconds before a remote ghost entity expires."""
        return self.ghost_lifetime_updates / self.update_hz


def bzflag_profile() -> GameProfile:
    """BzFlag: the arena tank shooter used for the paper's Fig 2 run.

    Open arena, moderate speed, every player shoots; medium visibility
    radius relative to the 800x800 arena.
    """
    return GameProfile(
        name="bzflag",
        world=Rect(0.0, 0.0, 800.0, 800.0),
        visibility_radius=60.0,
        update_hz=2.0,
        snapshot_hz=1.0,
        action_rate=0.3,
        move_speed=25.0,
        server_service_rate=1250.0,
        update_bytes=64,
        action_bytes=96,
    )


def quake2_profile() -> GameProfile:
    """Quake 2: fast FPS — double the tick rates, smaller radius,
    faster movement, proportionally higher server capacity."""
    return GameProfile(
        name="quake2",
        world=Rect(0.0, 0.0, 600.0, 600.0),
        visibility_radius=40.0,
        update_hz=4.0,
        snapshot_hz=2.0,
        action_rate=0.6,
        move_speed=40.0,
        server_service_rate=2400.0,
        update_bytes=48,
        action_bytes=64,
    )


def daimonin_profile() -> GameProfile:
    """Daimonin: MMORPG — big world, slow ticks, occasional global
    interactions (shouts/teleports) exercising the non-proximal path."""
    return GameProfile(
        name="daimonin",
        world=Rect(0.0, 0.0, 1600.0, 1600.0),
        visibility_radius=80.0,
        update_hz=1.0,
        snapshot_hz=0.5,
        action_rate=0.1,
        remote_action_fraction=0.05,
        move_speed=10.0,
        server_service_rate=600.0,
        update_bytes=80,
        action_bytes=128,
    )


def profile_by_name(name: str) -> GameProfile:
    """Look up one of the three built-in game profiles."""
    factories = {
        "bzflag": bzflag_profile,
        "quake2": quake2_profile,
        "daimonin": daimonin_profile,
    }
    try:
        return factories[name]()
    except KeyError:
        raise ValueError(
            f"unknown game profile {name!r}; known: {sorted(factories)}"
        ) from None
