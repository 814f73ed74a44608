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

from repro.geometry import Rect


class GameProfile:
    """Everything the substrate needs to emulate one game's workload."""

    __slots__ = (
        "name", "world", "visibility_radius", "update_hz", "snapshot_hz",
        "action_rate", "remote_action_fraction", "move_speed",
        "server_service_rate", "update_bytes", "action_bytes",
        "snapshot_base_bytes", "snapshot_per_entity_bytes", "hello_bytes",
        "max_visible_entities", "ghost_lifetime_updates",
    )

    def __init__(
        self,
        name: str,
        world: Rect,
        visibility_radius: float,
        update_hz: float = 2.0,
        snapshot_hz: float = 1.0,
        action_rate: float = 0.2,
        remote_action_fraction: float = 0.0,
        move_speed: float = 25.0,
        server_service_rate: float = 1250.0,
        update_bytes: int = 64,
        action_bytes: int = 96,
        snapshot_base_bytes: int = 48,
        snapshot_per_entity_bytes: int = 24,
        hello_bytes: int = 128,
        max_visible_entities: int = 64,
        ghost_lifetime_updates: float = 3.0,
    ) -> None:
        if update_hz <= 0 or snapshot_hz <= 0:
            raise ValueError("rates must be positive")
        if visibility_radius <= 0:
            raise ValueError("visibility radius must be positive")
        if not 0.0 <= remote_action_fraction <= 1.0:
            raise ValueError("remote_action_fraction must be in [0, 1]")
        self.name = name
        self.world = world
        self.visibility_radius = visibility_radius
        #: Client position-update rate (packets/second per client).
        self.update_hz = update_hz
        #: Server snapshot rate (state updates/second per client).
        self.snapshot_hz = snapshot_hz
        #: Actions (shots, spells, interactions) per second per client.
        self.action_rate = action_rate
        #: Fraction of actions aimed at a far-away point (non-proximal).
        self.remote_action_fraction = remote_action_fraction
        #: Client movement speed (world units/second).
        self.move_speed = move_speed
        #: Packets/second one game server can process.  Set so that the
        #: 300-client overload threshold sits at ~60% of capacity: the
        #: rest is headroom for overlap-forward traffic from neighbours,
        #: which a hotspot concentrates (the asymptotic analysis in
        #: §4.2 is exactly about this term).
        self.server_service_rate = server_service_rate
        #: Wire sizes (bytes).
        self.update_bytes = update_bytes
        self.action_bytes = action_bytes
        self.snapshot_base_bytes = snapshot_base_bytes
        self.snapshot_per_entity_bytes = snapshot_per_entity_bytes
        self.hello_bytes = hello_bytes
        #: Snapshots stop itemising entities beyond this count.
        self.max_visible_entities = max_visible_entities
        #: Remote-entity ghosts expire after this many update periods.
        self.ghost_lifetime_updates = ghost_lifetime_updates

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
