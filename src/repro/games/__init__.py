"""Game substrate: generic server/client plus the three paper games."""

from repro.games.base import (
    CONTROL_KINDS,
    ClientRecord,
    GameClient,
    GameServer,
    MobilityModel,
)
from repro.games.grid import SpatialGrid
from repro.games.packets import (
    ActionEvent,
    Goodbye,
    Hello,
    PlayerUpdate,
    Snapshot,
    SwitchDirective,
)
from repro.games.profile import (
    GameProfile,
    bzflag_profile,
    daimonin_profile,
    profile_by_name,
    quake2_profile,
)

__all__ = [
    "CONTROL_KINDS",
    "ActionEvent",
    "ClientRecord",
    "GameClient",
    "GameProfile",
    "GameServer",
    "Goodbye",
    "Hello",
    "MobilityModel",
    "PlayerUpdate",
    "Snapshot",
    "SpatialGrid",
    "SwitchDirective",
    "bzflag_profile",
    "daimonin_profile",
    "profile_by_name",
    "quake2_profile",
]
