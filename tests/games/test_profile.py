"""Tests for game workload profiles."""

import pytest

from repro.games.profile import (
    GameProfile,
    bzflag_profile,
    daimonin_profile,
    profile_by_name,
    quake2_profile,
)
from repro.geometry import Rect


def test_three_profiles_exist():
    for name in ("bzflag", "quake2", "daimonin"):
        profile = profile_by_name(name)
        assert profile.name == name


def test_unknown_profile_raises():
    with pytest.raises(ValueError):
        profile_by_name("tetris")


def test_capacity_headroom_above_overload_threshold():
    """Each profile must be able to serve 300 clients with headroom,
    but NOT 600 (the hotspot must saturate a single server)."""
    for profile in (bzflag_profile(), quake2_profile(), daimonin_profile()):
        per_client = profile.update_hz + profile.action_rate
        at_300 = 300 * per_client
        at_600 = 600 * per_client
        assert at_300 < profile.server_service_rate, profile.name
        assert at_600 > profile.server_service_rate, profile.name


def test_radius_small_relative_to_world():
    """Near-decomposability: R must be small vs the world (§1)."""
    for profile in (bzflag_profile(), quake2_profile(), daimonin_profile()):
        assert profile.visibility_radius * 2 < profile.world.width / 3


def test_daimonin_has_nonproximal_actions():
    assert daimonin_profile().remote_action_fraction > 0
    assert bzflag_profile().remote_action_fraction == 0


def test_ghost_lifetime_scales_with_update_rate():
    profile = bzflag_profile()
    assert profile.ghost_lifetime == pytest.approx(
        profile.ghost_lifetime_updates / profile.update_hz
    )


def test_validation():
    with pytest.raises(ValueError):
        GameProfile(
            name="x", world=Rect(0, 0, 100, 100),
            visibility_radius=10.0, update_hz=0.0,
        )
    with pytest.raises(ValueError):
        GameProfile(
            name="x", world=Rect(0, 0, 100, 100), visibility_radius=-1.0
        )
    with pytest.raises(ValueError):
        GameProfile(
            name="x", world=Rect(0, 0, 100, 100),
            visibility_radius=10.0, remote_action_fraction=1.5,
        )


def test_quake_faster_than_daimonin():
    assert quake2_profile().update_hz > daimonin_profile().update_hz
    assert quake2_profile().move_speed > daimonin_profile().move_speed
