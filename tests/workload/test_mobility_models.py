"""Tests for the new mobility models, the registry, and retargeting."""

import hashlib
import random

import pytest

from repro.games.base import GameClient
from repro.games.profile import bzflag_profile
from repro.geometry import Rect, Vec2
from repro.workload.mobility import (
    CommuterMobility,
    Flock,
    FlockMobility,
    HotspotMobility,
    MobilityEnv,
    MobilitySpec,
    PursuitMobility,
    Stationary,
    TeleportMobility,
    list_mobility_models,
    mobility_builder,
)

WORLD = Rect(0, 0, 100, 100)

#: Parameters required by models whose spec is not self-contained.
REQUIRED_PARAMS = {"hotspot": {"center": Vec2(50, 50), "spread": 10.0}}


def make_env(seed: int = 0, speed: float = 10.0) -> MobilityEnv:
    return MobilityEnv(world=WORLD, speed=speed, rng=random.Random(seed))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_has_at_least_six_models():
    names = list_mobility_models()
    assert len(names) >= 6
    assert {
        "stationary",
        "random_waypoint",
        "hotspot",
        "flock",
        "commuter",
        "teleport",
        "pursuit",
    } <= set(names)


def test_unknown_model_rejected():
    with pytest.raises(ValueError, match="warp-drive"):
        mobility_builder("warp-drive", make_env())


def test_spec_builds_distinct_per_client_models():
    builder = MobilitySpec("commuter", {"stops": 4}).builder(make_env())
    first, second = builder(), builder()
    assert first is not second
    assert len(first.stops) == 4


@pytest.mark.parametrize("kind", list_mobility_models())
def test_same_seed_same_trajectory(kind):
    def walk():
        builder = mobility_builder(
            kind, make_env(42), **REQUIRED_PARAMS.get(kind, {})
        )
        model = builder()
        position = Vec2(50.0, 50.0)
        trace = []
        for _ in range(60):
            position = model.step(position, 0.5)
            trace.append(position.as_tuple())
        return trace

    assert walk() == walk()


# ----------------------------------------------------------------------
# Golden trajectories: stepping is bit-identical to the Vec2-arithmetic
# form it replaced
# ----------------------------------------------------------------------
#: sha256 over the ``repr`` of every position of :func:`golden_walk`,
#: captured on the commit before the scalar ``_walk_toward`` (PR 13).
GOLDEN_TRAJECTORIES = {
    "commuter": "9849707271a85044bb4c3711429a3b886715ce2073935fdd476d72a5302e8348",
    "flock": "43f0851b2465f56ff4178014994c1e7b653745767c8142f884218dd699e6ac16",
    "hotspot": "347d2ad7605a4f9b522d3faef9b13d9d0fd48b659c62b47ccae33211038cd62f",
    "pursuit": "1a9298e5503a79ceb4c7b3ba2eb34babcf62e8a3d9665a9dac7200c19f75b99c",
    "random_waypoint": "60c17038b9148f3d639a0c1936cc187ae4843ce32f9fe2c07ef1216851cd9dec",
    "stationary": "9f4406c96c7b8d9efe022194cc94e449b16523bb6c3caa1a9acc437cb39d4d66",
    "teleport": "3a67990ce3240d96e6f38f5fea9af6d5d1638db4bb8bf40707903929433b0c70",
}


def golden_walk(kind):
    """300 steps each of two models from one builder (a flock shares
    its anchor), a retarget after 150 — arrivals, pauses, portals and
    the world-border clamp all occur."""
    env = MobilityEnv(
        world=WORLD,
        speed=10.0,
        rng=random.Random(2005),
        center=Vec2(50.0, 50.0),
        spread=10.0,
    )
    builder = mobility_builder(kind, env, **REQUIRED_PARAMS.get(kind, {}))
    walkers = [[builder(), Vec2(50.0, 50.0)], [builder(), Vec2(2.0, 97.0)]]
    trace = []
    for step in range(300):
        for walker in walkers:
            model, position = walker
            if step == 150 and hasattr(model, "retarget"):
                model.retarget(Vec2(99.5, 0.5))
            walker[1] = model.step(position, 0.5)
            trace.append(repr(walker[1]))
    return trace


@pytest.mark.parametrize("kind", list_mobility_models())
def test_trajectory_matches_golden(kind):
    digest = hashlib.sha256("\n".join(golden_walk(kind)).encode()).hexdigest()
    assert digest == GOLDEN_TRAJECTORIES[kind]


# ----------------------------------------------------------------------
# Invariant: every model stays inside the world
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", list_mobility_models())
def test_models_stay_in_world(kind):
    builder = mobility_builder(
        kind, make_env(3), **REQUIRED_PARAMS.get(kind, {})
    )
    model = builder()
    position = Vec2(50.0, 50.0)
    for _ in range(300):
        position = model.step(position, 0.5)
        assert WORLD.contains(position)


# ----------------------------------------------------------------------
# Invariant: every model makes progress in its own terms
# ----------------------------------------------------------------------
def test_flock_members_converge_on_anchor():
    flock = Flock(WORLD, speed=6.0, rng=random.Random(1))
    lead = FlockMobility(flock, WORLD, 10.0, random.Random(2))
    tail = FlockMobility(flock, WORLD, 10.0, random.Random(3))
    a, b = Vec2(5.0, 5.0), Vec2(95.0, 95.0)
    for _ in range(200):
        a = lead.step(a, 0.5)
        b = tail.step(b, 0.5)
    # Faster than the anchor, so both track it within formation slack.
    assert a.distance_to(flock.anchor) < 60.0
    assert b.distance_to(flock.anchor) < 60.0
    assert a.distance_to(b) < 100.0


def test_commuter_loops_its_circuit():
    model = CommuterMobility(
        WORLD, speed=20.0, rng=random.Random(5), stops=3, pause=0.5
    )
    stops = model.stops
    visited = set()
    position = Vec2(50.0, 50.0)
    for _ in range(400):
        position = model.step(position, 0.5)
        for index, stop in enumerate(stops):
            if position.distance_to(stop) < 1e-6:
                visited.add(index)
    assert visited == {0, 1, 2}, f"visited only {visited}"


def test_teleport_jumps_on_portals():
    model = TeleportMobility(
        WORLD, speed=10.0, rng=random.Random(6), portal_chance=1.0
    )
    position = Vec2(50.0, 50.0)
    jumped = False
    for _ in range(200):
        before = position
        position = model.step(position, 0.5)
        if before.distance_to(position) > 10.0 * 0.5 + 1e-6:
            jumped = True
    assert jumped, "with portal_chance=1 every arrival must teleport"


def test_pursuit_closes_on_quarry():
    model = PursuitMobility(
        WORLD, speed=10.0, rng=random.Random(7), quarry_speed_fraction=0.5
    )
    position = Vec2(0.0, 0.0)
    for _ in range(200):
        position = model.step(position, 0.5)
    # Twice the quarry's speed: the pursuer catches and shadows it.
    assert position.distance_to(model.quarry) < 20.0


def test_pursuit_rejects_faster_quarry():
    with pytest.raises(ValueError):
        PursuitMobility(
            WORLD, 10.0, random.Random(0), quarry_speed_fraction=1.5
        )


def test_commuter_needs_two_stops():
    with pytest.raises(ValueError):
        CommuterMobility(WORLD, 10.0, random.Random(0), stops=1)


def test_teleport_chance_validated():
    with pytest.raises(ValueError):
        TeleportMobility(WORLD, 10.0, random.Random(0), portal_chance=1.5)


# ----------------------------------------------------------------------
# Retarget protocol
# ----------------------------------------------------------------------
def test_client_retarget_is_public_api():
    profile = bzflag_profile()
    loiterer = GameClient(
        "c.1",
        profile,
        HotspotMobility(
            profile.world, Vec2(100, 100), 10.0, 25.0, random.Random(0)
        ),
        random.Random(1),
    )
    assert loiterer.retarget(Vec2(700, 700)) is True
    assert loiterer.mobility.center == Vec2(700, 700)

    fixed = GameClient("c.2", profile, Stationary(), random.Random(2))
    assert fixed.retarget(Vec2(700, 700)) is False


def test_commuter_retarget_translates_circuit():
    model = CommuterMobility(
        WORLD, speed=10.0, rng=random.Random(9), stops=3, pause=0.0
    )
    model.retarget(Vec2(80.0, 80.0))
    stops = model.stops
    centroid = Vec2(
        sum(p.x for p in stops) / 3, sum(p.y for p in stops) / 3
    )
    # Clamping can pull the centroid slightly off the exact target.
    assert centroid.distance_to(Vec2(80.0, 80.0)) < 25.0


def test_flock_anchor_starts_at_group_center():
    """A flock spawned with a placement centre coheres there instead of
    beelining toward a random anchor across the map."""
    env = MobilityEnv(
        world=WORLD,
        speed=10.0,
        rng=random.Random(21),
        center=Vec2(80.0, 20.0),
        spread=5.0,
    )
    builder = mobility_builder("flock", env)
    member = builder()
    assert member.flock.anchor.distance_to(Vec2(80.0, 20.0)) < 1e-6


def test_flock_anchor_random_without_center():
    builder = mobility_builder("flock", make_env(22))
    assert WORLD.contains(builder().flock.anchor)


def test_flock_retarget_moves_every_member():
    flock = Flock(WORLD, speed=8.0, rng=random.Random(11))
    member = FlockMobility(flock, WORLD, 12.0, random.Random(12))
    member.retarget(Vec2(90.0, 90.0))
    position = Vec2(10.0, 10.0)
    closest = float("inf")
    for _ in range(200):
        position = member.step(position, 0.5)
        closest = min(closest, position.distance_to(Vec2(90.0, 90.0)))
    assert closest < 40.0


def test_pursuit_retarget_relocates_quarry():
    model = PursuitMobility(WORLD, 10.0, random.Random(13))
    model.retarget(Vec2(10.0, 10.0))
    assert model.quarry.distance_to(Vec2(10.0, 10.0)) < 1e-6
