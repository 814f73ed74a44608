"""Tests for the declarative scenario subsystem."""

import pytest

import repro.harness  # noqa: F401  (registers the fig2-hotspot scenario)
from repro.core.config import LoadPolicyConfig
from repro.games.profile import profile_by_name
from repro.harness.compare import scaled_profile
from repro.harness.runner import run_scenario
from repro.workload.scenarios import (
    ArrivalWave,
    Churn,
    Departure,
    HotspotWave,
    MapPoint,
    Scenario,
    build_scenario,
    scenario,
    scenario_names,
)
from repro.workload.scenarios import registry

SCALE = 0.05


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_catalog_is_populated():
    names = scenario_names()
    assert len(names) >= 6
    assert "fig2-hotspot" in names
    assert "flash-crowd" in names


def test_registry_round_trip():
    @scenario("tmp-registry-proof")
    def _tmp() -> Scenario:
        return Scenario(
            name="tmp-registry-proof",
            description="registry round-trip fixture",
            phases=(ArrivalWave(count=5),),
            duration=10.0,
        )

    try:
        assert "tmp-registry-proof" in scenario_names()
        built = build_scenario("tmp-registry-proof")
        assert built.phases[0].count == 5
        # Fresh instance per build.
        assert build_scenario("tmp-registry-proof") is not built
        # Double registration is a programming error.
        with pytest.raises(ValueError):
            @scenario("tmp-registry-proof")
            def _dup() -> Scenario:
                raise AssertionError("never built")
    finally:
        registry._SCENARIOS.pop("tmp-registry-proof")
    assert "tmp-registry-proof" not in scenario_names()
    with pytest.raises(ValueError):
        build_scenario("tmp-registry-proof")


def test_factory_name_mismatch_rejected():
    @scenario("tmp-name-a")
    def _bad() -> Scenario:
        return Scenario(
            name="tmp-name-b",
            description="name mismatch fixture",
            phases=(ArrivalWave(count=1),),
            duration=5.0,
        )

    try:
        with pytest.raises(ValueError):
            build_scenario("tmp-name-a")
    finally:
        registry._SCENARIOS.pop("tmp-name-a")


# ----------------------------------------------------------------------
# Spec semantics
# ----------------------------------------------------------------------
def test_scaled_scales_populations_not_timing():
    scn = build_scenario("flash-crowd")
    small = scn.scaled(0.1)
    wave = small.phases[1]
    assert isinstance(wave, HotspotWave)
    assert wave.count == 60
    assert wave.at == scn.phases[1].at
    assert small.duration == scn.duration


def test_scaled_departure_batches():
    scn = build_scenario("fig2-hotspot")
    departures = [p for p in scn.phases if isinstance(p, Departure)]
    assert departures
    small = scn.scaled(0.1)
    for before, after in zip(
        departures, [p for p in small.phases if isinstance(p, Departure)]
    ):
        assert after.batch == max(1, int(before.batch * 0.1))
        assert after.interval == before.interval


def test_preview_truncates_duration():
    scn = build_scenario("fig2-hotspot")
    assert scn.preview(30.0).duration == 30.0
    assert scn.preview(1e9).duration == scn.duration


def test_map_point_resolves_world_fractions():
    profile = profile_by_name("bzflag")
    point = MapPoint(0.25, 0.5).resolve(profile.world)
    assert point.x == pytest.approx(200.0)
    assert point.y == pytest.approx(400.0)


def test_bad_scenario_rejected():
    with pytest.raises(ValueError):
        Scenario(name="", description="", phases=(), duration=10.0)
    with pytest.raises(ValueError):
        Scenario(name="x", description="", phases=(), duration=0.0)


# ----------------------------------------------------------------------
# Every registered scenario runs and is seed-deterministic
# ----------------------------------------------------------------------
def _digest(name: str, seed: int = 7):
    scn = build_scenario(name).scaled(SCALE).preview(45.0)
    outcome = run_scenario(
        scn,
        profile=scaled_profile(profile_by_name(scn.game), SCALE),
        policy=LoadPolicyConfig().scaled(SCALE),
        seed=seed,
    )
    result = outcome.result
    return (
        result.events_processed,
        result.traffic.total.messages,
        result.traffic.total.bytes,
        outcome.experiment.network.delivered_count,
        len(result.action_latencies),
    )


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_seed_determinism(name):
    assert _digest(name) == _digest(name)


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_spawns_population(name):
    scn = build_scenario(name).scaled(SCALE).preview(45.0)
    outcome = run_scenario(
        scn,
        profile=scaled_profile(profile_by_name(scn.game), SCALE),
        policy=LoadPolicyConfig().scaled(SCALE),
        seed=1,
    )
    fleet = outcome.experiment.fleet
    assert fleet.clients, f"{name} spawned nobody"
    assert outcome.result.total_clients.max() > 0


def test_churn_turns_population_over():
    scn = Scenario(
        name="tmp-churn",
        description="churn fixture",
        phases=(
            ArrivalWave(count=6),
            Churn(rate=1.0, start=2.0, stop=50.0, session=8.0),
        ),
        duration=60.0,
    )
    outcome = run_scenario(
        scn, profile=profile_by_name("bzflag"), seed=2
    )
    fleet = outcome.experiment.fleet
    churners = fleet.groups.get("churn", [])
    assert len(churners) >= 30  # ~48 arrivals scheduled
    departed = [c for c in churners if not c.active]
    assert departed, "sessions must expire and clients leave"
    # Population stayed bounded well below total arrivals: turnover.
    assert outcome.result.total_clients.max() < 6 + len(churners)
