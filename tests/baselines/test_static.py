"""Tests for the static-partitioning baseline."""

import dataclasses

from repro.baselines.static import StaticDeployment
from repro.games.profile import bzflag_profile
from repro.geometry import Vec2
from repro.harness.runner import run_scenario
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.workload.fleet import ClientFleet
from repro.workload.scenarios import HotspotWave, MapPoint
import random


def make_static(columns=2, rows=1, profile=None):
    sim = Simulator()
    network = Network(sim)
    deployment = StaticDeployment(
        sim, network, profile or bzflag_profile(), columns=columns, rows=rows
    )
    return sim, network, deployment


def test_tiles_cover_world():
    sim, network, deployment = make_static(2, 2)
    assert len(deployment.game_servers) == 4
    world = bzflag_profile().world
    total = sum(
        gs.map_range.area for gs in deployment.game_servers.values()
    )
    assert total == world.area


def test_locate_game_server():
    sim, network, deployment = make_static(2, 1)
    assert deployment.locate_game_server(Vec2(100, 400)) == "gs.1"
    assert deployment.locate_game_server(Vec2(700, 400)) == "gs.2"


def test_clients_play_normally_under_light_load():
    sim, network, deployment = make_static(2, 1)
    fleet = ClientFleet(
        sim, network, bzflag_profile(),
        locator=deployment.locate_game_server, rng=random.Random(1),
    )
    fleet.spawn_group(10, at=0.0)
    sim.run(until=20.0)
    assert sum(gs.client_count for gs in deployment.game_servers.values()) == 10
    assert fleet.all_action_latencies()
    assert not any(
        gs.inbox.dropped_count for gs in deployment.game_servers.values()
    )


def test_cross_zone_visibility_still_works():
    """Static zones still share boundary traffic via their routers."""
    sim, network, deployment = make_static(2, 1)
    fleet = ClientFleet(
        sim, network, bzflag_profile(),
        locator=deployment.locate_game_server, rng=random.Random(1),
    )
    # Two stationary-ish clients straddling the x=400 border (sigma 15).
    HotspotWave(
        count=2, center=MapPoint(0.5, 0.5), at=0.0, group="pair",
        spread_fraction=0.25,
    ).install(fleet, bzflag_profile())
    sim.run(until=10.0)
    total_remote = sum(
        gs.remote_updates_seen for gs in deployment.game_servers.values()
    )
    assert total_remote > 0


def test_static_never_adds_servers_under_hotspot():
    profile = dataclasses.replace(
        bzflag_profile(), server_service_rate=120.0
    )
    result = run_scenario(
        "fig2-hotspot",
        backend="static",
        profile=profile,
        scale=0.1,
        preview=60.0,
        seed=1,
        columns=2,
    ).result
    assert set(result.clients_per_server) == {"gs.1", "gs.2"}


def test_static_saturates_under_hotspot():
    """The T-static failure mode: the hotspot zone's queue blows up."""
    profile = dataclasses.replace(
        bzflag_profile(), server_service_rate=120.0
    )
    result = run_scenario(
        "fig2-hotspot",
        backend="static",
        profile=profile,
        scale=0.1,  # 60-client hotspot, 144 pkt/s
        preview=80.0,
        seed=1,
        columns=2,
        queue_capacity=2000,
    ).result
    assert result.max_queue() > 500, "hotspot zone must saturate"
