"""Tests for the deployment fabric itself."""

import pytest

from tests.core.helpers import build_deployment

from repro.geometry import Vec2


def test_bootstrap_creates_colocated_pair():
    sim, network, deployment = build_deployment()
    ms, gs = deployment.bootstrap()
    assert ms.name == "ms.1"
    assert gs.name == "gs.1"
    assert ms.partition == deployment.config.world
    # Co-location means loopback latency between the pair.
    profile = network.profile_for("gs.1", "ms.1")
    assert profile.latency.fixed < 1e-3


def test_spawn_event_logged_at_bootstrap():
    sim, network, deployment = build_deployment()
    deployment.bootstrap()
    assert len(deployment.events) == 1
    assert deployment.events[0].kind == "spawn"
    assert deployment.events[0].matrix_server == "ms.1"


def test_locate_before_bootstrap_raises():
    sim, network, deployment = build_deployment()
    with pytest.raises(LookupError):
        deployment.locate_game_server(Vec2(1.0, 1.0))


def test_locate_nearest_fallback():
    """A point in a (transient) coverage gap maps to the nearest
    live partition instead of raising."""
    sim, network, deployment = build_deployment()
    pairs = deployment.bootstrap_grid(2, 1)
    sim.run(until=1.0)
    # Mark the left server dying: its region is momentarily uncovered.
    pairs[0][0].ctx.dying = True
    assert deployment.locate_game_server(Vec2(10.0, 10.0)) == "gs.2"


def test_live_server_names_excludes_dying():
    sim, network, deployment = build_deployment()
    pairs = deployment.bootstrap_grid(2, 1)
    assert set(deployment.live_server_names()) == {"ms.1", "ms.2"}
    pairs[0][0].ctx.dying = True
    assert deployment.live_server_names() == ["ms.2"]


def test_total_clients_sums_handles():
    sim, network, deployment = build_deployment()
    pairs = deployment.bootstrap_grid(2, 1)
    pairs[0][1].fake_client_count = 7
    pairs[1][1].fake_client_count = 5
    assert deployment.total_clients() == 12


def test_pair_names_are_sequential():
    sim, network, deployment = build_deployment()
    pairs = deployment.bootstrap_grid(3, 1)
    assert [ms.name for ms, _ in pairs] == ["ms.1", "ms.2", "ms.3"]
    assert [gs.name for _, gs in pairs] == ["gs.1", "gs.2", "gs.3"]


def test_client_positions_for_unknown_server_empty():
    sim, network, deployment = build_deployment()
    assert deployment.client_positions("gs.unknown") == []


def test_decommission_removes_nodes_after_grace():
    sim, network, deployment = build_deployment()
    pairs = deployment.bootstrap_grid(2, 1)
    sim.run(until=1.0)
    host = pairs[1][0].host_id
    deployment.decommission_pair("ms.2", host)
    # Grace period: still present immediately...
    assert network.has_node("ms.2")
    sim.run(until=2.0)
    # ...gone afterwards.
    assert not network.has_node("ms.2")
    assert not network.has_node("gs.2")
    assert "ms.2" not in deployment.matrix_servers


def test_decommission_unknown_server_is_noop():
    sim, network, deployment = build_deployment()
    deployment.bootstrap()
    deployment.decommission_pair("ms.ghost", "host-9")
    sim.run(until=1.0)  # must not raise
