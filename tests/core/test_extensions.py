"""Tests for the paper's optional features: exception visibility radii
(§3.1) and coordinator replication (§3.2.4)."""

from tests.core.helpers import ScriptedGameServer, build_deployment

from repro.core.config import LoadPolicyConfig, MatrixConfig
from repro.core.deployment import MatrixDeployment
from repro.geometry import Rect, Vec2
from repro.net.network import Network
from repro.sim.kernel import Simulator

WORLD = Rect(0.0, 0.0, 1000.0, 1000.0)


def build_custom(extra_radii=(), replicated_mc=False):
    sim = Simulator()
    network = Network(sim)
    config = MatrixConfig(
        world=WORLD,
        visibility_radius=50.0,
        extra_radii=extra_radii,
        policy=LoadPolicyConfig(overload_clients=100, underload_clients=50),
    )
    deployment = MatrixDeployment(
        sim,
        network,
        config,
        game_server_factory=ScriptedGameServer,
        replicated_mc=replicated_mc,
    )
    return sim, network, deployment


# ----------------------------------------------------------------------
# Exception visibility radii (§3.1)
# ----------------------------------------------------------------------
def test_extra_radii_produce_distinct_tables():
    sim, network, deployment = build_custom(extra_radii=(150.0,))
    pairs = deployment.bootstrap_grid(2, 1)
    sim.run(until=1.0)
    ms = pairs[0][0]
    assert set(ms.ctx.tables) == {50.0, 150.0}
    # The wide-radius table covers a wider strip.
    assert ms.ctx.tables[150.0].overlap_area() > ms.ctx.tables[50.0].overlap_area()


def test_packet_with_exception_radius_uses_wide_table():
    sim, network, deployment = build_custom(extra_radii=(150.0,))
    pairs = deployment.bootstrap_grid(2, 1)
    sim.run(until=1.0)
    gs_left = pairs[0][1]
    gs_right = pairs[1][1]
    # 120 units from the border: outside the default R=50 overlap,
    # inside the R=150 one.
    origin = Vec2(380.0, 500.0)
    gs_left.port.send_spatial(origin, "quiet", 64)
    gs_left.port.send_spatial(origin, "loud", 64, radius=150.0)
    sim.run(until=2.0)
    assert len(gs_right.delivered) == 1
    assert gs_right.delivered[0].payload == "loud"


def test_unknown_radius_falls_back_to_default():
    sim, network, deployment = build_custom(extra_radii=(150.0,))
    pairs = deployment.bootstrap_grid(2, 1)
    sim.run(until=1.0)
    gs_left = pairs[0][1]
    ms_left = pairs[0][0]
    gs_left.port.send_spatial(Vec2(480.0, 500.0), "p", 64, radius=999.0)
    sim.run(until=2.0)
    assert ms_left.ctx.stats.radius_fallbacks == 1
    # Falls back to the default table: still within its strip, so the
    # packet was forwarded normally.
    assert len(pairs[1][1].delivered) == 1


def test_invalid_extra_radii_rejected():
    import pytest

    with pytest.raises(ValueError):
        MatrixConfig(world=WORLD, visibility_radius=50.0, extra_radii=(0.0,))
    with pytest.raises(ValueError):
        MatrixConfig(
            world=WORLD, visibility_radius=50.0, extra_radii=(600.0,)
        )


# ----------------------------------------------------------------------
# Coordinator replication (§3.2.4)
# ----------------------------------------------------------------------
def test_standby_mirrors_state():
    sim, network, deployment = build_custom(replicated_mc=True)
    deployment.bootstrap_grid(2, 1)
    sim.run(until=5.0)
    standby = deployment.standby_coordinator
    assert not standby.promoted
    assert standby.partitions == deployment.coordinator.partitions


def test_failover_promotes_standby_and_servers_follow():
    sim, network, deployment = build_custom(replicated_mc=True)
    pairs = deployment.bootstrap_grid(2, 1)
    sim.run(until=3.0)
    version_before = pairs[0][0].ctx.table_version

    sim.at(3.0, deployment.fail_coordinator)
    sim.run(until=10.0)
    standby = deployment.standby_coordinator
    assert standby.promoted
    # Servers switched coordinator and received fresh tables from it.
    for ms, _ in pairs:
        assert ms.ctx.coordinator == standby.name
        assert ms.ctx.table_version > version_before


def test_post_failover_queries_served_by_standby():
    sim, network, deployment = build_custom(replicated_mc=True)
    pairs = deployment.bootstrap_grid(2, 1)
    sim.run(until=3.0)
    sim.at(3.0, deployment.fail_coordinator)
    sim.run(until=10.0)
    answers = []
    pairs[0][1].port.query_consistency(Vec2(900.0, 500.0), answers.append)
    sim.run(until=12.0)
    assert answers == [frozenset({"gs.2"})]
    assert deployment.standby_coordinator.query_count == 1


def test_post_failover_splits_still_work():
    sim, network, deployment = build_custom(replicated_mc=True)
    ms, gs = deployment.bootstrap()
    sim.run(until=3.0)
    sim.at(3.0, deployment.fail_coordinator)
    sim.run(until=8.0)
    assert deployment.standby_coordinator.promoted
    # Now overload the server: the split must be announced to (and
    # propagated by) the standby.
    for i in range(4):
        sim.at(8.0 + i, lambda: gs.report(200))
    sim.run(until=25.0)
    assert ms.ctx.stats.splits_completed == 1
    assert len(deployment.standby_coordinator.partitions) == 2


def test_no_failover_while_primary_alive():
    sim, network, deployment = build_custom(replicated_mc=True)
    deployment.bootstrap_grid(2, 1)
    sim.run(until=30.0)
    assert not deployment.standby_coordinator.promoted


def test_data_path_survives_unreplicated_mc_crash():
    """Without a standby, losing the MC freezes repartitioning but the
    routing data path (precomputed tables) keeps working."""
    sim, network, deployment = build_custom(replicated_mc=False)
    pairs = deployment.bootstrap_grid(2, 1)
    sim.run(until=2.0)
    deployment.fail_coordinator()
    gs_left = pairs[0][1]
    gs_right = pairs[1][1]
    gs_left.emit(Vec2(480.0, 500.0))
    sim.run(until=4.0)
    assert len(gs_right.delivered) == 1
