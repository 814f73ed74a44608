"""Tests for the paper's optional coordinator replication (§3.2.4)."""

from tests.core.helpers import ScriptedGameServer

from repro.core.config import LoadPolicyConfig, MatrixConfig
from repro.core.deployment import MatrixDeployment
from repro.geometry import Rect, Vec2
from repro.net.network import Network
from repro.sim.kernel import Simulator

WORLD = Rect(0.0, 0.0, 1000.0, 1000.0)


def build_custom(replicated_mc=False):
    sim = Simulator()
    network = Network(sim)
    config = MatrixConfig(
        world=WORLD,
        visibility_radius=50.0,
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
    repliers = []
    network.add_tap(
        lambda m, dst: repliers.append(m.src) if m.kind == "mc.reply" else None
    )
    answers = []
    pairs[0][1].port.query_consistency(Vec2(900.0, 500.0), answers.append)
    sim.run(until=12.0)
    assert answers == [frozenset({"gs.2"})]
    assert repliers == [deployment.standby_coordinator.name]


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
