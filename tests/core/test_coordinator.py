"""Tests for the Matrix Coordinator."""

from tests.core.helpers import build_deployment

from repro.geometry import Vec2


def bootstrapped(pool_capacity=8):
    sim, network, deployment = build_deployment(pool_capacity=pool_capacity)
    ms, gs = deployment.bootstrap()
    sim.run(until=1.0)
    return sim, network, deployment, ms, gs


def test_register_pushes_table_to_server():
    sim, network, deployment, ms, gs = bootstrapped()
    assert ms.ctx.table_version >= 1
    assert len(deployment.coordinator.partitions) == 1


def test_single_server_table_has_no_overlap():
    sim, network, deployment, ms, gs = bootstrapped()
    # With one server, every interior point has an empty set.
    assert ms.ctx.table is not None
    assert ms.ctx.table.regions == []


def test_grid_bootstrap_creates_consistent_partitions():
    sim, network, deployment = build_deployment()
    deployment.bootstrap_grid(2, 2)
    sim.run(until=1.0)
    mc = deployment.coordinator
    assert len(mc.partitions) == 4
    # Partitions tile the world exactly.
    assert mc.coverage_area() == deployment.config.world.area


def test_grid_tables_include_directory():
    sim, network, deployment = build_deployment()
    pairs = deployment.bootstrap_grid(2, 1)
    sim.run(until=1.0)
    for ms, gs in pairs:
        assert set(ms.ctx.directory) == {"gs.1", "gs.2"}
        assert set(ms.ctx.partitions) == {"ms.1", "ms.2"}
        assert ms.ctx.server_map == {"ms.1": "gs.1", "ms.2": "gs.2"}


def test_set_range_forwarded_to_game_server():
    sim, network, deployment = build_deployment()
    pairs = deployment.bootstrap_grid(2, 1)
    sim.run(until=1.0)
    for _, gs in pairs:
        assert gs.range_updates, "game server never got gs.set_range"
        directive = gs.range_updates[-1]
        assert set(directive.directory) == {"gs.1", "gs.2"}


def test_version_increases_on_each_recompute():
    sim, network, deployment = build_deployment()
    deployment.bootstrap_grid(2, 1)
    sim.run(until=1.0)
    mc = deployment.coordinator
    assert mc.version == 2  # one recompute per registration
    for ms in deployment.matrix_servers.values():
        assert ms.ctx.table_version == mc.version


def test_nonproximal_query_round_trip():
    sim, network, deployment = build_deployment()
    pairs = deployment.bootstrap_grid(2, 1)
    sim.run(until=1.0)
    gs_left = pairs[0][1]
    answers = []
    # Ask about a point deep inside the *right* partition: the owner
    # (gs.2) must be in the answer even though it is far away.
    gs_left.port.query_consistency(Vec2(900.0, 500.0), answers.append)
    sim.run(until=2.0)
    assert answers == [frozenset({"gs.2"})]


def test_nonproximal_query_near_boundary_includes_neighbours():
    sim, network, deployment = build_deployment()
    pairs = deployment.bootstrap_grid(2, 1)
    sim.run(until=1.0)
    gs_left = pairs[0][1]
    answers = []
    # A point just right of the boundary is owned by ms.2 but within R
    # of ms.1; ms.1 is excluded (it is the asker).
    gs_left.port.query_consistency(Vec2(510.0, 500.0), answers.append)
    sim.run(until=2.0)
    assert answers == [frozenset({"gs.2"})]


def test_query_count_tracked():
    sim, network, deployment = build_deployment()
    pairs = deployment.bootstrap_grid(2, 1)
    sim.run(until=1.0)
    answers = []
    for _ in range(3):
        pairs[0][1].port.query_consistency(Vec2(1.0, 1.0), answers.append)
    sim.run(until=2.0)
    traffic = network.stats
    assert traffic.kind_messages("mc.query") == 3
    assert traffic.kind_messages("mc.reply") == 3
    assert len(answers) == 3


def test_stale_split_notice_ignored():
    sim, network, deployment, ms, gs = bootstrapped()
    from repro.core.messages import SplitNotice
    from repro.geometry import Rect

    mc = deployment.coordinator
    before = mc.version
    notice = SplitNotice(
        parent="ms.ghost",
        parent_partition=Rect(0, 0, 1, 1),
        child="ms.ghost2",
        child_game_server="gs.ghost2",
        child_partition=Rect(1, 0, 2, 1),
    )
    ms.send("mc", "mc.split", notice, size_bytes=64)
    sim.run(until=2.0)
    assert mc.version == before  # unknown parent: no recompute
