"""Integration tests for MatrixServer split/reclaim/routing flows.

These drive a real deployment (coordinator + network + pool) with
scripted game servers, injecting load reports directly — no client
fleet, so every protocol step is observable and deterministic.
"""

from tests.core.helpers import build_deployment

from repro.geometry import Rect, Vec2


def drive_overload(sim, gs, reports=4, start=1.0, clients=200):
    """Inject periodic overload reports from *gs*."""
    for i in range(reports):
        sim.at(start + i, lambda c=clients: gs.report(c))


def test_split_creates_child_with_left_half():
    sim, network, deployment = build_deployment()
    ms, gs = deployment.bootstrap()
    gs.fake_positions = [Vec2(600.0, 500.0)] * 5
    drive_overload(sim, gs, reports=4)
    sim.run(until=20.0)

    assert ms.ctx.stats.splits_completed == 1
    assert len(deployment.matrix_servers) == 2
    child = deployment.matrix_servers["ms.2"]
    # Split-to-left: the child owns the left half.
    assert child.partition == Rect(0.0, 0.0, 500.0, 1000.0)
    assert ms.partition == Rect(500.0, 0.0, 1000.0, 1000.0)
    assert child.ctx.parent == "ms.1"
    assert [c.matrix_name for c in ms.ctx.children] == ["ms.2"]


def test_split_registers_child_with_coordinator():
    sim, network, deployment = build_deployment()
    ms, gs = deployment.bootstrap()
    drive_overload(sim, gs)
    sim.run(until=20.0)
    mc = deployment.coordinator
    assert len(mc.partitions) == 2
    assert mc.coverage_area() == deployment.config.world.area


def test_both_servers_get_overlap_tables_after_split():
    sim, network, deployment = build_deployment()
    ms, gs = deployment.bootstrap()
    drive_overload(sim, gs)
    sim.run(until=20.0)
    child = deployment.matrix_servers["ms.2"]
    assert ms.ctx.table.regions, "parent must now have a boundary strip"
    assert child.ctx.table.regions


def test_game_server_told_of_new_range_after_split():
    sim, network, deployment = build_deployment()
    ms, gs = deployment.bootstrap()
    drive_overload(sim, gs)
    sim.run(until=20.0)
    assert gs.range_updates
    assert gs.range_updates[-1].partition == ms.partition
    assert "gs.2" in gs.range_updates[-1].directory


def test_pool_exhaustion_fails_split_gracefully():
    sim, network, deployment = build_deployment(pool_capacity=0)
    ms, gs = deployment.bootstrap()
    drive_overload(sim, gs, reports=6)
    sim.run(until=20.0)
    assert ms.ctx.stats.splits_completed == 0
    assert ms.ctx.stats.failed_splits >= 1
    assert not ms.lifecycle.busy  # must not wedge


def test_recursive_splits_under_sustained_overload():
    sim, network, deployment = build_deployment()
    ms, gs = deployment.bootstrap()
    # The scripted parent stays "overloaded" forever; children never
    # report, so only ms.1 keeps splitting.
    drive_overload(sim, gs, reports=12, clients=500)
    sim.run(until=30.0)
    assert ms.ctx.stats.splits_completed >= 2
    assert len(deployment.matrix_servers) >= 3


def test_reclaim_merges_partition_and_decommissions_child():
    sim, network, deployment = build_deployment(pool_capacity=8)
    ms, gs = deployment.bootstrap()
    drive_overload(sim, gs)
    sim.run(until=20.0)
    child = deployment.matrix_servers["ms.2"]
    child_gs = deployment.game_servers["gs.2"]

    # Now both report underload for a while.
    for i in range(12):
        sim.at(20.0 + i, lambda: gs.report(10))
        sim.at(20.0 + i + 0.1, lambda: child_gs.report(5))
    sim.run(until=45.0)

    assert ms.ctx.stats.reclaims_completed == 1
    assert ms.partition == deployment.config.world
    assert ms.ctx.children == []
    assert "ms.2" not in deployment.matrix_servers
    assert not network.has_node("ms.2")
    assert not network.has_node("gs.2")
    assert deployment.pool.available == 8  # every host back
    # Child's game server was told to evacuate to the parent's.
    assert child_gs.evacuations == ["gs.1"]


def test_reclaim_refused_while_child_has_children():
    sim, network, deployment = build_deployment()
    ms, gs = deployment.bootstrap()
    drive_overload(sim, gs)
    sim.run(until=20.0)
    child = deployment.matrix_servers["ms.2"]
    child_gs = deployment.game_servers["gs.2"]

    # The child itself splits.
    for i in range(4):
        sim.at(20.0 + i, lambda: child_gs.report(200))
    sim.run(until=35.0)
    assert child.ctx.stats.splits_completed == 1
    grandchild_gs = deployment.game_servers[child.ctx.children[0].game_server]

    # Parent + child report underload, but the child has a child:
    # gossip carries has_children=True, so no reclaim may fire.
    for i in range(10):
        sim.at(35.0 + i, lambda: gs.report(10))
        sim.at(35.0 + i + 0.1, lambda: child_gs.report(5))
    sim.run(until=50.0)
    assert ms.ctx.stats.reclaims_completed == 0
    assert "ms.2" in deployment.matrix_servers

    # Once the grandchild is reclaimed, the chain unwinds fully.
    for i in range(25):
        sim.at(50.0 + i, lambda: gs.report(10))
        sim.at(50.0 + i + 0.1, lambda: child_gs.report(5))
        sim.at(50.0 + i + 0.2, lambda: grandchild_gs.report(2))
    sim.run(until=90.0)
    assert child.ctx.stats.reclaims_completed == 1
    assert ms.ctx.stats.reclaims_completed == 1
    assert ms.partition == deployment.config.world


def test_routing_interior_packet_stays_local():
    sim, network, deployment = build_deployment()
    pairs = deployment.bootstrap_grid(2, 1)
    sim.run(until=1.0)
    gs_left = pairs[0][1]
    ms_left = pairs[0][0]
    gs_right = pairs[1][1]
    gs_left.emit(Vec2(100.0, 500.0))  # deep interior
    sim.run(until=2.0)
    assert ms_left.ctx.stats.forwarded_packets == 0
    assert gs_right.delivered == []


def test_routing_boundary_packet_reaches_neighbour():
    sim, network, deployment = build_deployment()
    pairs = deployment.bootstrap_grid(2, 1)
    sim.run(until=1.0)
    gs_left = pairs[0][1]
    gs_right = pairs[1][1]
    gs_left.emit(Vec2(480.0, 500.0))  # within R=50 of the border
    sim.run(until=2.0)
    assert len(gs_right.delivered) == 1
    assert gs_right.delivered[0].origin == Vec2(480.0, 500.0)


def test_routing_with_remote_dest_reaches_owner():
    sim, network, deployment = build_deployment()
    pairs = deployment.bootstrap_grid(2, 1)
    sim.run(until=1.0)
    gs_left = pairs[0][1]
    gs_right = pairs[1][1]
    # Interior origin, but explicitly destined for the right half.
    gs_left.emit(Vec2(100.0, 500.0), dest=Vec2(900.0, 500.0))
    sim.run(until=2.0)
    assert len(gs_right.delivered) == 1


def test_stale_forward_dropped_by_range_check():
    sim, network, deployment = build_deployment()
    pairs = deployment.bootstrap_grid(2, 1)
    sim.run(until=1.0)
    ms_right = pairs[1][0]
    gs_right = pairs[1][1]
    # Hand-craft a forward for a point nowhere near ms.2's partition.
    from repro.core.messages import SpatialPacket

    packet = SpatialPacket(origin=Vec2(10.0, 10.0), payload="stale")
    pairs[0][0].send("ms.2", "matrix.forward", packet, size_bytes=64)
    sim.run(until=2.0)
    assert ms_right.ctx.stats.stale_forwards == 1
    assert gs_right.delivered == []


def test_no_table_no_forwarding():
    """Before the first table arrives, spatial packets are local-only."""
    sim, network, deployment = build_deployment()
    ms, gs = deployment.bootstrap()
    # Emit before running the sim at all (table not yet delivered).
    gs.emit(Vec2(500.0, 500.0))
    sim.run(until=1.0)
    assert ms.ctx.stats.local_only_packets == 1


def test_gossip_reaches_parent():
    sim, network, deployment = build_deployment()
    ms, gs = deployment.bootstrap()
    drive_overload(sim, gs)
    sim.run(until=20.0)
    child_gs = deployment.game_servers["gs.2"]
    sim.at(20.0, lambda: child_gs.report(42))
    sim.run(until=22.0)
    assert ms.ctx.child_loads["ms.2"].client_count == 42
    assert ms.ctx.child_loads["ms.2"].has_children is False


def protocol_ids():
    """``(kind, request id / transfer id)`` of every message one split
    and two consistency queries put on the wire."""
    sim, network, deployment = build_deployment()
    ms, gs = deployment.bootstrap()
    seen = []

    def tap(message):
        payload = message.payload
        for field in ("request_id", "transfer_id"):
            if hasattr(payload, field):
                seen.append((message.kind, getattr(payload, field)))

    network.add_tap(tap)
    drive_overload(sim, gs)
    answers = []
    for at in (2.0, 25.0):
        sim.at(at, lambda: gs.port.query_consistency(Vec2(10, 10), answers.append))
    sim.run(until=30.0)
    assert ms.ctx.stats.splits_completed == 1
    assert len(answers) == 2
    return seen


def test_protocol_ids_do_not_depend_on_earlier_runs_in_the_process():
    first = protocol_ids()
    kinds = {kind for kind, _ in first}
    assert {"matrix.query", "mc.query", "matrix.state.begin"} <= kinds
    assert {"matrix.state.chunk", "matrix.state.done", "gs.query_reply"} <= kinds
    assert protocol_ids() == first


#: What a Matrix server answered before its components declared their
#: own kinds (captured from ``MatrixServer._dispatch_table`` at PR 18,
#: less the two ``fabric.*`` replies only a lane deployment ever sends).
MATRIX_SERVER_KINDS = {
    "game.spatial",
    "matrix.forward",
    "mc.table",
    "mc.failover",
    "matrix.load",
    "matrix.gossip",
    "matrix.query",
    "mc.reply",
    "matrix.ctl.split_grant",
    "matrix.ctl.reclaim_req",
    "matrix.ctl.reclaim_nack",
    "matrix.ctl.reclaim_ack",
    "matrix.ctl.reclaim_abort",
    "matrix.state.begin",
    "matrix.state.chunk",
    "matrix.state.done",
}


def handled_kinds(node) -> set[str]:
    return set(node._handlers)


def test_matrix_server_answers_the_same_kinds_as_before_adoption():
    sim, network, deployment = build_deployment()
    ms, _ = deployment.bootstrap()
    assert handled_kinds(ms) == MATRIX_SERVER_KINDS
    assert type(ms)._dispatch_table == {"mc.failover": "_on_failover"}


def test_lane_matrix_server_also_answers_the_fabric_replies():
    from repro.games.profile import profile_by_name
    from repro.harness.shards import ShardedMatrixExperiment

    experiment = ShardedMatrixExperiment(
        profile_by_name("bzflag"), shards=2, grid=(2, 1)
    )
    for ms in experiment.deployment.matrix_servers.values():
        assert handled_kinds(ms) == MATRIX_SERVER_KINDS | {
            "fabric.grant",
            "fabric.spawned",
        }
