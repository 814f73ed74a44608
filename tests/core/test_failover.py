"""Focused StandbyCoordinator failover coverage (§3.2.4 replication).

Three scenarios beyond the happy-path tests in ``test_extensions``:

* promotion timing — the standby waits out ``MC_FAILOVER_TIMEOUT`` of
  missed sync heartbeats before promoting, and not a moment less;
* zombie primary — a stale ``mc.sync`` arriving *after* promotion must
  not demote the standby or overwrite its authoritative state;
* table-version supersession — the promoted standby's recomputed tables
  carry a higher version than anything the dead primary pushed, and a
  straggler push with an old version is rejected by servers.
"""

from tests.core.helpers import ScriptedGameServer

from repro.core.config import LoadPolicyConfig, MatrixConfig
from repro.core.deployment import MatrixDeployment
from repro.geometry import Rect
from repro.net.message import Message
from repro.net.network import Network
from repro.sim.kernel import Simulator

WORLD = Rect(0.0, 0.0, 1000.0, 1000.0)


def build():
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
        replicated_mc=True,
    )
    return sim, network, deployment


def test_promotion_waits_out_missed_heartbeats():
    sim, network, deployment = build()
    deployment.bootstrap_grid(2, 1)
    standby = deployment.standby_coordinator
    sim.run(until=5.0)
    sim.at(5.0, deployment.fail_coordinator)

    # Syncs arrive every 1s, the monitor checks every 1s: promotion
    # requires a 3s silent gap, so it cannot fire before t≈8.
    sim.run(until=7.5)
    assert not standby.promoted
    sim.run(until=10.0)
    assert standby.promoted
    # The mirrored state carried over verbatim.
    assert set(standby.partitions) == {"ms.1", "ms.2"}


def test_zombie_primary_sync_rejected_after_promotion():
    sim, network, deployment = build()
    deployment.bootstrap_grid(2, 1)
    standby = deployment.standby_coordinator
    sim.run(until=3.0)
    sim.at(3.0, deployment.fail_coordinator)
    sim.run(until=8.0)
    assert standby.promoted
    version_after_promotion = standby.version
    partitions_after_promotion = dict(standby.partitions)

    # The "dead" primary flickers back and emits one last stale sync
    # with pre-promotion state.  The standby must stay promoted and
    # keep its own (already recomputed, higher-versioned) state.
    stale_state = {
        "partitions": {"ms.zombie": WORLD},
        "game_server_of": {"ms.zombie": "gs.zombie"},
        "radius": 50.0,
        "version": 0,
    }
    standby.handle_message(
        Message(
            src="mc",
            dst=standby.name,
            kind="mc.sync",
            payload=stale_state,
            size_bytes=64,
        )
    )
    assert standby.promoted
    assert standby.version == version_after_promotion
    assert standby.partitions == partitions_after_promotion
    assert "ms.zombie" not in standby.partitions


def test_promoted_tables_supersede_primary_versions():
    sim, network, deployment = build()
    pairs = deployment.bootstrap_grid(2, 1)
    standby = deployment.standby_coordinator
    sim.run(until=3.0)
    primary_version = deployment.coordinator.version
    server_versions = {ms.name: ms.ctx.table_version for ms, _ in pairs}
    assert all(v == primary_version for v in server_versions.values())

    sim.at(3.0, deployment.fail_coordinator)
    sim.run(until=10.0)
    assert standby.promoted
    # The standby recomputed from mirrored state: strictly newer tables
    # reached every server, and every server now follows the standby.
    assert standby.version > primary_version
    for ms, _ in pairs:
        assert ms.ctx.table_version == standby.version
        assert ms.ctx.coordinator == standby.name

    # A straggler push from the dead primary (old version) is ignored.
    ms = pairs[0][0]
    stale_version = primary_version
    installed_partition = ms.partition
    from repro.core.messages import OverlapTableUpdate

    stale_update = OverlapTableUpdate(
        version=stale_version,
        partition=WORLD,
        tables={50.0: []},
        default_radius=50.0,
        partitions={"ms.1": WORLD},
        game_servers={"gs.1": WORLD},
        server_map={"ms.1": "gs.1"},
    )
    ms.handle_message(
        Message(
            src="mc",
            dst=ms.name,
            kind="mc.table",
            payload=stale_update,
            size_bytes=64,
        )
    )
    assert ms.ctx.table_version == standby.version
    assert ms.partition == installed_partition


def test_unpromoted_standby_ignores_primary_traffic():
    sim, network, deployment = build()
    pairs = deployment.bootstrap_grid(2, 1)
    standby = deployment.standby_coordinator
    sim.run(until=2.0)
    # A misdirected query lands on the standby pre-promotion: dropped.
    from repro.core.messages import ConsistencyQuery
    from repro.geometry import Vec2

    standby.handle_message(
        Message(
            src=pairs[0][0].name,
            dst=standby.name,
            kind="mc.query",
            payload=ConsistencyQuery(
                point=Vec2(900.0, 500.0), exclude="", request_id=1
            ),
            size_bytes=64,
        )
    )
    assert standby.query_count == 0
