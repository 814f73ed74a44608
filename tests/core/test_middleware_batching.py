"""End-to-end test of the spatial-batching middleware stage.

Acceptance property: with ``batch_spatial_forwards`` enabled via
``MatrixConfig``, game-visible delivery semantics are identical — every
packet that reached a game server unbatched reaches it batched, with
the same payloads — while the wire carries measurably fewer
inter-Matrix-server messages.
"""

from tests.core.helpers import ScriptedGameServer

from repro.core.config import LoadPolicyConfig, MatrixConfig
from repro.core.deployment import MatrixDeployment
from repro.games.profile import profile_by_name
from repro.geometry import Rect, Vec2
from repro.harness.compare import scaled_profile
from repro.harness.runner import run_scenario as run_registered_scenario
from repro.net.middleware import (
    BATCH_KIND,
    FaultInjectionStage,
    SpatialBatchingStage,
)
from repro.net.network import Network
from repro.sim.kernel import Simulator

WORLD = Rect(0.0, 0.0, 1000.0, 1000.0)


def run_scenario(batch: bool):
    """Drive a fixed packet script over a 2-server grid."""
    sim = Simulator()
    network = Network(sim)
    config = MatrixConfig(
        world=WORLD,
        visibility_radius=50.0,
        policy=LoadPolicyConfig(overload_clients=100, underload_clients=50),
        batch_spatial_forwards=batch,
    )
    deployment = MatrixDeployment(
        sim, network, config, game_server_factory=ScriptedGameServer
    )
    pairs = deployment.bootstrap_grid(2, 1)
    sim.run(until=1.0)  # tables installed

    gs_left, gs_right = pairs[0][1], pairs[1][1]
    # 30 packets from each side inside the border overlap strip, three
    # per emission time so same-destination aggregation has material.
    for step in range(10):
        at = 1.0 + step * 0.1

        def burst(left=gs_left, right=gs_right, step=step):
            for lane in range(3):
                y = 100.0 + 80.0 * lane + step
                left.emit(Vec2(480.0, y))
                right.emit(Vec2(520.0, y))

        sim.at(at, burst)
    # Quiet tail so every window flushes and every delivery lands.
    sim.run(until=5.0)
    # Multisets, not sequences: unbatched packets draw independent
    # network latencies, so intra-burst arrival interleaving is not a
    # semantic property — the delivered packets themselves are.
    delivered = {
        "left": sorted((p.origin.x, p.origin.y) for p in gs_left.delivered),
        "right": sorted((p.origin.x, p.origin.y) for p in gs_right.delivered),
    }
    stats = network.stats
    return delivered, stats


def test_batching_preserves_delivery_semantics_with_fewer_messages():
    plain_delivered, plain_stats = run_scenario(batch=False)
    batch_delivered, batch_stats = run_scenario(batch=True)

    # Identical game-visible delivery semantics: the very same packets
    # (by origin, per receiving server, in order) arrive in both runs.
    assert batch_delivered == plain_delivered
    assert len(plain_delivered["left"]) == 30
    assert len(plain_delivered["right"]) == 30

    # Reduced message count on the forward path.
    plain_forward = plain_stats.by_kind["matrix.forward"].messages
    batch_forward = (
        batch_stats.by_kind["matrix.forward"].messages
        + batch_stats.by_kind[BATCH_KIND].messages
    )
    assert plain_forward == 60
    assert batch_forward < plain_forward
    assert batch_stats.by_kind[BATCH_KIND].messages > 0
    assert batch_stats.total.messages < plain_stats.total.messages


def test_batching_stage_installed_from_config():
    sim = Simulator()
    network = Network(sim)
    config = MatrixConfig(
        world=WORLD,
        visibility_radius=50.0,
        batch_spatial_forwards=True,
    )
    deployment = MatrixDeployment(
        sim, network, config, game_server_factory=ScriptedGameServer
    )
    ms, _ = deployment.bootstrap()
    stages = [type(s) for s in ms.middleware.stages]
    assert stages == [SpatialBatchingStage]


def test_combined_stages_keep_fault_injection_innermost():
    """Fault injection must see packets before batching absorbs them.

    Batching comes from the config, at pair creation; faults from a
    chaos ``LinkDegrade``, installed when its window opens — so the
    fault stage is innermost and acts on single forwards, and batching
    aggregates the survivors."""
    outcome = run_registered_scenario(
        "lossy-wan",
        backend="matrix",
        profile=scaled_profile(profile_by_name("bzflag"), 0.05),
        policy=LoadPolicyConfig().scaled(0.05),
        batch_spatial_forwards=True,
        scale=0.05,
        preview=60.0,
        seed=3,
    )
    servers = list(outcome.experiment.deployment.matrix_servers.values())
    assert len(servers) > 1
    dropped = buffered = 0
    for ms in servers:
        batching, faults = ms.middleware.stages
        assert type(batching) is SpatialBatchingStage
        assert type(faults) is FaultInjectionStage
        dropped += faults.dropped
        buffered += batching.buffered_total
    assert dropped > 0 and buffered > 0
    # Every forward the routers sent was either dropped as a single
    # packet or reached the batching stage: nothing skipped the faults.
    assert dropped + buffered == sum(
        ms.ctx.stats.forwarded_packets for ms in servers
    )


def test_default_config_installs_no_stages():
    sim = Simulator()
    network = Network(sim)
    config = MatrixConfig(world=WORLD, visibility_radius=50.0)
    deployment = MatrixDeployment(
        sim, network, config, game_server_factory=ScriptedGameServer
    )
    ms, _ = deployment.bootstrap()
    assert not ms.middleware.stages
