"""The rival architectures as event-driven systems.

The acceptance contract of the ArchitectureBackend layer: each closed-
form model (mirror replication ``k·(k-1)``, p2p uplink growth, Chord
``½·log2 N`` hops) must agree with the corresponding *simulated*
backend's measured traffic within tolerance.
"""

import pytest

from repro.baselines.dht import chord_expected_hops
from repro.baselines.mirrored import MirroredExperiment, mirrored_cost
from repro.baselines.p2p import P2PExperiment, p2p_group_cost
from repro.games.profile import bzflag_profile
from repro.harness.runner import run_scenario
from repro.workload.scenarios import ArrivalWave, HotspotWave, MapPoint, Scenario

PROFILE = bzflag_profile()


def wave_scenario(count: int, duration: float = 30.0) -> Scenario:
    return Scenario(
        name="wave",
        description="one arrival wave",
        duration=duration,
        phases=(ArrivalWave(count=count),),
    )


def hotspot_scenario(count: int, duration: float = 40.0) -> Scenario:
    """A stationary pile-up in the middle of one region tile."""
    return Scenario(
        name="pileup",
        description="one stationary hotspot inside a single p2p region",
        duration=duration,
        phases=(
            HotspotWave(
                count=count,
                center=MapPoint(0.25, 0.25),
                at=0.0,
                group="pileup",
                over=0.0,
                spread_fraction=0.4,
            ),
        ),
    )


# ----------------------------------------------------------------------
# Mirrored
# ----------------------------------------------------------------------
def test_mirrored_replication_matches_analytic_model():
    """Every spatial packet is replicated to exactly k-1 peers — the
    measured ratio must equal the closed-form replication overhead."""
    for mirrors in (2, 4):
        outcome = run_scenario(
            wave_scenario(24), backend="mirrored", seed=3, mirrors=mirrors
        )
        metrics = outcome.result.consistency
        assert metrics["client_spatial_packets"] > 500
        measured = metrics["replication_per_client_packet"]
        cost = mirrored_cost(PROFILE, 24, mirrors)
        analytic = (
            cost.replication_packets_per_second
            / cost.client_packets_per_second
        )
        assert measured == pytest.approx(analytic)
        assert analytic == mirrors - 1


def test_mirrored_round_robin_balances_clients():
    outcome = run_scenario(
        wave_scenario(30), backend="mirrored", seed=2, mirrors=3
    )
    counts = [
        series.last()
        for series in outcome.result.clients_per_server.values()
    ]
    assert len(counts) == 3
    assert sum(counts) == 30
    assert max(counts) - min(counts) <= 1


def test_mirrored_mirrors_stay_consistent_via_replicas():
    """Replicated packets really reach the peer game servers: every
    mirror ghosts the rest of the population."""
    outcome = run_scenario(wave_scenario(12), backend="mirrored", seed=1)
    for game_server in outcome.experiment.game_servers.values():
        assert set(game_server._ghosts) - set(game_server._clients)


def test_mirrored_every_mirror_sees_full_packet_rate():
    """The §5 ceiling: each mirror processes (own + replicated) packets
    at the full population rate — adding mirrors does not shed load."""
    outcome = run_scenario(
        wave_scenario(24, duration=30.0), backend="mirrored", seed=3,
        mirrors=3,
    )
    experiment = outcome.experiment
    spatial = sum(g.client_packets for g in experiment.gates.values())
    for gate in experiment.gates.values():
        processed = gate.client_packets + gate.replica_packets
        # own share (~1/3) + replicas of the other two shares = total.
        assert processed == pytest.approx(spatial, rel=0.05)


# ----------------------------------------------------------------------
# P2P
# ----------------------------------------------------------------------
def test_p2p_upload_matches_analytic_model():
    """Measured per-player upload tracks the closed-form
    ``(group_size - 1)`` growth within tolerance."""
    group = 16
    outcome = run_scenario(
        hotspot_scenario(group), backend="p2p", seed=4
    )
    experiment = outcome.experiment
    duration = outcome.result.duration
    uploads = [
        uplink.upload_bytes / duration
        for uplink in experiment.uplinks.values()
    ]
    assert len(uploads) == group
    mean_upload = sum(uploads) / len(uploads)
    analytic = p2p_group_cost(PROFILE, group).upload_bytes_per_second
    assert mean_upload == pytest.approx(analytic, rel=0.25)


def test_p2p_upload_grows_linearly_with_group_size():
    rates = {}
    for group in (8, 24):
        outcome = run_scenario(
            hotspot_scenario(group), backend="p2p", seed=4
        )
        uploads = [
            uplink.upload_bytes / outcome.result.duration
            for uplink in outcome.experiment.uplinks.values()
        ]
        rates[group] = sum(uploads) / len(uploads)
    measured_ratio = rates[24] / rates[8]
    analytic_ratio = (
        p2p_group_cost(PROFILE, 24).upload_bytes_per_second
        / p2p_group_cost(PROFILE, 8).upload_bytes_per_second
    )
    assert measured_ratio == pytest.approx(analytic_ratio, rel=0.15)


def test_p2p_roamers_reregister_across_regions():
    """Random-waypoint players cross region tiles; their uplinks must
    leave the old tracker and join the new one."""
    outcome = run_scenario(
        wave_scenario(20, duration=60.0), backend="p2p", seed=6
    )
    trackers = outcome.experiment.trackers
    traffic = outcome.result.traffic
    assert traffic.kind_messages("p2p.join") > 20, "no one ever re-registered"
    assert traffic.kind_messages("p2p.leave") > 0
    # Membership stays coherent: every active uplink is in exactly the
    # tracker of the region its player currently occupies.
    total_members = sum(tracker.member_count for tracker in trackers)
    active = len(
        [u for u in outcome.experiment.uplinks.values() if u._client]
    )
    assert total_members == active


def test_p2p_has_no_servers():
    outcome = run_scenario(wave_scenario(8, duration=15.0), backend="p2p")
    assert outcome.result.servers_used == 0


def test_p2p_hotspot_fails_in_scaled_comparison():
    """compare_backends scales the uplink capacity with the population,
    so the p2p failure mode (a hotspot group past the consumer-uplink
    ceiling) survives scaled-down runs instead of vanishing."""
    from repro.core.config import LoadPolicyConfig
    from repro.harness.compare import compare_backends

    matrix, p2p = compare_backends(
        "flash-crowd",
        backends=("matrix", "p2p"),
        policy=LoadPolicyConfig().scaled(0.1),
        seed=1,
        scale=0.1,
        preview=80.0,
    )
    assert not matrix.failed
    assert p2p.failed, "scaled uplinks must still choke on the hotspot"
    assert p2p.p99_latency > matrix.p99_latency


# ----------------------------------------------------------------------
# DHT
# ----------------------------------------------------------------------
def test_dht_mean_hops_matches_chord_expectation():
    """Measured overlay walk length converges to ½·log2 N."""
    outcome = run_scenario(
        wave_scenario(40, duration=40.0), backend="dht", seed=7,
        columns=4, rows=2,
    )
    metrics = outcome.result.consistency
    assert metrics["lookups"] > 1000
    expected = chord_expected_hops(8)
    assert metrics["expected_hops"] == expected
    assert metrics["mean_hops"] == pytest.approx(expected, rel=0.12)


def test_dht_lookups_cost_real_latency():
    """Lookup chains are real messages: latency is nonzero and the
    buffered packets still reach the neighbouring game servers."""
    outcome = run_scenario(
        hotspot_scenario(20), backend="dht", seed=5, columns=4, rows=2
    )
    metrics = outcome.result.consistency
    assert metrics["mean_lookup_latency"] > 0.0
    assert metrics["dht_messages"] > 0
    assert outcome.result.traffic.kind_messages("matrix.deliver") > 0


def test_dht_hop_sampling_is_seed_deterministic():
    """Lookup sampling rides the experiment's RngRegistry stream, so
    the whole hop sequence is a pure function of the seed."""

    def digest(seed):
        outcome = run_scenario(
            wave_scenario(15, duration=20.0), backend="dht", seed=seed
        )
        hops = []
        for router in outcome.experiment.routers.values():
            hops.extend(router.hop_counts)
        return (
            tuple(hops),
            outcome.result.traffic.total.messages,
        )

    assert digest(3) == digest(3)
    assert digest(3) != digest(4)
