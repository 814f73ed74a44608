"""Integration tests for the microbenchmark and comparison harnesses."""

import pytest

from repro.core.config import LoadPolicyConfig
from repro.games.profile import bzflag_profile
from repro.harness.compare import (
    SystemOutcome,
    compare_backends,
    scaled_run_arguments,
)
from repro.harness.micro import (
    bandwidth_overlap_correlation,
    coordinator_overhead,
    measure_bandwidth_vs_overlap,
    measure_switching_latency,
)
from repro.harness.runner import run_scenario
from repro.harness.userstudy import measure_transparency
from repro.workload.scenarios import build_scenario


def test_switching_latency_microbench():
    summary = measure_switching_latency(
        bzflag_profile(), clients=50, duration=45.0, seed=0
    )
    assert summary.count >= 10
    # Two WAN legs + light queueing: tens of milliseconds.
    assert 0.01 < summary.p50 < 0.2
    assert summary.maximum < 1.0


def test_bandwidth_tracks_overlap():
    points = measure_bandwidth_vs_overlap(
        bzflag_profile(), radii=(20.0, 50.0, 80.0), clients=60,
        duration=25.0, seed=0,
    )
    assert len(points) == 3
    assert bandwidth_overlap_correlation(points) > 0.9
    byte_counts = [p.forward_bytes for p in points]
    assert byte_counts == sorted(byte_counts)
    areas = [p.overlap_area for p in points]
    assert areas == sorted(areas)


def test_compare_matrix_beats_static():
    """T-static: the Fig 2 hotspot on Matrix and on the fixed 2x1 grid."""
    scale = 0.1
    matrix, static = compare_backends(
        "fig2-hotspot",
        backends=("matrix", "static"),
        policy=LoadPolicyConfig().scaled(scale),
        seed=1,
        scale=scale,
        preview=120.0,
    )
    assert not matrix.failed and static.failed
    assert matrix.servers_used > static.servers_used
    assert static.p99_latency > matrix.p99_latency
    # Pinned: a change that moves these changes simulated behaviour.
    assert matrix == SystemOutcome(
        "matrix", 175.0, 0, pytest.approx(1.7509918774302156), 7, False
    )
    assert static == SystemOutcome(
        "static", 1506.0, 0, pytest.approx(12.727447536472742), 2, True
    )


def test_transparency_report():
    report = measure_transparency(
        bzflag_profile(),
        hotspot_clients=40,
        background_clients=20,
        duration=100.0,
        settle_time=60.0,
        seed=0,
    )
    assert report.splits_triggered > 0
    assert report.transparent
    assert abs(report.added_p50) < report.threshold
    # Pinned to the numbers the paired runs produced before they were
    # declared as scenarios.
    assert report.splits_triggered == 5
    assert report.with_splits.p50 == pytest.approx(0.5690698592612335)
    assert report.with_splits.p90 == pytest.approx(0.9627191150273624)
    assert report.without_splits.p50 == pytest.approx(0.5299012423248399)
    assert report.without_splits.p90 == pytest.approx(0.9688656364532562)


def test_coordinator_overhead_accessor():
    result = run_scenario(
        **scaled_run_arguments(
            build_scenario("fig2-hotspot"), "matrix", 0.05, 0, preview=60.0
        )
    ).result
    overhead = coordinator_overhead(result)
    assert overhead.total_messages > 0
    assert 0.0 < overhead.message_fraction < 0.05
    assert overhead.mc_messages >= 2  # register + at least one table push
