"""Integration tests: the Fig 2 experiment reproduces the paper's shape.

These run the scaled-down hotspot (population and thresholds scaled by
the same factor, so dynamics are preserved) and assert the qualitative
claims of §4.1.
"""

import pytest

from repro.games.profile import bzflag_profile
from repro.harness.compare import scaled_profile
from repro.harness.experiment import MatrixExperiment
from repro.harness.fig2 import (
    Fig2Schedule,
    install_fig2_workload,
    mini_fig2_policy,
)

SCALE = 0.1


@pytest.fixture(scope="module")
def fig2_result():
    schedule = Fig2Schedule().scaled(SCALE)
    experiment = MatrixExperiment(
        scaled_profile(bzflag_profile(), SCALE),
        policy=mini_fig2_policy(SCALE),
        seed=1,
    )
    install_fig2_workload(experiment, schedule)
    return experiment.run(until=schedule.duration)


def test_hotspot_forces_split_cascade(fig2_result):
    assert fig2_result.splits_completed >= 3
    assert fig2_result.servers_used >= 4


def test_first_splits_follow_hotspot_onset(fig2_result):
    spawns = fig2_result.spawn_times()
    assert spawns, "no servers were spawned"
    # Hotspot at t=10; the first split must land shortly after.
    assert 10.0 < spawns[0] < 40.0


def test_departures_trigger_reclamations(fig2_result):
    reclaims = fig2_result.reclaim_times()
    assert reclaims, "no reclamations happened"
    # Reclamations only after the departure phase begins (t=85).
    assert all(t > 85.0 for t in reclaims)


def test_queues_spike_then_recover(fig2_result):
    assert fig2_result.max_queue() > 20, "hotspot should stress a queue"
    for name, series in fig2_result.queue_per_server.items():
        if len(series):
            assert series.last() <= max(20.0, 0.2 * series.max()), name


def test_consolidation_toward_fewer_servers(fig2_result):
    # After both hotspots drain, the fleet consolidates.
    assert fig2_result.final_server_count() < fig2_result.servers_used


def test_no_failed_splits_with_adequate_pool(fig2_result):
    assert fig2_result.failed_splits == 0


def test_latencies_collected(fig2_result):
    assert len(fig2_result.action_latencies) > 100
    assert len(fig2_result.switch_latencies) > 10


def test_coordinator_traffic_negligible(fig2_result):
    assert fig2_result.traffic.kind_fraction("mc.") < 0.01


def test_total_clients_follow_schedule(fig2_result):
    series = fig2_result.total_clients
    schedule = Fig2Schedule().scaled(SCALE)
    peak_expected = (
        schedule.background_clients + schedule.hotspot_clients
    )
    assert series.max() >= 0.9 * peak_expected
    # Between the waves (t ~ 160) the hotspot population is gone.
    assert series.at(165.0) <= schedule.background_clients * 1.5


def test_determinism_same_seed():
    schedule = Fig2Schedule().scaled(0.05)
    schedule.duration = 60.0

    def run():
        experiment = MatrixExperiment(
            scaled_profile(bzflag_profile(), 0.05),
            policy=mini_fig2_policy(0.05),
            seed=9,
        )
        install_fig2_workload(experiment, schedule)
        result = experiment.run(until=schedule.duration)
        return (
            result.splits_completed,
            result.spawn_times(),
            result.events_processed,
        )

    assert run() == run()


def test_different_seed_differs():
    schedule = Fig2Schedule().scaled(0.05)
    schedule.duration = 60.0

    def run(seed):
        experiment = MatrixExperiment(
            scaled_profile(bzflag_profile(), 0.05),
            policy=mini_fig2_policy(0.05),
            seed=seed,
        )
        install_fig2_workload(experiment, schedule)
        return experiment.run(until=schedule.duration).events_processed

    assert run(1) != run(2)


def test_pool_exhaustion_degrades_gracefully():
    """With a tiny pool Matrix behaves like (slightly better) static:
    some splits fail, but the run completes and queues stay finite."""
    schedule = Fig2Schedule().scaled(0.1)
    schedule.duration = 100.0
    experiment = MatrixExperiment(
        scaled_profile(bzflag_profile(), 0.1),
        policy=mini_fig2_policy(0.1),
        seed=1,
        pool_capacity=1,
    )
    install_fig2_workload(experiment, schedule)
    result = experiment.run(until=schedule.duration)
    assert result.splits_completed <= 1
    assert result.failed_splits > 0
