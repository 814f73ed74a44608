"""Integration tests: the Fig 2 experiment reproduces the paper's shape.

These run the scaled-down hotspot (population and thresholds scaled by
the same factor, so dynamics are preserved) and assert the qualitative
claims of §4.1.
"""

import pytest

from repro.harness.compare import scaled_run_arguments
from repro.harness.runner import run_scenario
from repro.workload.scenarios import build_scenario

SCALE = 0.1


def fig2_run(scale, seed, preview=None, **options):
    """The catalog's fig2-hotspot on Matrix, population, thresholds and
    capacity scaled together; *options* go to ``run_scenario``."""
    arguments = scaled_run_arguments(
        build_scenario("fig2-hotspot"), "matrix", scale, seed,
        preview=preview,
    )
    return run_scenario(**arguments, **options).result


@pytest.fixture(scope="module")
def fig2_result():
    return fig2_run(SCALE, seed=1)


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
    scenario = build_scenario("fig2-hotspot").scaled(SCALE)
    background, hotspot = scenario.phases[:2]
    peak_expected = background.count + hotspot.count
    assert series.max() >= 0.9 * peak_expected
    # Between the waves (t ~ 160) the hotspot population is gone.
    assert series.at(165.0) <= background.count * 1.5


def test_determinism_same_seed():
    def run():
        result = fig2_run(0.05, seed=9, preview=60.0)
        return (
            result.splits_completed,
            result.spawn_times(),
            result.events_processed,
        )

    assert run() == run()


def test_different_seed_differs():
    def run(seed):
        return fig2_run(0.05, seed=seed, preview=60.0).events_processed

    assert run(1) != run(2)


def test_pool_exhaustion_degrades_gracefully():
    """With a tiny pool Matrix behaves like (slightly better) static:
    some splits fail, but the run completes and queues stay finite."""
    result = fig2_run(0.1, seed=1, preview=100.0, pool_capacity=1)
    assert result.splits_completed <= 1
    assert result.failed_splits > 0
