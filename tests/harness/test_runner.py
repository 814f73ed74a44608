"""Tests for the unified scenario runner and its backends."""

import pytest

from repro.core.config import LoadPolicyConfig
from repro.games.profile import bzflag_profile
from repro.harness.compare import scaled_profile
from repro.harness.experiment import MatrixExperiment
from repro.harness.runner import backend_names, run_scenario
from repro.workload.scenarios import ArrivalWave, Scenario, build_scenario

SCALE = 0.05
#: The Fig 2 timeline cut short: the first hotspot and its splits.
PREVIEW = 40.0


def test_backends_registered():
    assert {"matrix", "static"} <= set(backend_names())


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="quantum"):
        run_scenario(
            build_scenario("flash-crowd"),
            backend="quantum",
            profile=bzflag_profile(),
        )


def test_runner_matches_direct_path_bit_for_bit():
    """The runner adds nothing to the event timeline: running Fig 2
    through it equals building the experiment, installing the scenario
    on its fleet and running it by hand."""
    scenario = build_scenario("fig2-hotspot")
    profile = scaled_profile(bzflag_profile(), SCALE)
    policy = LoadPolicyConfig().scaled(SCALE)

    direct = MatrixExperiment(profile, policy=policy, seed=4)
    scenario.scaled(SCALE).install(direct.fleet, profile)
    direct_result = direct.run(until=PREVIEW)

    via_runner = run_scenario(
        scenario, profile=profile, scale=SCALE, preview=PREVIEW,
        policy=policy, seed=4,
    ).result

    assert via_runner.events_processed == direct_result.events_processed
    assert (
        via_runner.traffic.total.messages
        == direct_result.traffic.total.messages
    )
    assert via_runner.traffic.total.bytes == direct_result.traffic.total.bytes
    assert via_runner.spawn_times() == direct_result.spawn_times()
    assert via_runner.action_latencies == direct_result.action_latencies


def test_static_backend_runs_scenarios():
    profile = scaled_profile(bzflag_profile(), SCALE)
    outcome = run_scenario(
        "fig2-hotspot",
        backend="static",
        profile=profile,
        scale=SCALE,
        preview=PREVIEW,
        seed=4,
        queue_capacity=500,
    )
    assert outcome.backend == "static"
    result = outcome.result
    assert outcome.experiment.profile is profile
    assert result.max_queue() > 0
    assert len(outcome.experiment.deployment.game_servers) == 2


def test_static_backend_seed_determinism():
    profile = scaled_profile(bzflag_profile(), SCALE)

    def digest():
        outcome = run_scenario(
            "fig2-hotspot",
            backend="static",
            profile=profile,
            scale=SCALE,
            preview=PREVIEW,
            seed=9,
        )
        result = outcome.result
        return (
            outcome.experiment.sim.events_processed,
            outcome.experiment.network.stats.total.messages,
            result.dropped_packets,
            len(result.action_latencies),
        )

    assert digest() == digest()


def test_runner_resolves_scenario_by_name():
    outcome = run_scenario(
        "uniform-roam",
        profile=bzflag_profile(),
        seed=0,
        scale=0.1,
        preview=20.0,
    )
    assert outcome.scenario.name == "uniform-roam"
    assert outcome.result.duration == 20.0
    # grid=(2, 1): the fixed two-server bootstrap, no splits needed.
    assert outcome.result.servers_used >= 2


def test_runner_grid_scenarios_switch_servers():
    scenario = Scenario(
        name="tmp-switchy",
        description="border crossings on a 2-partition world",
        phases=(ArrivalWave(count=30),),
        duration=30.0,
        grid=(2, 1),
    )
    outcome = run_scenario(scenario, profile=bzflag_profile(), seed=0)
    assert outcome.result.switch_latencies, "no one crossed the border"
