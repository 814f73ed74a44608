"""Chaos layer: fault phases, driver arming, crash recovery, failover.

Covers the acceptance story end to end: crashes mid-run are detected
and re-registered with the current MC (primary or promoted standby),
the pool balances (no leaked hosts), clients rejoin, link degradation
opens and closes, and plain scenarios never arm any of it.
"""

import pytest

from tests.core.helpers import ScriptedGameServer

from repro.core.config import LoadPolicyConfig, MatrixConfig
from repro.core.deployment import MatrixDeployment
from repro.games.profile import profile_by_name
from repro.geometry import Rect
from repro.harness.compare import scaled_profile, scaled_run_arguments
from repro.harness.runner import run_scenario
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.workload.scenarios import (
    LinkDegrade,
    ServerCrash,
    build_scenario,
)

SCALE = 0.05
WORLD = Rect(0.0, 0.0, 1000.0, 1000.0)


def _run(name, seed=3, preview=60.0, backend="matrix", **kwargs):
    if backend == "matrix":
        kwargs.setdefault("policy", LoadPolicyConfig().scaled(SCALE))
    return run_scenario(
        name,
        backend=backend,
        profile=scaled_profile(profile_by_name("bzflag"), SCALE),
        scale=SCALE,
        preview=preview,
        seed=seed,
        **kwargs,
    )


# ----------------------------------------------------------------------
# Spec level
# ----------------------------------------------------------------------
def test_fault_phases_are_inert_workload_phases():
    scenario = build_scenario("crash-during-split")
    assert scenario.has_faults
    faults = scenario.fault_phases()
    assert [type(f).__name__ for f in faults] == [
        "ServerCrash",
        "ServerCrash",
    ]
    # Scaling never touches faults; plain scenarios declare none.
    assert scenario.scaled(0.1).fault_phases() == faults
    assert not build_scenario("flash-crowd").has_faults


def test_fault_phase_validation():
    with pytest.raises(ValueError):
        ServerCrash(at=1.0, victim="loudest")
    with pytest.raises(ValueError):
        LinkDegrade(at=1.0, drop_rate=1.5)
    with pytest.raises(ValueError):
        LinkDegrade(at=1.0, duration=0.0)


# ----------------------------------------------------------------------
# Driver arming through the runner
# ----------------------------------------------------------------------
def test_plain_scenarios_never_arm_chaos():
    outcome = _run("flash-crowd", preview=20.0)
    assert outcome.experiment.chaos is None
    deployment = outcome.experiment.deployment
    assert deployment._supervisor_task is None
    assert deployment.config.lifecycle_timeout is None
    assert all(event.kind != "crash" for event in deployment.events)


def test_chaos_false_disarms_a_chaos_scenario():
    outcome = _run("crash-during-split", preview=40.0, chaos=False)
    assert outcome.experiment.chaos is None
    deployment = outcome.experiment.deployment
    assert all(event.kind != "crash" for event in deployment.events)


def test_crash_recovery_restores_coverage_and_pool():
    outcome = _run("crash-during-split", preview=70.0)
    experiment = outcome.experiment
    experiment.sim.run(until=78.0)  # settle: grace drains, hosts reboot
    report = experiment.chaos.report()
    injected = [f for f in report.faults if f.status == "injected"]
    assert injected, "no crash was injected"
    assert report.recoveries, "no crash was detected"
    assert report.all_recovered()
    for took in report.recovery_times():
        assert 0.0 < took < 30.0
    assert report.leaked_hosts == []
    assert report.client_rejoins > 0
    deployment = experiment.deployment
    world = experiment.profile.world
    assert deployment.coordinator.coverage_area() == pytest.approx(
        world.area
    )


def test_coordinator_crash_promotes_standby_and_keeps_splitting():
    outcome = _run("failover-storm", preview=80.0)
    experiment = outcome.experiment
    experiment.sim.run(until=88.0)
    deployment = experiment.deployment
    standby = deployment.standby_coordinator
    assert standby is not None and standby.promoted
    report = experiment.chaos.report()
    assert report.mc_promoted_at is not None
    assert report.leaked_hosts == []
    # The promoted standby's map covers the world even though splits
    # and a server crash happened around the failover.
    world = experiment.profile.world
    assert standby.coverage_area() == pytest.approx(world.area)
    # Every live server follows the standby now.
    for server in deployment.matrix_servers.values():
        assert server.ctx.coordinator == standby.name


def test_retargeted_fault_stage_acts_on_kinds_it_passed_before():
    """Re-targeting an installed fault stage must affect a kind the
    stage has already let through under its old kind set."""
    from repro.net.middleware import FaultInjectionStage
    from repro.net.network import Network
    from repro.net.node import Node
    from repro.sim.kernel import Simulator
    import random

    class Probe(Node):
        pass

    sim = Simulator()
    network = Network(sim)
    src = network.add_node(Probe("src"))
    network.add_node(Probe("dst"))
    stage = FaultInjectionStage(rng=random.Random(0), kinds=("a",))
    src.use(stage)
    src.send("dst", "b", None, size_bytes=8)  # excluded: passes
    assert stage.dropped == 0
    stage.set_kinds(("b",))
    stage.set_rates(1.0, 0.0)
    for _ in range(5):
        src.send("dst", "b", None, size_bytes=8)
    assert stage.dropped == 5


def test_link_degrade_window_opens_and_closes():
    outcome = _run("lossy-wan", preview=80.0)
    driver = outcome.experiment.chaos
    report = driver.report()
    assert report.link_dropped > 0
    # Recovery at t=70 reset every stage.
    for stage in driver._stages.values():
        assert stage.drop_rate == 0.0
        assert stage.duplicate_rate == 0.0


def test_crash_faults_are_unsupported_on_baselines():
    outcome = _run("crash-during-split", preview=30.0, backend="static")
    report = outcome.experiment.chaos.report()
    statuses = {f.fault: f.status for f in report.faults}
    assert statuses["ServerCrash"] == "unsupported"


def test_faults_beyond_the_previewed_horizon_are_outside_the_run():
    """crash-during-split crashes servers at t=25 and t=50.  Previewed
    to 30 s the second crash is not part of the run: it is reported
    skipped, and a settle window that keeps the simulator going past
    t=50 (the fuzz and chaos audits do) injects nothing."""
    outcome = _run("crash-during-split", preview=30.0)
    experiment = outcome.experiment

    def faults():
        return [(f.at, f.status) for f in experiment.chaos.report().faults]

    assert faults() == [(25.0, "injected"), (50.0, "skipped")]
    assert "horizon t=30s" in experiment.chaos.report().faults[1].detail
    experiment.sim.run(until=60.0)
    assert faults() == [(25.0, "injected"), (50.0, "skipped")]
    assert len(experiment.deployment.crash_recoveries) == 1


def test_link_degrade_works_on_every_backend():
    for backend in ("static", "mirrored", "dht"):
        outcome = run_scenario(
            "lossy-wan",
            backend=backend,
            profile=scaled_profile(profile_by_name("bzflag"), SCALE),
            scale=SCALE,
            preview=40.0,
            seed=3,
        )
        report = outcome.experiment.chaos.report()
        degrade = [
            f for f in report.faults
            if f.fault == "LinkDegrade" and f.status == "injected"
        ]
        assert degrade, f"{backend}: degrade window never opened"
        assert report.link_dropped > 0, f"{backend}: nothing dropped"


def test_chaos_runs_are_seed_deterministic():
    def digest(seed):
        outcome = _run("failover-storm", seed=seed, preview=60.0)
        result = outcome.result
        return (
            result.events_processed,
            result.traffic.total.messages,
            outcome.experiment.network.undeliverable_count,
        )

    assert digest(11) == digest(11)
    assert digest(11) != digest(12)


def test_crash_path_accounting_is_pinned():
    """The run ``python -m repro run crash-during-split --scale 0.05
    --seed 1`` makes: the one path where halted and removed receive
    queues meet traffic in flight.  Its events, messages and the
    network's delivered / undeliverable split ("packets lost") are
    pinned at the values the lookup-at-arrival delivery produced, so an
    arrival path that refuses, redirects or counts differently fails
    here."""
    outcome = run_scenario(
        **scaled_run_arguments(
            build_scenario("crash-during-split"), "matrix", 0.05, 1
        )
    )
    network = outcome.experiment.network
    assert outcome.experiment.chaos is not None
    assert (
        outcome.result.events_processed,
        network.stats.total.messages,
        network.delivered_count,
        network.undeliverable_count,
    ) == (80_493, 38_427, 38_175, 243)


# ----------------------------------------------------------------------
# Standby promotion racing an in-flight split (deterministic, scripted)
# ----------------------------------------------------------------------
def test_standby_promotion_mid_split_converges_partition_map():
    sim = Simulator()
    network = Network(sim)
    config = MatrixConfig(
        world=WORLD,
        visibility_radius=50.0,
        policy=LoadPolicyConfig(
            overload_clients=100,
            underload_clients=50,
            consecutive_overload_reports=2,
            split_cooldown=1.0,
        ),
    )
    deployment = MatrixDeployment(
        sim,
        network,
        config,
        game_server_factory=ScriptedGameServer,
        replicated_mc=True,
    )
    ms, gs = deployment.bootstrap()
    # Overload reports start a split at t=1.5; the child boots at
    # t=4.0 and the split announcement lands shortly after — but the
    # primary MC dies at t=3.8, so the mc.split notice is lost.
    for i in range(3):
        sim.at(1.0 + 0.5 * i, lambda: gs.report(150))
    sim.at(3.8, deployment.fail_coordinator)
    sim.run(until=12.0)

    standby = deployment.standby_coordinator
    assert standby.promoted
    assert ms.ctx.stats.splits_completed == 1
    child_name = ms.ctx.children[0].matrix_name
    # The mc.failover cascade made parent and child re-register, so the
    # promoted map knows both and covers the world exactly.
    assert set(standby.partitions) == {ms.name, child_name}
    assert standby.coverage_area() == pytest.approx(WORLD.area)
    # Everyone follows the standby, including the child the dead
    # primary never heard of.
    assert ms.ctx.coordinator == standby.name
    assert (
        deployment.matrix_servers[child_name].ctx.coordinator == standby.name
    )
