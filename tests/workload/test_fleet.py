"""Tests for the client fleet workload generator."""

import pytest

from repro.games.profile import bzflag_profile
from repro.geometry import Vec2
from repro.harness.compare import scaled_run_arguments
from repro.harness.experiment import MatrixExperiment
from repro.harness.runner import run_scenario
from repro.workload.fleet import ClientFleet
from repro.workload.scenarios import HotspotWave, MapPoint, build_scenario

#: The 800x800 arena's centre; a spread_fraction of 1/6 is sigma 10.
CENTER = MapPoint(0.5, 0.5)


def make_experiment():
    return MatrixExperiment(bzflag_profile(), seed=3)


def install(experiment, phase):
    phase.install(experiment.fleet, experiment.profile)


def test_spawn_group_joins_clients():
    experiment = make_experiment()
    experiment.fleet.spawn_group(10, at=0.0)
    experiment.sim.run(until=5.0)
    assert len(experiment.fleet.active_clients()) == 10
    assert experiment.deployment.total_clients() == 10


def test_hotspot_wave_concentrates_positions():
    experiment = make_experiment()
    center = Vec2(400, 400)
    install(experiment, HotspotWave(30, CENTER, at=1.0, group="spot",
                                    spread_fraction=1 / 3))
    experiment.sim.run(until=8.0)
    clients = experiment.fleet.groups["spot"]
    assert len(clients) == 30
    near = sum(1 for c in clients if c.position.distance_to(center) < 100.0)
    assert near >= 27  # gaussian tails allowed


def test_hotspot_arrivals_spread_over_time():
    experiment = make_experiment()
    install(experiment, HotspotWave(20, CENTER, at=5.0, group="spot",
                                    over=4.0, spread_fraction=1 / 6))
    experiment.sim.run(until=5.5)
    early = len(experiment.fleet.groups.get("spot", []))
    experiment.sim.run(until=10.0)
    late = len(experiment.fleet.groups["spot"])
    assert 0 < early < late == 20


def test_depart_group_drains_in_batches():
    experiment = make_experiment()
    install(experiment, HotspotWave(30, CENTER, at=0.0, group="spot",
                                    spread_fraction=1 / 6))
    experiment.fleet.depart_group("spot", batch_size=10, start=20.0,
                                  interval=10.0)
    experiment.sim.run(until=15.0)
    assert len(experiment.fleet.active_clients()) == 30
    experiment.sim.run(until=25.0)
    assert len(experiment.fleet.active_clients()) == 20
    experiment.sim.run(until=55.0)
    assert len(experiment.fleet.active_clients()) == 0


def test_departures_leave_other_groups_alone():
    experiment = make_experiment()
    experiment.fleet.spawn_group(5, at=0.0)
    install(experiment, HotspotWave(10, CENTER, at=0.0, group="spot",
                                    spread_fraction=1 / 6))
    experiment.fleet.depart_group("spot", batch_size=10, start=10.0,
                                  interval=5.0)
    experiment.sim.run(until=30.0)
    active = experiment.fleet.active_clients()
    assert len(active) == 5


def test_depart_group_not_capped_at_64_batches():
    """A long drain needs >64 batches; the chained schedule runs them all
    (the old fixed-64 schedule silently truncated)."""
    experiment = make_experiment()
    experiment.fleet.spawn_group(70, at=0.0, group="crowd")
    experiment.fleet.depart_group("crowd", batch_size=1, start=5.0,
                                  interval=1.0)
    experiment.sim.run(until=80.0)
    assert len(experiment.fleet.active_clients()) == 0


def test_depart_group_stops_when_drained():
    """The chain ends with the group: no dead events linger afterwards."""
    experiment = make_experiment()
    experiment.fleet.spawn_group(4, at=0.0, group="tiny")
    experiment.fleet.depart_group("tiny", batch_size=2, start=2.0,
                                  interval=500.0)
    experiment.sim.run(until=3.0)
    assert len(experiment.fleet.active_clients()) == 2
    experiment.sim.run(until=503.0)
    assert len(experiment.fleet.active_clients()) == 0
    # Only periodic housekeeping remains; the old schedule would still
    # hold ~62 pending departure batches reaching out to t=32000.
    assert experiment.sim.pending_events < 50


def test_depart_group_drains_groups_still_arriving():
    """Batches fired while the wave is still arriving must not end the
    chain early: every member departs once it has joined."""
    experiment = make_experiment()
    experiment.fleet.spawn_group(20, at=0.0, group="g", over=10.0)
    experiment.fleet.depart_group("g", batch_size=5, start=4.0,
                                  interval=2.0)
    experiment.sim.run(until=40.0)
    assert len(experiment.fleet.groups["g"]) == 20
    assert len(experiment.fleet.active_clients()) == 0


def test_depart_group_waits_for_promised_members():
    """Even a batch that empties the group keeps the chain alive while
    scheduled arrivals are still outstanding: the drain knows how many
    clients the group was promised."""
    experiment = make_experiment()
    # A slow trickle: one arrival roughly every 10 s for 100 s.
    experiment.fleet.spawn_group(10, at=0.0, group="trickle", over=100.0)
    # The first batch (t=6) departs the lone arrived member and the
    # group is momentarily empty; the chain must keep polling.
    experiment.fleet.depart_group("trickle", batch_size=10, start=6.0,
                                  interval=5.0)
    experiment.sim.run(until=130.0)
    assert len(experiment.fleet.groups["trickle"]) == 10
    assert len(experiment.fleet.active_clients()) == 0


def test_move_group_hotspot_uses_public_retarget():
    experiment = make_experiment()
    install(experiment, HotspotWave(10, MapPoint(0.125, 0.125), at=0.0,
                                    group="spot", spread_fraction=1 / 6))
    experiment.fleet.move_group_hotspot("spot", Vec2(700, 700), at=5.0)
    experiment.sim.run(until=45.0)
    clients = experiment.fleet.groups["spot"]
    near = sum(
        1 for c in clients if c.position.distance_to(Vec2(700, 700)) < 150.0
    )
    assert near >= 8


def test_a_churn_session_that_ends_before_its_welcome_still_ends(monkeypatch):
    """A session drawn shorter than the join's round trip ends before
    the client is active; the welcome that follows must not start it
    playing.  Seed 4 has two such sessions in this first minute."""
    fired = []
    on_owner = ClientFleet._on_owner

    def recording(fleet, client, action):
        fired.append(client)
        on_owner(fleet, client, action)

    monkeypatch.setattr(ClientFleet, "_on_owner", recording)
    run_scenario("steady-churn", scale=0.25, preview=60.0, seed=4)
    assert len(fired) > 50
    assert any(client.updates_sent == 0 for client in fired)
    assert [client.name for client in fired if client.active] == []
    assert all(client.departed for client in fired)


def test_spawn_group_with_registered_mobility():
    from repro.workload.mobility import MobilitySpec

    experiment = make_experiment()
    experiment.fleet.spawn_group(
        8, at=0.0, group="patrol",
        mobility=MobilitySpec("commuter", {"stops": 3}),
    )
    experiment.sim.run(until=5.0)
    assert len(experiment.fleet.groups["patrol"]) == 8
    assert len(experiment.fleet.active_clients()) == 8


def test_latency_aggregation():
    experiment = make_experiment()
    experiment.fleet.spawn_group(8, at=0.0)
    experiment.sim.run(until=30.0)
    latencies = experiment.fleet.all_action_latencies()
    assert latencies, "clients fire actions and get acks"
    assert all(lat > 0 for lat in latencies)


def test_client_names_unique():
    experiment = make_experiment()
    experiment.fleet.spawn_group(12, at=0.0)
    experiment.sim.run(until=2.0)
    names = [c.name for c in experiment.fleet.clients]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("backend", ["matrix", "static", "p2p"])
def test_spawns_and_actions_are_readable_without_the_clients(backend):
    """The fleet counts its spawns, and the ``client.action`` traffic
    counts the actions sent, so neither needs the departed clients."""
    scenario = build_scenario("steady-churn")
    outcome = run_scenario(**scaled_run_arguments(scenario, backend, 0.05, 1))
    fleet = outcome.experiment.fleet
    actions = sum(client.actions_sent for client in fleet.clients)
    assert fleet.spawned == len(fleet.clients)
    assert any(client.departed for client in fleet.clients)
    assert actions > 0
    assert actions == outcome.result.traffic.kind_messages("client.action")
