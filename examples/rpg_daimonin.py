#!/usr/bin/env python
"""Daimonin RPG scenario: a town meeting, plus non-proximal interactions.

Demonstrates two things on the MMORPG workload profile:

1. The §4.1 motivating scenario — "particular areas in the game become
   popular suddenly, like the town hall during a town meeting" — and
   Matrix provisioning servers for the town without touching the rest
   of the big world.
2. The *non-proximal interaction* path (§3.2.4): Daimonin players
   occasionally shout across the map; those packets carry a remote
   destination tag, and the game server can also resolve consistency
   sets for arbitrary points through the Matrix Coordinator.

Run:  python examples/rpg_daimonin.py
"""

from repro.core.config import LoadPolicyConfig
from repro.games.profile import daimonin_profile
from repro.harness.runner import run_scenario
from repro.workload.scenarios import (
    ArrivalWave,
    Departure,
    HotspotWave,
    MapPoint,
    Scenario,
)

TOWN_HALL = MapPoint(0.625, 0.5)

TOWN_MEETING = Scenario(
    name="town-meeting",
    description="A wandering population; 100 players meet at the town hall.",
    game="daimonin",
    phases=(
        # The world's normal population, wandering the 1600x1600 map.
        ArrivalWave(count=30),
        # The town meeting: 100 players converge on the town hall.
        HotspotWave(
            count=100,
            center=TOWN_HALL,
            at=20.0,
            group="meeting",
            spread_fraction=1.0,
        ),
        # Meeting adjourns.
        Departure(group="meeting", batch=34, start=140.0, interval=15.0),
    ),
    duration=240.0,
)


def main() -> None:
    profile = daimonin_profile()
    policy = LoadPolicyConfig(overload_clients=50, underload_clients=25)
    town_hall = TOWN_HALL.resolve(profile.world)

    # Demonstrate the non-proximal query API: once the world has split,
    # ask the MC which game servers must hear about an event at the
    # town hall (e.g. a server-wide quest announcement anchored there).
    answers = []

    def ask_coordinator_at_100s(experiment) -> None:
        def ask() -> None:
            servers = sorted(experiment.deployment.game_servers)
            first = experiment.deployment.game_servers[servers[0]]
            first.port.query_consistency(
                town_hall,
                lambda result: answers.append((experiment.sim.now, result)),
            )

        experiment.sim.at(100.0, ask)

    outcome = run_scenario(
        TOWN_MEETING, profile=profile, policy=policy, seed=7,
        observe=ask_coordinator_at_100s,
    )
    result, experiment = outcome.result, outcome.experiment

    print(f"town meeting on {profile.name}: "
          f"{result.splits_completed} splits, "
          f"{result.reclaims_completed} reclaims, "
          f"peak {result.servers_used} servers")
    print("\nserver lifecycle:")
    for event in result.server_events:
        print(f"  t={event.time:6.1f}s  {event.kind:<13} {event.game_server}")

    for when, servers in answers:
        print(f"\nnon-proximal query at t={when:.1f}s: an event at the "
              f"town hall {town_hall.as_tuple()} must be propagated to: "
              f"{sorted(servers) or '(no other servers)'}")

    shouts = sum(
        gs.remote_actions_seen
        for gs in experiment.deployment.game_servers.values()
    )
    print(f"\ncross-server events delivered (shouts + border actions): "
          f"{shouts}")
    print(f"final server count: {result.final_server_count():.0f} — the "
          f"rest of the world never noticed the meeting.")


if __name__ == "__main__":
    main()
