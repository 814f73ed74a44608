"""Built-in scenario catalog.

Every entry is a full-paper-scale population; run scaled-down copies
via ``Scenario.scaled`` (the CLI's ``--scale`` and the test suite do).
The paper's own evaluation timeline is ``fig2-hotspot``; the rest open
workloads the paper never ran.
"""

from __future__ import annotations

from repro.workload.mobility import MobilitySpec
from repro.workload.scenarios.registry import scenario
from repro.workload.scenarios.spec import (
    ArrivalWave,
    Churn,
    CoordinatorCrash,
    Departure,
    HotspotWave,
    LinkDegrade,
    MapPoint,
    Migration,
    Recovery,
    Scenario,
    ServerCrash,
)


@scenario("fig2-hotspot")
def fig2_hotspot() -> Scenario:
    """The paper's Figure 2 run on BzFlag (§4.1), reproduced 1:1.

    A base population plays normally; at t=10 a hotspot of 600 clients
    (far beyond one server's 300-client capacity) appears; from t=85,
    200 clients leave at fixed intervals; at t=170 the hotspot reappears
    at a *different* map position and drains the same way.  Figure 2a
    is ``result.clients_per_server``, Figure 2b
    ``result.queue_per_server``.
    """
    return Scenario(
        name="fig2-hotspot",
        description=(
            "The paper's §4.1 run: a 600-client hotspot at t=10, "
            "batched departures from t=85, a second hotspot elsewhere "
            "at t=170, departures again."
        ),
        game="bzflag",
        duration=280.0,
        phases=(
            ArrivalWave(count=60, at=0.0),
            # Centred on the x=0.625 line of the world: after split-to-left
            # halvings the hotspot straddles the [0.5, 0.625, 0.75] cuts, which
            # reproduces the paper's narrative (server 3 inherits the bulk,
            # splits once more, load settles under the threshold).
            HotspotWave(
                count=600,
                center=MapPoint(0.625, 0.50),
                at=10.0,
                group="hotspot-1",
            ),
            Departure(
                group="hotspot-1", batch=200, start=85.0, interval=25.0
            ),
            # A different part of the world (paper: "located at a different
            # part of the map"), again on a split line so the cascade settles.
            HotspotWave(
                count=600,
                center=MapPoint(0.125, 0.50),
                at=170.0,
                group="hotspot-2",
            ),
            Departure(
                group="hotspot-2", batch=200, start=220.0, interval=25.0
            ),
        ),
    )


@scenario("flash-crowd")
def flash_crowd() -> Scenario:
    """One overwhelming hotspot that never drains — pure split stress."""
    return Scenario(
        name="flash-crowd",
        description=(
            "600 clients pile onto one point at t=10 and stay; the "
            "split cascade must absorb the entire crowd."
        ),
        duration=120.0,
        phases=(
            ArrivalWave(count=60),
            HotspotWave(
                count=600,
                center=MapPoint(0.625, 0.5),
                at=10.0,
                group="crowd",
            ),
        ),
    )


@scenario("migrating-hotspot")
def migrating_hotspot() -> Scenario:
    """A hotspot that walks across the map — splits must chase it."""
    return Scenario(
        name="migrating-hotspot",
        description=(
            "A 400-client hotspot forms, then retargets twice to "
            "different map regions before draining; exercises the "
            "public retarget protocol and reclaim-behind-the-wave."
        ),
        duration=200.0,
        phases=(
            ArrivalWave(count=60),
            HotspotWave(
                count=400,
                center=MapPoint(0.625, 0.5),
                at=10.0,
                group="mob",
            ),
            Migration(group="mob", center=MapPoint(0.125, 0.5), at=70.0),
            Migration(group="mob", center=MapPoint(0.625, 0.875), at=120.0),
            Departure(group="mob", batch=100, start=160.0, interval=10.0),
        ),
    )


@scenario("commuter-rush")
def commuter_rush() -> Scenario:
    """Morning and evening commuter waves looping fixed circuits."""
    return Scenario(
        name="commuter-rush",
        description=(
            "Two waves of commuters, each looping a personal circuit "
            "of waystations — structured, recurring cross-partition "
            "streams instead of uniform diffusion."
        ),
        duration=150.0,
        phases=(
            ArrivalWave(
                count=240,
                at=0.0,
                group="early-shift",
                mobility=MobilitySpec("commuter", {"stops": 3}),
            ),
            ArrivalWave(
                count=240,
                at=50.0,
                group="late-shift",
                mobility=MobilitySpec("commuter", {"stops": 4}),
                over=10.0,
            ),
            Departure(
                group="early-shift", batch=120, start=110.0, interval=15.0
            ),
        ),
    )


@scenario("flock-sweep")
def flock_sweep() -> Scenario:
    """Four flocks roaming the world as coherent moving hotspots."""
    return Scenario(
        name="flock-sweep",
        description=(
            "Four 90-player flocks (raids, convoys) each following a "
            "shared roaming anchor — moving concentrations that cross "
            "partition borders as one."
        ),
        duration=120.0,
        phases=tuple(
            ArrivalWave(
                count=90,
                at=5.0 * index,
                group=f"flock-{index + 1}",
                mobility=MobilitySpec("flock", {"spacing": 15.0}),
                center=MapPoint(0.2 + 0.2 * index, 0.25 + 0.15 * index),
                spread_fraction=0.5,
            )
            for index in range(4)
        ),
    )


@scenario("portal-storm")
def portal_storm() -> Scenario:
    """Teleporters defeating locality — a server-switch stress test."""
    return Scenario(
        name="portal-storm",
        description=(
            "300 portal-hopping players teleport across the map on "
            "arrival at waypoints; every hop is a cold handoff to a "
            "server that never saw the client coming."
        ),
        duration=120.0,
        phases=(
            ArrivalWave(count=60),
            ArrivalWave(
                count=300,
                at=10.0,
                group="hoppers",
                mobility=MobilitySpec("teleport", {"portal_chance": 0.35}),
                over=5.0,
            ),
        ),
    )


@scenario("pursuit-melee")
def pursuit_melee() -> Scenario:
    """Pursuers shadowing roaming quarries — correlated mobile pairs."""
    return Scenario(
        name="pursuit-melee",
        description=(
            "300 hunters each chase an independent roaming quarry; "
            "the population self-organises into drifting clusters "
            "that stress split placement."
        ),
        duration=120.0,
        phases=(
            ArrivalWave(count=60),
            ArrivalWave(
                count=300,
                at=10.0,
                group="hunters",
                mobility=MobilitySpec(
                    "pursuit", {"quarry_speed_fraction": 0.7}
                ),
                over=4.0,
            ),
        ),
    )


@scenario("steady-churn")
def steady_churn() -> Scenario:
    """Constant login/logout turnover around a stable core."""
    return Scenario(
        name="steady-churn",
        description=(
            "A 120-player core plus 8 arrivals/s of short-session "
            "players (mean 25 s) — the population is stable but its "
            "membership never is; joins/leaves dominate traffic."
        ),
        duration=150.0,
        phases=(
            ArrivalWave(count=120),
            Churn(rate=8.0, start=5.0, stop=130.0, session=25.0),
        ),
    )


@scenario("crash-during-split")
def crash_during_split() -> Scenario:
    """A server dies with a split in flight — the abort/rollback path.

    The hotspot drives a split cascade; at t=25 whichever server is
    mid-split is killed.  The supervisor must reclaim every lease the
    corpse held (its own host, the half-born child's host), respawn the
    partition, and the pool must balance once the dust settles.
    """
    return Scenario(
        name="crash-during-split",
        description=(
            "A 500-client hotspot forces splits; a server is crashed "
            "mid-split at t=25 and another (the busiest) at t=50 — "
            "recovery must re-cover the partition and leak no hosts."
        ),
        duration=120.0,
        phases=(
            ArrivalWave(count=60),
            HotspotWave(
                count=500,
                center=MapPoint(0.625, 0.5),
                at=10.0,
                group="crowd",
            ),
            ServerCrash(at=25.0, victim="splitting"),
            ServerCrash(at=50.0, victim="busiest"),
        ),
    )


@scenario("failover-storm")
def failover_storm() -> Scenario:
    """MC failover under load, with server crashes stacked on top."""
    return Scenario(
        name="failover-storm",
        description=(
            "A growing hotspot; the primary MC is crashed at t=30 (the "
            "standby must promote and converge the partition map), a "
            "Matrix server is crashed at t=55 post-failover, and the "
            "hotspot then migrates so repartitioning keeps working "
            "under the new coordinator."
        ),
        duration=150.0,
        phases=(
            ArrivalWave(count=80),
            HotspotWave(
                count=400,
                center=MapPoint(0.375, 0.5),
                at=8.0,
                group="storm",
            ),
            CoordinatorCrash(at=30.0),
            ServerCrash(at=55.0, victim="youngest"),
            Migration(group="storm", center=MapPoint(0.75, 0.75), at=80.0),
        ),
    )


@scenario("lossy-wan")
def lossy_wan() -> Scenario:
    """Consistency traffic over a lossy, duplicating long-haul link.

    The one chaos scenario every architecture backend can run: each
    backend's own consistency kinds (overlap forwards, mirror
    replication, p2p fan-out, DHT hops) are dropped/duplicated for a
    window, so ``compare`` grades resilience to link faults too.
    """
    return Scenario(
        name="lossy-wan",
        description=(
            "A steady crowd plus a hotspot while the servers' "
            "consistency links drop 8% and duplicate 2% of messages "
            "between t=20 and t=70, then recover."
        ),
        duration=120.0,
        phases=(
            ArrivalWave(count=120),
            HotspotWave(
                count=300,
                center=MapPoint(0.625, 0.5),
                at=10.0,
                group="crowd",
            ),
            LinkDegrade(at=20.0, duration=50.0, drop_rate=0.08,
                        duplicate_rate=0.02),
            Recovery(at=70.0),
        ),
    )


@scenario("uniform-roam")
def uniform_roam() -> Scenario:
    """Uniform random-waypoint roaming on a fixed 2-server grid.

    The microbenchmark substrate: border crossings exercise the full
    switch handoff, and overlap traffic between exactly two partitions
    isolates the bandwidth-vs-overlap relationship.
    """
    return Scenario(
        name="uniform-roam",
        description=(
            "150 random-waypoint players on a fixed 2x1 grid; every "
            "border crossing is a full Matrix switch handoff."
        ),
        duration=120.0,
        grid=(2, 1),
        phases=(ArrivalWave(count=150),),
    )
