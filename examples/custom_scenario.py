#!/usr/bin/env python
"""Define a custom scenario through the registry and run it everywhere.

A scenario is *data*: named phases of arrivals, hotspots, migrations,
departures and churn.  Register one factory and the whole platform —
the unified runner, the CLI (``python -m repro run siege-and-rout``),
the sweep benchmark — can execute it against Matrix *and* the static
baseline without further wiring.

Run:  PYTHONPATH=src python examples/custom_scenario.py
"""

from repro.harness.compare import scaled_run_arguments
from repro.harness.runner import run_scenario
from repro.workload.mobility import MobilitySpec
from repro.workload.scenarios import (
    ArrivalWave,
    Churn,
    Departure,
    HotspotWave,
    MapPoint,
    Migration,
    Scenario,
    build_scenario,
    scenario,
    scenario_names,
)


@scenario("siege-and-rout")
def siege_and_rout() -> Scenario:
    """A castle siege: flocks converge, besiege, then rout and flee."""
    return Scenario(
        name="siege-and-rout",
        description=(
            "Two attacking flocks converge on the keep while defenders "
            "loiter there; churn models reinforcements; at t=90 the "
            "attack breaks and the besiegers rout to the map edge, "
            "then drain away."
        ),
        game="bzflag",
        duration=160.0,
        phases=(
            # Defenders loiter at the keep from the start.
            HotspotWave(
                count=150,
                center=MapPoint(0.5, 0.5),
                at=0.0,
                group="defenders",
            ),
            # Two flocks of attackers march in from opposite corners.
            ArrivalWave(
                count=120,
                at=10.0,
                group="attackers-north",
                mobility=MobilitySpec("flock", {"spacing": 10.0}),
                center=MapPoint(0.15, 0.85),
                spread_fraction=0.5,
            ),
            ArrivalWave(
                count=120,
                at=10.0,
                group="attackers-south",
                mobility=MobilitySpec("flock", {"spacing": 10.0}),
                center=MapPoint(0.85, 0.15),
                spread_fraction=0.5,
            ),
            # Both flocks converge on the keep.
            Migration(group="attackers-north", center=MapPoint(0.5, 0.5),
                      at=15.0),
            Migration(group="attackers-south", center=MapPoint(0.5, 0.5),
                      at=15.0),
            # Reinforcements trickle in while the siege holds.
            Churn(rate=2.0, start=20.0, stop=90.0, session=30.0),
            # The rout: attackers flee to the west edge...
            Migration(group="attackers-north", center=MapPoint(0.05, 0.5),
                      at=90.0),
            Migration(group="attackers-south", center=MapPoint(0.05, 0.5),
                      at=90.0),
            # ...and log off in waves.
            Departure(group="attackers-north", batch=40, start=110.0,
                      interval=8.0),
            Departure(group="attackers-south", batch=40, start=110.0,
                      interval=8.0),
        ),
    )


def main() -> None:
    print("registered scenarios now include:", ", ".join(scenario_names()))
    print()

    scale = 0.2  # run at a fifth of the population for a fast demo
    siege = build_scenario("siege-and-rout")

    for backend in ("matrix", "static"):
        # Population, policy thresholds and capacities scale together.
        result = run_scenario(
            **scaled_run_arguments(siege, backend, scale, seed=7)
        ).result
        print(f"[{backend}]")
        if backend == "matrix":
            print(f"  servers: peak {result.servers_used}, "
                  f"splits {result.splits_completed}, "
                  f"reclaims {result.reclaims_completed}")
        else:
            print(f"  servers: {result.servers_used}"
                  f" (fixed), dropped {result.dropped_packets} packets")
        print(f"  peak queue: {result.max_queue():.0f}")
        print()
    print("the siege forces Matrix to split around the keep; the static")
    print("grid takes the same workload on two fixed servers.")


if __name__ == "__main__":
    main()
