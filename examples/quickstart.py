#!/usr/bin/env python
"""Quickstart: deploy a game on Matrix and watch it absorb a hotspot.

Declares the smallest end-to-end workload — a quiet background
population and one hotspot — runs it on a Matrix deployment (one
coordinator, one Matrix+game server pair to start with, a client
fleet), and prints what the middleware did about it.

Run:  python examples/quickstart.py
"""

from repro.core.config import LoadPolicyConfig
from repro.harness.runner import run_scenario
from repro.workload.scenarios import (
    ArrivalWave,
    Departure,
    HotspotWave,
    MapPoint,
    Scenario,
)

PARTY = Scenario(
    name="quickstart-party",
    description="A quiet background population and one party hotspot.",
    phases=(
        # A quiet background population...
        ArrivalWave(count=15),
        # ...and a hotspot: 90 players pile onto one spot at t=10 s
        # (x=500, y=400 of the 800x800 arena, sigma 50 = 50/60 of the
        # visibility radius).
        HotspotWave(
            count=90,
            center=MapPoint(0.625, 0.5),
            at=10.0,
            group="party",
            spread_fraction=50 / 60,
        ),
        # The party ends at t=60 s: everyone leaves in batches of 30.
        Departure(group="party", batch=30, start=60.0, interval=10.0),
    ),
    duration=150.0,
)


def main() -> None:
    # Scale the paper's 300/150-client thresholds down so the demo runs
    # in a couple of seconds; dynamics are identical.
    policy = LoadPolicyConfig(overload_clients=40, underload_clients=20)

    def show_bootstrap(experiment) -> None:
        print("Bootstrapped:", experiment.deployment.live_server_names(),
              "owning", experiment.config.world)

    result = run_scenario(
        PARTY, policy=policy, seed=42, observe=show_bootstrap
    ).result

    print(f"\nsplits: {result.splits_completed}   "
          f"reclaims: {result.reclaims_completed}   "
          f"peak servers: {result.servers_used}")
    print("server lifecycle:")
    for event in result.server_events:
        print(f"  t={event.time:6.1f}s  {event.kind:<13} "
              f"{event.matrix_server} / {event.game_server}")

    print("\nclients per server over time (sampled every 20 s):")
    header = "  t(s)  " + "".join(
        f"{name:>8}" for name in sorted(result.clients_per_server)
    )
    print(header)
    for t in range(0, 150, 20):
        row = f"  {t:4d}  "
        for name in sorted(result.clients_per_server):
            series = result.clients_per_server[name]
            if len(series) == 0 or t < series.times[0] or t > series.times[-1]:
                value = "-"  # server not alive at this time
            else:
                value = f"{series.at(t):.0f}"
            row += f"{value:>8}"
        print(row)

    if result.switch_latencies:
        mean = sum(result.switch_latencies) / len(result.switch_latencies)
        print(f"\nclient handoffs: {len(result.switch_latencies)} "
              f"(mean latency {mean * 1000:.0f} ms) — all invisible to "
              f"the game code, which never learned Matrix exists.")


if __name__ == "__main__":
    main()
