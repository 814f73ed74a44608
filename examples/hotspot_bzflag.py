#!/usr/bin/env python
"""Figure 2, live: the BzFlag 600-client hotspot experiment.

Reproduces the paper's §4.1 experiment end to end and renders both
panels of Figure 2 as ASCII charts — clients per server (2a) and
receive-queue length per server (2b) — plus the split/reclamation
timeline the paper's caption describes.

Run:  python examples/hotspot_bzflag.py            (scaled, ~10 s)
      FULL_SCALE=1 python examples/hotspot_bzflag.py   (paper scale, ~1 min)
"""

import os

from repro.analysis.asciiplot import render_series
from repro.games.profile import bzflag_profile
from repro.harness.compare import scaled_profile
from repro.harness.experiment import MatrixExperiment
from repro.harness.fig2 import Fig2Schedule, install_fig2_workload
from repro.core.config import LoadPolicyConfig


def main() -> None:
    full_scale = os.environ.get("FULL_SCALE") == "1"
    scale = 1.0 if full_scale else 0.2

    profile = scaled_profile(bzflag_profile(), scale)
    schedule = Fig2Schedule().scaled(scale)
    policy = LoadPolicyConfig(
        overload_clients=max(6, int(300 * scale)),
        underload_clients=max(3, int(150 * scale)),
    )

    print(f"Running the Fig 2 hotspot at scale={scale} "
          f"({schedule.hotspot_clients}-client hotspot, "
          f"overload threshold {policy.overload_clients})...")
    experiment = MatrixExperiment(profile, policy=policy, seed=1)
    install_fig2_workload(experiment, schedule)
    result = experiment.run(until=schedule.duration)

    print()
    print(render_series(
        result.clients_per_server,
        title="Figure 2a — number of clients per game server",
        y_label="clients",
    ))
    print()
    print(render_series(
        result.queue_per_server,
        title="Figure 2b — receive queue length per game server",
        y_label="queued packets",
    ))

    print("\ntimeline (paper caption events):")
    print(f"  t={schedule.hotspot1_at:.0f}s hotspot 1 "
          f"({schedule.hotspot_clients} clients) appears")
    for t in result.spawn_times():
        print(f"  t={t:.1f}s  SPLIT — new server deployed")
    print(f"  t={schedule.departures_start:.0f}s departures begin "
          f"({schedule.departure_batch}/batch)")
    for t in result.reclaim_times():
        print(f"  t={t:.1f}s  RECLAMATION — server returned to the pool")
    print(f"  t={schedule.hotspot2_at:.0f}s hotspot 2 appears elsewhere")

    print(f"\nsummary: {result.splits_completed} splits, "
          f"{result.reclaims_completed} reclaims, "
          f"peak {result.servers_used} servers, "
          f"peak queue {result.max_queue():.0f}, "
          f"final server count {result.final_server_count():.0f}")


if __name__ == "__main__":
    main()
