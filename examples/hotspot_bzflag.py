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
from repro.harness.compare import scaled_run_arguments
from repro.harness.gridcells import GRID_FLOORS
from repro.harness.runner import run_scenario
from repro.workload.scenarios import build_scenario


def main() -> None:
    full_scale = os.environ.get("FULL_SCALE") == "1"
    scale = 1.0 if full_scale else 0.2

    # Population, policy thresholds and server capacity scale together.
    fig2 = build_scenario("fig2-hotspot")
    arguments = scaled_run_arguments(fig2, "matrix", scale, 1, **GRID_FLOORS)
    _, hotspot1, departures, hotspot2, _ = fig2.scaled(scale).phases

    print(f"Running the Fig 2 hotspot at scale={scale} "
          f"({hotspot1.count}-client hotspot, "
          f"overload threshold {arguments['policy'].overload_clients})...")
    result = run_scenario(**arguments).result

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
    print(f"  t={hotspot1.at:.0f}s hotspot 1 "
          f"({hotspot1.count} clients) appears")
    for t in result.spawn_times():
        print(f"  t={t:.1f}s  SPLIT — new server deployed")
    print(f"  t={departures.start:.0f}s departures begin "
          f"({departures.batch}/batch)")
    for t in result.reclaim_times():
        print(f"  t={t:.1f}s  RECLAMATION — server returned to the pool")
    print(f"  t={hotspot2.at:.0f}s hotspot 2 appears elsewhere")

    print(f"\nsummary: {result.splits_completed} splits, "
          f"{result.reclaims_completed} reclaims, "
          f"peak {result.servers_used} servers, "
          f"peak queue {result.max_queue():.0f}, "
          f"final server count {result.final_server_count():.0f}")


if __name__ == "__main__":
    main()
