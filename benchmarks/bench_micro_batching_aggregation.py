"""Microbenchmark — spatial-forward batching middleware (M-batch).

Runs the same boundary-heavy scenario twice on a two-server grid —
once with the stock pipeline and once with
``run_scenario(..., batch_spatial_forwards=True)`` — and compares the
wire traffic.  Batching aggregates same-destination ``matrix.forward``
packets within one flush window into a single ``net.batch`` message, so
game-visible deliveries stay identical while inter-Matrix-server
message count drops.
"""

from __future__ import annotations

from common import record, record_json

from repro.games.profile import profile_by_name
from repro.harness.compare import scaled_profile
from repro.harness.runner import run_scenario
from repro.net.middleware import BATCH_KIND
from repro.workload.scenarios import HotspotWave, MapPoint, Scenario

BORDER_MILL = Scenario(
    name="border-mill",
    description=(
        "60 players milling around the shared border of a 2x1 grid: the "
        "overlap regions stay hot, which is where forwards (and "
        "batches) happen."
    ),
    phases=(
        HotspotWave(
            count=60,
            center=MapPoint(0.5, 0.5),
            at=0.5,
            group="border",
            spread_fraction=2.0,
        ),
    ),
    duration=30.0,
    grid=(2, 1),
)


#: The bench's own scale and seed, independent of the suite's knobs.
BATCH_SCALE = 0.25
BATCH_SEED = 7


def _run(batch_spatial_forwards: bool):
    outcome = run_scenario(
        BORDER_MILL,
        profile=scaled_profile(profile_by_name("bzflag"), BATCH_SCALE),
        batch_spatial_forwards=batch_spatial_forwards,
        seed=BATCH_SEED,
    )
    result, experiment = outcome.result, outcome.experiment
    stats = experiment.network.stats
    delivered = sum(
        ms.delivered_packets
        for ms in experiment.deployment.matrix_servers.values()
    )
    return {
        "wire_messages": stats.total.messages,
        "wire_bytes": stats.total.bytes,
        "forward_messages": stats.by_kind["matrix.forward"].messages,
        "batch_messages": stats.by_kind[BATCH_KIND].messages,
        "delivered_packets": delivered,
        "events": result.events_processed,
    }


def test_batching_reduces_forward_messages():
    plain = _run(False)
    batched = _run(True)

    forwards_saved = plain["forward_messages"] - (
        batched["forward_messages"] + batched["batch_messages"]
    )
    reduction = forwards_saved / max(plain["forward_messages"], 1)
    lines = [
        "M-batch: same-destination forward aggregation (window = 50 ms)",
        "",
        f"  {'':28s}{'plain':>12s}{'batched':>12s}",
        f"  {'matrix.forward messages':28s}{plain['forward_messages']:12d}"
        f"{batched['forward_messages']:12d}",
        f"  {'net.batch messages':28s}{plain['batch_messages']:12d}"
        f"{batched['batch_messages']:12d}",
        f"  {'total wire messages':28s}{plain['wire_messages']:12d}"
        f"{batched['wire_messages']:12d}",
        f"  {'delivered to game servers':28s}{plain['delivered_packets']:12d}"
        f"{batched['delivered_packets']:12d}",
        "",
        f"  forward-path messages saved: {forwards_saved}"
        f" ({reduction:.1%} of plain forwards)",
    ]
    record("micro_batching_aggregation", "\n".join(lines))
    record_json(
        "micro_batching_aggregation",
        {"plain": plain, "batched": batched, "reduction": reduction},
        scale=BATCH_SCALE,
        seed=BATCH_SEED,
    )

    # The batched run must move strictly fewer forward-path messages
    # while the packets reaching game servers stay comparable (the runs
    # diverge in event interleaving, so exact equality is asserted by
    # the unit test, not here).
    assert batched["batch_messages"] > 0
    assert (
        batched["forward_messages"] + batched["batch_messages"]
        < plain["forward_messages"]
    )
