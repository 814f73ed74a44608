"""Shard-scaling bench: the space-partitioned kernel at 1/2/4 shards.

Runs fig2-hotspot end to end on the sharded engine at increasing shard
counts and records, per shard count, the event and message totals,
split/reclaim counts, the SHA-256 of the canonical ``TrafficStats``
digest, cross-border traffic and window counts — plus the headline
determinism verdict: every deterministic quantity must be *identical at
every shard count*.  This is the engine's hard acceptance bar and is
asserted, not just recorded.  Lanes run one after the other, so they
buy no speed (see "Verdict" in docs/ARCHITECTURE.md); the bench records
no wall clock.
"""

from __future__ import annotations

import hashlib

from common import SCALE, SEED, record, record_json

from repro.harness.compare import scaled_run_arguments
from repro.harness.runner import run_scenario
from repro.workload.scenarios import build_scenario

SHARD_COUNTS = (1, 2, 4)
SCENARIO = "fig2-hotspot"
#: The suite's usual fraction: keeps the three full-duration runs
#: seconds-scale.
SHARD_SCALE = SCALE * 0.6


def shard_run(shards: int) -> dict:
    """One full sharded run's deterministic row."""
    arguments = scaled_run_arguments(
        build_scenario(SCENARIO), "matrix", SHARD_SCALE, SEED, shards=shards
    )
    outcome = run_scenario(**arguments)
    result = outcome.result
    network = outcome.experiment.network
    return {
        "events": result.events_processed,
        "messages": result.traffic.total.messages,
        "bytes": result.traffic.total.bytes,
        "splits": result.splits_completed,
        "reclaims": result.reclaims_completed,
        "traffic_sha256": hashlib.sha256(
            result.traffic.canonical_digest().encode()
        ).hexdigest(),
        "cross_border": network.cross_border_count,
        "windows": outcome.experiment.sim.windows_run,
    }


#: Keys that must be identical at every shard count.  ``cross_border``
#: is excluded by construction (it counts boundary crossings, which
#: exist only when there *are* boundaries); ``windows`` is shard-count
#: invariant too because the barrier grid depends only on event times.
INVARIANT_KEYS = (
    "events",
    "messages",
    "bytes",
    "splits",
    "reclaims",
    "traffic_sha256",
    "windows",
)


def test_shard_scaling():
    rows = {str(shards): shard_run(shards) for shards in SHARD_COUNTS}

    reference = rows[str(SHARD_COUNTS[0])]
    identical = all(
        rows[key][name] == reference[name]
        for key in rows
        for name in INVARIANT_KEYS
    )

    lines = [
        f"shard scaling ({SCENARIO}, scale={SHARD_SCALE:g}, seed={SEED}):",
        f"{'shards':>10} {'events':>10} {'messages':>10} {'cross':>8}",
    ]
    for key, row in rows.items():
        lines.append(
            f"{key:>10} {row['events']:>10} {row['messages']:>10} "
            f"{row['cross_border']:>8}"
        )
    lines.append(
        "deterministic outputs identical across shard counts: "
        f"{identical}"
    )
    record("shard_scaling", "\n".join(lines))

    record_json(
        "shard_scaling",
        {
            "scenario": SCENARIO,
            "shard_scale": SHARD_SCALE,
            "shard_counts": list(SHARD_COUNTS),
            "per_shards": rows,
            "identical_across_shard_counts": identical,
        },
        scale=SHARD_SCALE,
        seed=SEED,
    )

    # The hard acceptance bar: bit-identical results at any shard count.
    assert identical, "sharded runs diverged across shard counts"
    for row in rows.values():
        assert row["events"] > 0
    assert rows["4"]["cross_border"] > 0, "4-shard run saw no border traffic"
