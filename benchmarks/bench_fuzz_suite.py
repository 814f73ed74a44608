"""Fuzz suite — generated scenarios vs the lifecycle invariants.

Two sections:

1. **Invariant campaign** — a fixed set of generator seeds (ten
   workload-only, two fault-injecting) runs through
   :func:`repro.harness.fuzz.fuzz_cell` on the matrix backend.  Every
   cell must come back with **zero invariant violations**: full world
   coverage, no leaked pool hosts, conserved client population, no
   stuck lifecycle watchdogs, and (for the faulty profile) finite
   recovery from every injected crash.  A failing cell aborts the grid
   with its generator seed in the cell key (``fuzz/default/seed=7``),
   so the CI log line is the reproduction command.
2. **Trace round-trip** — the fig2-hotspot scenario is recorded twice
   to versioned trace files; the runs must byte-diff clean
   (``diff_traces(...).clean``) and the recording must be complete
   (``RecordedRun.complete``: its per-pair counts equal the run's own
   ``TrafficStats`` for every pair with a client end).

The campaign fans out over ``repro.harness.parallel.run_grid``
(``REPRO_BENCH_JOBS`` workers; serial by default).  All recorded fields
are simulation-time quantities, so ``BENCH_fuzz_suite.json`` is
byte-identical whatever the job count.  Schema in docs/BENCHMARKS.md.
"""

import tempfile
from pathlib import Path

from common import JOBS, SEED, record, record_json

from repro.core.config import LoadPolicyConfig
from repro.harness.fuzz import fuzz_grid_tasks
from repro.harness.gridcells import GRID_FLOORS
from repro.harness.parallel import run_grid
from repro.trace.diff import diff_traces
from repro.trace.recorder import record_scenario
from repro.workload.scenarios import build_scenario

#: Fixed campaign seeds: deterministic scenarios, byte-diffable output.
DEFAULT_SEEDS = tuple(range(10))
FAULTY_SEEDS = (0, 1)
#: Fuzzed populations stay small: twelve full runs per bench pass.
FUZZ_SCALE = 0.1
PREVIEW = 40.0
SETTLE = 8.0
#: Fault seeds get a longer settle so reboots and failover drain.
FAULT_SETTLE = 12.0

#: The recorded scenario of the round-trip section.
TRACE_SCENARIO = "fig2-hotspot"
TRACE_SCALE = 0.05
TRACE_PREVIEW = 25.0


def run_fuzz_campaign(jobs=JOBS):
    """The invariant campaign grid: one row per canonical cell key."""
    tasks = fuzz_grid_tasks(
        DEFAULT_SEEDS, "default",
        scale=FUZZ_SCALE, preview=PREVIEW, settle=SETTLE,
    )
    tasks += fuzz_grid_tasks(
        FAULTY_SEEDS, "faulty",
        scale=FUZZ_SCALE, preview=PREVIEW, settle=FAULT_SETTLE,
    )
    return {
        "/".join(str(part) for part in cell.key): cell.value
        for cell in run_grid(tasks, jobs=jobs)
    }


def run_trace_roundtrip():
    """Record twice and diff; returns the determinism metrics."""
    scenario = build_scenario(TRACE_SCENARIO)
    policy = LoadPolicyConfig().scaled(TRACE_SCALE, **GRID_FLOORS)
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for index in range(2):
            run = record_scenario(
                scenario,
                backend="matrix",
                scale=TRACE_SCALE,
                preview=TRACE_PREVIEW,
                seed=SEED,
                policy=policy,
            )
            paths.append(run.write(Path(tmp) / f"take{index}.trace"))
        diff = diff_traces(paths[0], paths[1])
        return {
            "scenario": TRACE_SCENARIO,
            "events": run.header.events,
            "trace_digest": run.header.digest,
            "rerecord_drift": diff.only_a + diff.only_b,
            "rerecord_clean": diff.clean,
            "complete": run.complete,
        }


def format_campaign_table(rows: dict) -> str:
    lines = [
        f"{'cell':<24} {'phases':>7} {'events':>9} {'servers':>8} "
        f"{'clients':>8} {'violations':>11}"
    ]
    for key, row in sorted(rows.items()):
        lines.append(
            f"{key:<24} {row['phases']:>7} {row['events']:>9} "
            f"{row['peak_servers']:>8} {row['clients_at_end']:>8} "
            f"{row['violations']:>11}"
        )
    return "\n".join(lines)


def test_fuzz_suite():
    rows = run_fuzz_campaign()
    roundtrip = run_trace_roundtrip()

    lines = [
        f"fuzz suite (scale={FUZZ_SCALE:g}): "
        f"{len(rows)} generated seeds vs the lifecycle invariants",
        format_campaign_table(rows),
        "",
        f"trace round-trip ({TRACE_SCENARIO} @ scale {TRACE_SCALE:g}): "
        f"{roundtrip['events']} events, "
        f"re-record drift {roundtrip['rerecord_drift']}, "
        f"complete: {roundtrip['complete']}",
    ]
    record("fuzz_suite", "\n".join(lines))
    record_json(
        "fuzz_suite",
        {"campaign": rows, "trace_roundtrip": roundtrip},
        scale=FUZZ_SCALE,
        seed=SEED,
    )

    # A cell with violations raises inside the grid, so reaching here
    # already means the campaign passed; assert the recorded shape too.
    for key, row in rows.items():
        assert row["violations"] == 0, key
        assert row["events"] > 0, key
    assert roundtrip["rerecord_clean"], "same-build re-record drifted"
    assert roundtrip["rerecord_drift"] == 0
    assert roundtrip["complete"], "the recording lost client traffic"
