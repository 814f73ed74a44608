"""Scenario sweep — every registered workload through the unified runner.

The catalog is the product surface of the scenario subsystem: this
bench runs each registered scenario end to end (scaled down), prints a
comparison table, and records machine-readable per-scenario metrics so
the perf trajectory catches regressions in any workload, not just the
paper's Fig 2 run.  The sweep machinery itself is shared with the CLI
(``python -m repro sweep``) via :mod:`repro.harness.sweep`, and fans
out over ``REPRO_BENCH_JOBS`` worker processes (serial by default);
both outputs are byte-identical whatever the job count.
"""

from common import JOBS, SCALE, SEED, record, record_json

from repro.harness.sweep import (
    format_sweep_table,
    run_sweep_grid,
    sweep_payload,
)

#: Sweeping every scenario at full bench scale would dwarf the Fig 2
#: runs; a fifth of it keeps the sweep minutes-scale while preserving
#: split/reclaim dynamics (policy and capacity scale alongside).
SWEEP_SCALE = SCALE * 0.2


def test_scenario_sweep():
    rows = run_sweep_grid(SWEEP_SCALE, seed=SEED, jobs=JOBS)

    lines = [
        f"scenario sweep (scale={SWEEP_SCALE:g}, seed={SEED}): every "
        f"registered scenario through the unified runner",
        format_sweep_table(rows),
    ]
    record("scenario_sweep", "\n".join(lines))
    record_json(
        "scenario_sweep", sweep_payload(rows), scale=SWEEP_SCALE, seed=SEED
    )

    assert len(rows) >= 6, "the catalog must stay populated"
    for row in rows:
        assert row.peak_clients > 0, f"{row.scenario} spawned nobody"
    # The hotspot scenarios must actually force splits at sweep scale.
    by_name = {row.scenario: row for row in rows}
    assert by_name["flash-crowd"].splits >= 1
    assert by_name["fig2-hotspot"].splits >= 1
