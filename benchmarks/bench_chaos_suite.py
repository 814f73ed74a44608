"""Chaos suite — the system's resilience story, measured.

Two grids:

1. **Matrix recovery** — *every* registered scenario runs on the matrix
   backend with a mid-run Matrix-server crash and a coordinator
   failover injected on top of whatever faults it already declares.
   Each run must finish with every crash recovered in finite time, the
   standby MC promoted, the partition map covering the whole world, and
   **zero leaked pool hosts** (the pool's free count balances once the
   dust settles).
2. **Backend × fault verdicts** — the chaos catalog scenarios run on
   every architecture backend through the shared compare verdict, so
   the resilience comparison (who degrades, who fails, who recovers)
   is graded exactly like the §4.2 capacity comparison.  Crash faults
   are matrix-only by design: the rivals have no recovery protocol,
   which is itself the comparison.

Both grids fan out over ``repro.harness.parallel.run_grid``
(``REPRO_BENCH_JOBS`` workers; serial by default).  Every recorded
field is a simulation-time quantity — deterministic for a given seed —
so ``BENCH_chaos_suite.json`` is byte-identical whatever the job count.
Schema in docs/BENCHMARKS.md.
"""

from common import JOBS, SEED, record, record_json

from repro.harness.gridcells import chaos_fault_cell, chaos_recovery_cell
from repro.harness.parallel import GridTask, run_grid
from repro.harness.runner import backend_names
from repro.workload.scenarios import scenario_names

#: Chaos runs every scenario twice over; keep the population small.
CHAOS_SCALE = 0.1
#: Per-run cap on simulated seconds (faults land well inside it).
PREVIEW = 90.0
#: Extra settle time after the scenario ends, so decommission grace
#: periods and host reboots drain before the leak audit runs.
SETTLE = 8.0

#: The catalog's chaos scenarios, graded per backend in grid 2.
FAULT_SCENARIOS = ("crash-during-split", "failover-storm", "lossy-wan")


def chaos_grid_tasks():
    """Both grids as one task list (keys are namespaced tuples)."""
    tasks = [
        GridTask(
            key=("recovery", name),
            fn=chaos_recovery_cell,
            kwargs=dict(
                name=name,
                scale=CHAOS_SCALE,
                preview=PREVIEW,
                settle=SETTLE,
                seed=SEED,
            ),
        )
        for name in scenario_names()
    ]
    tasks.extend(
        GridTask(
            key=("faults", backend, name),
            fn=chaos_fault_cell,
            kwargs=dict(
                backend=backend,
                name=name,
                scale=CHAOS_SCALE,
                preview=PREVIEW,
                seed=SEED,
                queue_capacity=20000,
            ),
        )
        for backend in backend_names()
        for name in FAULT_SCENARIOS
    )
    return tasks


def run_chaos_grids(jobs=JOBS):
    """Run both grids through one pool; return (recovery, faults)."""
    recovery, fault_grid = {}, {}
    for cell in run_grid(chaos_grid_tasks(), jobs=jobs):
        if cell.key[0] == "recovery":
            recovery[cell.key[1]] = cell.value
        else:
            _, backend, name = cell.key
            fault_grid.setdefault(backend, {})[name] = cell.value
    return recovery, fault_grid


def format_recovery_table(grid: dict) -> str:
    lines = [
        f"{'scenario':<22} {'faults':>6} {'crashes':>8} {'max rec (s)':>12} "
        f"{'mc promo (s)':>13} {'lost':>7} {'rejoins':>8} {'leaked':>7} "
        f"{'coverage':>9}"
    ]
    for name, row in sorted(grid.items()):
        promoted = row["mc_promoted_at"]
        lines.append(
            f"{name:<22} {row['faults_injected']:>6} "
            f"{row['crashes_detected']:>8} {row['max_recovery_time']:>12.2f} "
            f"{promoted if promoted is not None else float('nan'):>13.1f} "
            f"{row['packets_lost']:>7} {row['client_rejoins']:>8} "
            f"{row['leaked_hosts']:>7} {row['coverage_ratio']:>9.3f}"
        )
    return "\n".join(lines)


def format_fault_grid(grid: dict) -> str:
    lines = [
        f"{'backend':<9} {'scenario':<20} {'verdict':>8} {'peak q':>8} "
        f"{'dropped':>8} {'p99 (s)':>8} {'lost':>7} {'link-drop':>10}"
    ]
    for backend in sorted(grid):
        for name, cell in sorted(grid[backend].items()):
            lines.append(
                f"{backend:<9} {name:<20} {cell['verdict']:>8} "
                f"{cell['peak_queue']:>8.0f} {cell['dropped']:>8} "
                f"{cell['p99_latency']:>8.3f} {cell['packets_lost']:>7} "
                f"{cell['link_dropped']:>10}"
            )
    return "\n".join(lines)


def test_chaos_suite():
    recovery, fault_grid = run_chaos_grids()

    lines = [
        f"chaos suite (scale={CHAOS_SCALE:g}, seed={SEED}): every scenario "
        f"with a server crash + MC failover injected (matrix backend)",
        format_recovery_table(recovery),
        "",
        "backend x fault verdicts (chaos catalog scenarios, shared verdict)",
        format_fault_grid(fault_grid),
    ]
    record("chaos_suite", "\n".join(lines))
    record_json(
        "chaos_suite",
        {"matrix_recovery": recovery, "backend_fault_grid": fault_grid},
        scale=CHAOS_SCALE,
        seed=SEED,
    )

    for name, row in recovery.items():
        # Every scenario absorbs a crash + failover: finite recovery,
        # promoted standby, converged coverage, balanced pool.
        assert row["leaked_hosts"] == 0, f"{name}: pool hosts leaked"
        assert row["all_recovered"], f"{name}: unrecovered crash"
        assert row["crashes_detected"] >= 1 or row["faults_skipped"], name
        for took in row["recovery_times"]:
            assert 0.0 < took < 60.0, f"{name}: implausible recovery {took}"
        assert row["mc_promoted_at"] is not None, f"{name}: no MC failover"
        assert abs(row["coverage_ratio"] - 1.0) < 1e-6, (
            f"{name}: partition map does not cover the world"
        )
    # The matrix backend must survive its own chaos catalog.
    for name, cell in fault_grid["matrix"].items():
        assert cell["faults_unsupported"] == 0, name
