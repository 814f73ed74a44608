"""The scenario sweep: every registered workload, one comparison table.

Shared by the CLI (``python -m repro sweep``) and
``benchmarks/bench_scenario_sweep.py`` so the two faces of the sweep
can never drift apart.  The grid fans out over
:func:`repro.harness.parallel.run_grid`: each scenario is one
independent cell, and the merged rows are sorted by scenario name, so
the table and the deterministic half of ``BENCH_scenario_sweep.json``
are byte-identical whatever ``jobs`` is.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.analysis.stats import percentile
from repro.harness.compare import scaled_run_arguments
from repro.harness.parallel import GridTask, run_grid, timing_section
from repro.harness.runner import run_scenario
from repro.workload.scenarios import build_scenario, scenario_names


@dataclass(frozen=True)
class SweepRow:
    """One scenario's summary metrics.

    Every field but ``wall_seconds`` is deterministic for a given
    (scale, seed); ``wall_seconds`` is the cell's worker wall clock,
    reported in tables and the BENCH ``timing`` section only — never in
    the deterministic JSON payload (see :func:`sweep_payload`).
    """

    scenario: str
    peak_clients: float
    peak_servers: int
    splits: int
    reclaims: int
    peak_queue: float
    p99_latency: float
    events: int
    wall_seconds: float


def sweep_cell(
    name: str, scale: float, seed: int, preview: float | None
) -> SweepRow:
    """Run one sweep cell (module-level: picklable for pool workers)."""
    result = run_scenario(
        **scaled_run_arguments(
            build_scenario(name), "matrix", scale, seed, preview=preview
        )
    ).result
    latencies = result.action_latencies
    return SweepRow(
        scenario=name,
        peak_clients=result.total_clients.max(),
        peak_servers=result.servers_used,
        splits=result.splits_completed,
        reclaims=result.reclaims_completed,
        peak_queue=result.max_queue(),
        p99_latency=percentile(latencies, 99) if latencies else 0.0,
        events=result.events_processed,
        wall_seconds=0.0,  # stamped from the grid cell by the caller
    )


@dataclass(frozen=True)
class SweepRun:
    """A finished sweep grid: sorted rows plus the timing section."""

    rows: list[SweepRow]
    timing: dict


def run_sweep_grid(
    scale: float,
    seed: int = 0,
    preview: float | None = None,
    on_result: Callable[[SweepRow], None] | None = None,
    jobs: int | None = None,
    scenarios: Sequence[str] | None = None,
) -> SweepRun:
    """Run the fault-free catalog (Matrix backend) as a grid.

    Population, policy thresholds and server capacity all scale
    together, preserving split/reclaim dynamics.  ``jobs`` fans the
    grid out over worker processes (default: serial); rows come back
    sorted by scenario name either way.  *on_result* is called per
    finished cell in completion order (progress reporting).  Chaos
    scenarios (those declaring fault phases) are excluded — they are
    graded by the chaos suite (``benchmarks/bench_chaos_suite.py``) —
    and *scenarios* optionally restricts the grid further.
    """
    names = [
        name
        for name in (scenarios if scenarios is not None else scenario_names())
        if not build_scenario(name).has_faults
    ]
    tasks = [
        GridTask(
            key=(name,),
            fn=sweep_cell,
            kwargs=dict(name=name, scale=scale, seed=seed, preview=preview),
        )
        for name in names
    ]

    def stamped(cell) -> SweepRow:
        return dataclasses.replace(
            cell.value, wall_seconds=cell.wall_seconds
        )

    started = time.perf_counter()
    cells = run_grid(
        tasks,
        jobs=jobs,
        on_result=(
            (lambda cell: on_result(stamped(cell)))
            if on_result is not None
            else None
        ),
    )
    wall_total = time.perf_counter() - started
    return SweepRun(
        rows=[stamped(cell) for cell in cells],
        timing=timing_section(cells, jobs, wall_total),
    )


def sweep_payload(rows: Sequence[SweepRow]) -> dict:
    """The deterministic per-scenario metrics of ``BENCH_scenario_sweep``.

    Excludes ``wall_seconds`` — timing belongs in the BENCH ``timing``
    section — so the payload byte-diffs across runs and job counts.
    """
    return {
        row.scenario: {
            key: value
            for key, value in dataclasses.asdict(row).items()
            if key not in ("scenario", "wall_seconds")
        }
        for row in sorted(rows, key=lambda row: row.scenario)
    }


def write_sweep_json(
    path, rows: Sequence[SweepRow], timing: dict, scale: float, seed: int
):
    """Write a ``BENCH_scenario_sweep.json``-shaped file for a CLI sweep.

    Same layout as ``benchmarks/common.record_json``: the deterministic
    ``metrics`` payload (:func:`sweep_payload`) byte-diffs across
    ``--jobs`` counts and machines; everything wall-clock lives under
    ``timing``.
    """
    import json
    import platform
    from pathlib import Path

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "bench": "scenario_sweep",
        "scale": scale,
        "seed": seed,
        "python": platform.python_version(),
        "metrics": sweep_payload(rows),
        "timing": timing,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def format_sweep_table(rows: list[SweepRow]) -> str:
    """Render the sweep table (shared by CLI and bench output)."""
    lines = [
        f"{'scenario':<20} {'clients':>8} {'servers':>8} {'splits':>7} "
        f"{'reclaims':>9} {'peak q':>8} {'p99 (s)':>8} {'events':>10} "
        f"{'wall (s)':>9}"
    ]
    for row in rows:
        lines.append(
            f"{row.scenario:<20} {row.peak_clients:>8.0f} "
            f"{row.peak_servers:>8} {row.splits:>7} {row.reclaims:>9} "
            f"{row.peak_queue:>8.0f} {row.p99_latency:>8.3f} "
            f"{row.events:>10} {row.wall_seconds:>9.1f}"
        )
    return "\n".join(lines)
