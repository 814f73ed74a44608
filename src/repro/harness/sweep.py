"""The scenario sweep: every registered workload, one comparison table.

Shared by the CLI (``python -m repro sweep``) and
``benchmarks/bench_scenario_sweep.py`` so the two faces of the sweep
can never drift apart.  The grid fans out over
:func:`repro.harness.parallel.run_grid`: each scenario is one
independent cell, and the merged rows are sorted by scenario name, so
the table and ``BENCH_scenario_sweep.json`` are byte-identical whatever
``jobs`` is.  :func:`write_bench_json` writes that file, and every
bench's ``BENCH_*.json`` through ``benchmarks/common.record_json``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.analysis.stats import p99_or_zero
from repro.harness.compare import scaled_run_arguments
from repro.harness.parallel import GridCell, GridTask, run_grid
from repro.harness.runner import run_scenario
from repro.workload.scenarios import build_scenario, scenario_names


@dataclass(frozen=True)
class SweepRow:
    """One scenario's summary metrics, deterministic for a given
    (scale, seed)."""

    scenario: str
    peak_clients: float
    peak_servers: int
    splits: int
    reclaims: int
    peak_queue: float
    p99_latency: float
    events: int


def sweep_cell(
    name: str, scale: float, seed: int, preview: float | None
) -> SweepRow:
    """Run one sweep cell (module-level: picklable for pool workers)."""
    result = run_scenario(
        **scaled_run_arguments(
            build_scenario(name), "matrix", scale, seed, preview=preview
        )
    ).result
    return SweepRow(
        scenario=name,
        peak_clients=result.total_clients.max(),
        peak_servers=result.servers_used,
        splits=result.splits_completed,
        reclaims=result.reclaims_completed,
        peak_queue=result.max_queue(),
        p99_latency=p99_or_zero(result.action_latencies),
        events=result.events_processed,
    )


def run_sweep_grid(
    scale: float,
    seed: int = 0,
    preview: float | None = None,
    on_result: Callable[[GridCell], None] | None = None,
    jobs: int | None = None,
    scenarios: Sequence[str] | None = None,
) -> list[SweepRow]:
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
    cells = run_grid(tasks, jobs=jobs, on_result=on_result)
    return [cell.value for cell in cells]


def sweep_payload(rows: Sequence[SweepRow]) -> dict:
    """The per-scenario metrics of ``BENCH_scenario_sweep``."""
    return {
        row.scenario: {
            key: value
            for key, value in dataclasses.asdict(row).items()
            if key != "scenario"
        }
        for row in sorted(rows, key=lambda row: row.scenario)
    }


def write_bench_json(
    path, bench: str, scale: float, seed: int, metrics: dict
) -> Path:
    """Write a ``BENCH_*.json`` file: the one envelope every bench and
    ``python -m repro sweep --json`` share.

    *scale* and *seed* are the ones the cells actually ran at, and
    *metrics* holds only simulation-derived quantities, so the file is
    byte-identical across machines and ``--jobs`` counts.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"bench": bench, "scale": scale, "seed": seed, "metrics": metrics}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def format_sweep_table(rows: list[SweepRow]) -> str:
    """Render the sweep table (shared by CLI and bench output)."""
    lines = [
        f"{'scenario':<20} {'clients':>8} {'servers':>8} {'splits':>7} "
        f"{'reclaims':>9} {'peak q':>8} {'p99 (s)':>8} {'events':>10}"
    ]
    for row in rows:
        lines.append(
            f"{row.scenario:<20} {row.peak_clients:>8.0f} "
            f"{row.peak_servers:>8} {row.splits:>7} {row.reclaims:>9} "
            f"{row.peak_queue:>8.0f} {row.p99_latency:>8.3f} "
            f"{row.events:>10}"
        )
    return "\n".join(lines)
