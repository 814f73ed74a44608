"""Arch-matrix — every scenario on every architecture backend (§4–§5).

The paper's comparative claim, as one grid: all registered catalog
scenarios run on all registered backends (matrix, static, mirrored,
p2p, dht) through the unified runner, and each cell reports the four
numbers the architectures trade off — peak receive queue, consistency
bytes, routing-lookup latency, and p99 response latency.

The grid is embarrassingly parallel, so it fans out over
``repro.harness.parallel.run_grid`` (``REPRO_BENCH_JOBS`` workers;
serial by default).  Cell metrics are deterministic and merged in
canonical order, so the ``metrics`` payload of
``BENCH_architecture_matrix.json`` is byte-identical whatever the job
count.  Schema in docs/BENCHMARKS.md.
"""

from common import JOBS, SCALE, SEED, record, record_json

from repro.harness.gridcells import arch_matrix_cell
from repro.harness.parallel import GridTask, run_grid
from repro.harness.runner import backend_names
from repro.workload.scenarios import build_scenario, scenario_names

#: The grid runs every backend, so population scale is capped below the
#: figure benches' default: p2p fan-out is quadratic in hotspot size.
ARCH_SCALE = min(SCALE, 0.1)
#: Per-cell preview cap (simulated seconds): long tails add wall time
#: without changing which architecture saturates first.
PREVIEW = 60.0
#: Scenarios that repeat another's row within the preview.
#: ``flash-crowd`` is ``fig2-hotspot`` until that one's first departure
#: at 85 s, so each backend gave the two the same cell.  The sweep,
#: which runs them to their ends, keeps both.
REPEATS = frozenset({"flash-crowd"})


def matrix_grid_tasks():
    """The (backend × fault-free scenario) task list."""
    # Chaos scenarios are graded by bench_chaos_suite; this grid stays
    # fault-free so its cells remain comparable across commits.
    names = [
        name for name in scenario_names()
        if not build_scenario(name).has_faults and name not in REPEATS
    ]
    return [
        GridTask(
            key=(backend, name),
            fn=arch_matrix_cell,
            kwargs=dict(
                backend=backend,
                name=name,
                scale=ARCH_SCALE,
                preview=PREVIEW,
                seed=SEED,
            ),
        )
        for backend in backend_names()
        for name in names
    ]


def run_matrix_grid(jobs=JOBS):
    grid = {}
    for cell in run_grid(matrix_grid_tasks(), jobs=jobs):
        backend, name = cell.key
        grid.setdefault(backend, {})[name] = cell.value
    return grid


def format_grid(grid) -> str:
    lines = [
        f"{'backend':<9} {'scenario':<19} {'peak q':>7} {'dropped':>8} "
        f"{'consist kB':>11} {'lookup ms':>10} {'p99 ms':>8} {'events':>8}"
    ]
    for backend in sorted(grid):
        for name in sorted(grid[backend]):
            cell = grid[backend][name]
            lines.append(
                f"{backend:<9} {name:<19} {cell['peak_queue']:>7.0f} "
                f"{cell['dropped']:>8.0f} "
                f"{cell['consistency_bytes'] / 1000:>11.1f} "
                f"{cell['lookup_latency_ms']:>10.3f} "
                f"{cell['p99_latency_ms']:>8.0f} {cell['events']:>8.0f}"
            )
    return "\n".join(lines)


def test_architecture_matrix():
    grid = run_matrix_grid()

    backends = sorted(grid)
    scenarios = sorted(grid[backends[0]])
    lines = [
        f"Arch-matrix (scale={ARCH_SCALE:g}, preview={PREVIEW:.0f}s): "
        f"{len(scenarios)} scenarios x {len(backends)} backends",
        format_grid(grid),
    ]
    record("architecture_matrix", "\n".join(lines))
    record_json(
        "architecture_matrix",
        {
            "arch_scale": ARCH_SCALE,
            "preview_seconds": PREVIEW,
            "backends": backends,
            "scenarios": scenarios,
            "grid": grid,
        },
        scale=ARCH_SCALE,
        seed=SEED,
    )

    # Every cell completed: the unified runner really is universal.
    for backend in backends:
        assert set(grid[backend]) == set(scenarios)
        for name in scenarios:
            assert grid[backend][name]["events"] > 0, (backend, name)
        # Each row is a scenario of its own: none repeats another.
        rows = [tuple(grid[backend][name].items()) for name in scenarios]
        assert len(set(rows)) == len(rows), backend

    for name in scenarios:
        # Replicate-everything costs more than overlap-only forwarding.
        assert (
            grid["mirrored"][name]["consistency_bytes"]
            > grid["matrix"][name]["consistency_bytes"]
        ), name
        # DHT pays real lookup latency; table-based backends pay none.
        assert grid["dht"][name]["lookup_latency_ms"] > 0.0, name
        assert grid["matrix"][name]["lookup_latency_ms"] == 0.0, name
