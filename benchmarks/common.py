"""Shared machinery for the benchmark suite.

Every bench regenerates one figure/table of the paper by declaring a
``Scenario`` (or naming a catalog one) and calling ``run_scenario``.
The Fig 2 hotspot run is cached so the benches that share it (Fig 2a,
Fig 2b and the coordinator overhead) only pay for it once.

Scale: by default benches run at ``REPRO_BENCH_SCALE`` (default 0.25)
of the paper's population, with policy thresholds (``GRID_FLOORS``,
6/3) and server capacity scaled identically — the dynamics (who
splits, who saturates, where crossovers fall) are preserved while
wall-clock time drops ~10x.  Set ``REPRO_BENCH_SCALE=1.0`` to
regenerate at full paper scale.
"""

from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path

from repro.harness.compare import scaled_run_arguments
from repro.harness.experiment import ExperimentResult
from repro.harness.gridcells import GRID_FLOORS
from repro.harness.runner import run_scenario
from repro.harness.sweep import write_bench_json
from repro.workload.scenarios import build_scenario

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "1"))
#: Worker processes for the grid benches (sweep, arch matrix, chaos,
#: fuzz).  0/1 = the historical serial loops; CI smoke runs 2.  Every
#: output is job-count-independent by construction — see
#: repro/harness/parallel.py.
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "0")) or None

OUTPUT_DIR = Path(__file__).parent / "output"


def fig2_arguments() -> dict:
    """``run_scenario`` arguments of the Fig 2 hotspot on Matrix at the
    bench scale and seed."""
    return scaled_run_arguments(
        build_scenario("fig2-hotspot"), "matrix", SCALE, SEED, **GRID_FLOORS
    )


@lru_cache(maxsize=1)
def fig2_result() -> ExperimentResult:
    """The (cached) Fig 2 hotspot run."""
    return run_scenario(**fig2_arguments()).result


def record(name: str, text: str) -> None:
    """Print a bench's table/figure and persist it under output/."""
    print()
    print(text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")


def record_json(name: str, metrics: dict, *, scale: float, seed: int) -> Path:
    """Persist machine-readable bench results as ``BENCH_<name>.json``.

    Every bench that has quantitative outputs should call this in
    addition to :func:`record`: the JSON files are what CI and the
    perf-trajectory tooling diff from run to run, so regressions show
    up as numbers rather than as ASCII-art changes.  *scale* and *seed*
    are the ones the bench's cells actually ran at.  ``metrics`` holds
    only deterministic quantities, so the file is a byte contract (see
    :func:`repro.harness.sweep.write_bench_json`).
    """
    return write_bench_json(
        OUTPUT_DIR / f"BENCH_{name}.json", name, scale, seed, metrics
    )
