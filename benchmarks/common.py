"""Shared machinery for the benchmark suite.

Every bench regenerates one figure/table of the paper.  The heavyweight
simulation runs are cached per (scale, seed) so benches that share a
run (Fig 2a and Fig 2b) only pay for it once.

Scale: by default benches run at ``REPRO_BENCH_SCALE`` (default 0.25)
of the paper's population, with policy thresholds and server capacity
scaled identically — the dynamics (who splits, who saturates, where
crossovers fall) are preserved while wall-clock time drops ~10x.  Set
``REPRO_BENCH_SCALE=1.0`` to regenerate at full paper scale.
"""

from __future__ import annotations

import json
import os
import platform
from functools import lru_cache
from pathlib import Path

from repro.core.config import LoadPolicyConfig
from repro.games.profile import profile_by_name
from repro.harness.compare import scaled_profile
from repro.harness.experiment import ExperimentResult, MatrixExperiment
from repro.harness.fig2 import Fig2Schedule, install_fig2_workload

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))
SEED = int(os.environ.get("REPRO_BENCH_SEED", "1"))
#: Worker processes for the grid benches (sweep, arch matrix, chaos,
#: fuzz).  0/1 = the historical serial loops; CI smoke runs 2.
#: Deterministic metrics are job-count-independent by construction —
#: see repro/harness/parallel.py — only the BENCH "timing" sections
#: (and wall-clock noise under core contention) vary.
JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "0")) or None

OUTPUT_DIR = Path(__file__).parent / "output"


def scaled_policy(scale: float = SCALE) -> LoadPolicyConfig:
    """The paper's 300/150 thresholds, scaled."""
    return LoadPolicyConfig().scaled(
        scale, floor_overload=6, floor_underload=3
    )


def scaled_schedule(scale: float = SCALE) -> Fig2Schedule:
    """The Fig 2 timeline with a scaled population."""
    return Fig2Schedule().scaled(scale)


def game_profile(name: str, scale: float = SCALE):
    """A game profile with capacity scaled to the bench population."""
    return scaled_profile(profile_by_name(name), scale)


@lru_cache(maxsize=4)
def fig2_result(
    scale: float = SCALE, seed: int = SEED, game: str = "bzflag"
) -> ExperimentResult:
    """The (cached) Fig 2 hotspot run."""
    schedule = scaled_schedule(scale)
    experiment = MatrixExperiment(
        game_profile(game, scale), policy=scaled_policy(scale), seed=seed
    )
    install_fig2_workload(experiment, schedule)
    return experiment.run(until=schedule.duration)


def record(name: str, text: str) -> None:
    """Print a bench's table/figure and persist it under output/."""
    print()
    print(text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")


def record_json(
    name: str, metrics: dict, timing: dict | None = None
) -> Path:
    """Persist machine-readable bench results as ``BENCH_<name>.json``.

    Every bench that has quantitative outputs should call this in
    addition to :func:`record`: the JSON files are what CI and the
    perf-trajectory tooling diff from run to run, so regressions show
    up as numbers rather than as ASCII-art changes.

    ``metrics`` must hold only deterministic quantities — identical for
    a given (scale, seed) whatever the machine, ``--jobs`` count or
    scheduling — so two BENCH files byte-diff after dropping the
    machine-dependent keys (``jq 'del(.timing, .python)'``).  Anything
    wall-clock-dependent (wall seconds, events/sec, latency
    percentiles measured in wall time, the jobs count) goes in
    *timing*; :func:`repro.harness.parallel.timing_section` builds the
    standard block for pooled grids.
    """
    OUTPUT_DIR.mkdir(exist_ok=True)
    payload = {
        "bench": name,
        "scale": SCALE,
        "seed": SEED,
        "python": platform.python_version(),
        "metrics": metrics,
    }
    if timing is not None:
        payload["timing"] = timing
    path = OUTPUT_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
