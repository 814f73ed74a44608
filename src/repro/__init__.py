"""repro — a faithful reproduction of *Matrix: Adaptive Middleware for
Distributed Multiplayer Games* (Balan, Ebling, Castro, Misra;
Middleware 2005).

Package map
-----------
* :mod:`repro.sim` — deterministic discrete-event kernel.
* :mod:`repro.net` — simulated network: latency models, bandwidth,
  finite-rate receive queues, traffic accounting.
* :mod:`repro.geometry` — vectors, rectangles, metrics, and the
  overlap-region decomposition at the heart of Matrix routing.
* :mod:`repro.core` — the middleware: Matrix servers, the Matrix
  Coordinator, split/reclaim policy, and the developer-facing API.
* :mod:`repro.perf` — opt-in counters/timers/samplers that
  ``perfbench``'s traced runs read (off by default, zero-cost when off).
* :mod:`repro.games` — generic game server/client plus BzFlag, Quake 2
  and Daimonin workload profiles.
* :mod:`repro.workload` — mobility models, client fleets and the
  scenario catalog (the paper's Fig 2 timeline is ``fig2-hotspot``).
* :mod:`repro.baselines` — static partitioning, mirrored servers,
  peer-to-peer groups, DHT lookup.
* :mod:`repro.analysis` — time series, statistics, ASCII plots, and
  the §4.2 asymptotic scalability model.
* :mod:`repro.harness` — the unified scenario runner (the one
  experiment path) and the comparisons, microbenchmarks and user study
  that regenerate every figure and table of the paper's evaluation
  through it.

See ``docs/ARCHITECTURE.md`` for the layer map and message lifecycle,
``docs/BENCHMARKS.md`` for what each benchmark reproduces.

Quickstart
----------
>>> from repro import run_scenario
>>> from repro.core.config import LoadPolicyConfig
>>> outcome = run_scenario("fig2-hotspot", scale=0.05,
...                        policy=LoadPolicyConfig().scaled(0.05))
>>> outcome.result.splits_completed > 0
True
"""

__version__ = "1.0.0"

from repro.core import (
    MatrixConfig,
    MatrixCoordinator,
    MatrixDeployment,
    MatrixPort,
    MatrixServer,
    PerfConfig,
    ServerPool,
)
from repro.geometry import Rect, Vec2
from repro.harness import MatrixExperiment, run_scenario

__all__ = [
    "MatrixConfig",
    "MatrixCoordinator",
    "MatrixDeployment",
    "MatrixExperiment",
    "MatrixPort",
    "MatrixServer",
    "PerfConfig",
    "Rect",
    "ServerPool",
    "Vec2",
    "__version__",
    "run_scenario",
]
