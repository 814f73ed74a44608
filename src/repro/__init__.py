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
* :mod:`repro.perf` — opt-in counters/timers/samplers threaded through
  the hot layers (off by default, zero-cost when off).
* :mod:`repro.games` — generic game server/client plus BzFlag, Quake 2
  and Daimonin workload profiles.
* :mod:`repro.workload` — mobility models and client fleets.
* :mod:`repro.baselines` — static partitioning, mirrored servers,
  peer-to-peer groups, DHT lookup.
* :mod:`repro.analysis` — time series, statistics, ASCII plots, and
  the §4.2 asymptotic scalability model.
* :mod:`repro.harness` — runners that regenerate every figure and
  table of the paper's evaluation, all through the unified scenario
  runner (the one experiment path).

See ``docs/ARCHITECTURE.md`` for the layer map and message lifecycle,
``docs/BENCHMARKS.md`` for what each benchmark reproduces.

Quickstart
----------
>>> from repro.harness import Fig2Schedule, mini_fig2_policy, run_fig2
>>> result = run_fig2(schedule=Fig2Schedule().scaled(0.05),
...                   policy=mini_fig2_policy(0.05))
>>> result.splits_completed > 0
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
from repro.harness import MatrixExperiment, run_fig2, run_scenario

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
    "run_fig2",
    "run_scenario",
]
