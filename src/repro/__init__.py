"""repro — a faithful reproduction of *Matrix: Adaptive Middleware for
Distributed Multiplayer Games* (Balan, Ebling, Castro, Misra;
Middleware 2005).

Package map
-----------
``import repro`` loads the run stack; entries marked *(on demand)* load
only at the call that uses them (docs/ARCHITECTURE.md, "What ``import
repro`` loads").

* :mod:`repro.sim` — deterministic discrete-event kernel; the serial
  shard lanes (``sim.sharded``) on demand.
* :mod:`repro.net` — simulated network: latency models, bandwidth,
  finite-rate receive queues, traffic accounting; the lanes' network
  (``net.sharded``) on demand.
* :mod:`repro.geometry` — vectors, rectangles, metrics, and the
  overlap-region decomposition at the heart of Matrix routing.
* :mod:`repro.core` — the middleware: Matrix servers, the Matrix
  Coordinator, split/reclaim policy, and the developer-facing API; the
  runtime *(on demand)* in the Matrix runner builder, so a rival run
  loads only the API, configuration, messages and split strategies.
* :mod:`repro.perf` — opt-in counters/timers/samplers that
  ``perfbench``'s traced runs read (off by default, zero-cost when off).
* :mod:`repro.games` — generic game server/client plus BzFlag, Quake 2
  and Daimonin workload profiles.
* :mod:`repro.workload` — mobility models, client fleets and the
  scenario catalog (the paper's Fig 2 timeline is ``fig2-hotspot``).
* :mod:`repro.baselines` — static partitioning, mirrored servers,
  peer-to-peer groups, DHT lookup; each rival *(on demand)* in its
  runner builder.
* :mod:`repro.analysis` — time series and statistics; ASCII plots and
  the §4.2 asymptotic scalability model *(on demand)*.
* :mod:`repro.harness` — the unified scenario runner (the one
  experiment path); the comparisons, ``--jobs`` pool, sweep, fuzz
  harness, microbenchmarks and user study that regenerate every figure
  and table of the paper's evaluation through it *(on demand)*.
* :mod:`repro.chaos`, :mod:`repro.fuzz`, :mod:`repro.trace` — fault
  injection, scenario fuzzing, trace record/diff *(on demand)*.

The top level holds :func:`run_scenario`, ``PerfConfig``, ``Rect``
and ``Vec2``; ``repro.MatrixExperiment`` loads the Matrix runtime at
first access.  Everything else is imported from its own module (say
``repro.core.config`` or ``repro.core.deployment``).

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

__version__ = "0.1.0"

from repro.core.config import PerfConfig
from repro.geometry import Rect, Vec2
from repro.harness.runner import run_scenario

__all__ = [
    "MatrixExperiment",
    "PerfConfig",
    "Rect",
    "Vec2",
    "__version__",
    "run_scenario",
]


def __getattr__(name: str):
    # PEP 562: the Matrix runtime loads on first use, as in its builder.
    if name == "MatrixExperiment":
        from repro.harness.experiment import MatrixExperiment

        return MatrixExperiment
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
