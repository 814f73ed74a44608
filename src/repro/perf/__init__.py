"""Performance instrumentation for the simulation core.

The subsystem is deliberately tiny: a :class:`PerfRegistry` of named
counters, wall-clock timers and deterministic tick samplers, threaded
through the four hot layers (``sim`` kernel loop, ``net`` delivery and
middleware, ``core.runtime`` routing, ``geometry`` index builds).  It
is **off by default** and adds nothing to the kernel's event loop when
off; enable it with ``run_scenario(..., perf=PerfConfig(enabled=True))``
or via ``python -m repro perf``.

See ``docs/ARCHITECTURE.md`` ("Perf instrumentation") for where each
hook sits and ``docs/BENCHMARKS.md`` for the metric naming scheme.
"""

from repro.perf.instruments import (
    PerfCounter,
    PerfRegistry,
    PerfTimer,
    TickSampler,
)
from repro.perf.report import format_report

__all__ = [
    "PerfCounter",
    "PerfRegistry",
    "PerfTimer",
    "TickSampler",
    "format_report",
]
