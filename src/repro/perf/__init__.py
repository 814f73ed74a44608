"""Performance instrumentation for the simulation core.

The subsystem is deliberately tiny: a :class:`PerfRegistry` of named
counters, wall-clock timers and deterministic tick samplers that
``perfbench``'s traced runs read (``sim`` kernel steps and shard
windows, ``net`` link-profile lookups and lane crossings, ``geometry``
index builds and overlap reuse).  It is **off by default** and adds
nothing to the kernel's event loop when off; enable it with
``run_scenario(..., perf=PerfConfig(enabled=True))`` and read
``result.perf_snapshot``.

See ``docs/ARCHITECTURE.md`` ("Where the perf hooks sit") for where each
hook sits and ``docs/BENCHMARKS.md`` for the metric naming scheme.
"""

from repro.perf.instruments import (
    PerfCounter,
    PerfRegistry,
    PerfTimer,
    TickSampler,
)

__all__ = [
    "PerfCounter",
    "PerfRegistry",
    "PerfTimer",
    "TickSampler",
]
